//! Determinism guarantees of the differential crosscheck oracle.
//!
//! Two invariants are pinned here:
//!
//! 1. **Thread-count byte-identity.** The built-in `crosscheck` suite
//!    renders the same `crosscheck@1` JSON (and Markdown) at worker
//!    counts 1, 2, and default — the same guarantee every other lab
//!    artifact carries, so a CI matrix cell and a laptop produce
//!    diffable reports.
//! 2. **Golden fingerprints.** SHA-256 of both renderings of the
//!    built-in suite is committed, pinning the grid, the per-cell
//!    engine verdicts, the agreement grading, and the emitters all at
//!    once. Any drift — a registry change, an applicability-band
//!    change, a grading-rule change, an emitter change — shows up as a
//!    fingerprint mismatch and must be intentional.
//!
//! The golden hashes were recorded when the crosscheck suite was
//! introduced. Do **not** regenerate them unless a crosscheck-schema or
//! grid change is intentional.

use validity_crypto::sha256;
use validity_lab::{compare_emitted, run_crosscheck, AgreementLevel, CrosscheckMatrix};

/// SHA-256 of `CrosscheckReport::to_json()` for the built-in `crosscheck`
/// suite (what `lab crosscheck --json …` writes).
const CROSSCHECK_JSON: &str = "b3a8962d15124d980888db423516f66171c09c86c5d5e6f03a307fbef703eef4";

/// SHA-256 of the same suite's Markdown rendering.
const CROSSCHECK_MD: &str = "4849e8c8fb34dab9878112bd9ed15bd24016ddb129bb92b94bbaa5d645d3b656";

#[test]
fn crosscheck_suite_is_byte_identical_across_thread_counts() {
    let matrix = CrosscheckMatrix::suite();
    let one = run_crosscheck(&matrix, 1);
    let two = run_crosscheck(&matrix, 2);
    let many = run_crosscheck(&matrix, 0);
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());
    assert_eq!(
        one.count(AgreementLevel::Disagreement),
        0,
        "the built-in suite must run clean"
    );
    assert!(
        one.count(AgreementLevel::Full) > 0,
        "the built-in suite must have cells every oracle agrees on"
    );
    // The emitters are part of the oracle: both renderings must tell the
    // same per-cell story.
    assert_eq!(
        compare_emitted(&one.to_json(), &one.to_markdown()),
        Vec::<String>::new()
    );
}

#[test]
fn crosscheck_suite_matches_golden_fingerprint() {
    let report = run_crosscheck(&CrosscheckMatrix::suite(), 0);
    assert_eq!(
        sha256(report.to_json()).to_hex(),
        CROSSCHECK_JSON,
        "crosscheck JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        sha256(report.to_markdown()).to_hex(),
        CROSSCHECK_MD,
        "crosscheck Markdown drifted from its recorded fingerprint"
    );
}
