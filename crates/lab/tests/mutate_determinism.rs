//! Determinism and kill-rate guarantees of the fault-injection harness.
//!
//! Two invariants are pinned here:
//!
//! 1. **Thread-count byte-identity.** The mutate kill matrix renders the
//!    same `mutate@1` JSON (and Markdown) at worker counts 1, 2, and
//!    default — the same guarantee every other lab artifact carries, so
//!    a CI matrix cell and a laptop produce diffable kill matrices.
//! 2. **Golden fingerprints.** SHA-256 of both renderings of the built-in
//!    corpus is committed, pinning the grid, every mutant's fate, the
//!    kill evidence, and the emitters all at once. Any drift — a new
//!    operator, a changed kill rule, an engine change that flips a
//!    fate — shows up as a fingerprint mismatch and must be intentional.
//!
//! The corpus is the built-in suite itself. Each mutant stops at its first
//! conviction, and each mutant run is capped at 20× its base run's events
//! on the same cell, which keeps stalling mutants cheap even in debug
//! builds: every mutant dies and the baseline runs clean, which the gate
//! assertion below proves on every run.
//!
//! The golden hashes were recorded when `lab mutate` was introduced. Do
//! **not** regenerate them unless a mutate-schema, operator-corpus, or
//! kill-rule change is intentional.

use validity_crypto::sha256;
use validity_lab::{run_mutate, Fate, MutateMatrix, ViolationKind};

/// SHA-256 of `MutateReport::to_json()` for the built-in suite.
const MUTATE_JSON: &str = "a5cca01dc757f3c25754e1dac651958fac96ed6af4cc599159faaf536c2b1eab";

/// SHA-256 of the same corpus's Markdown rendering.
const MUTATE_MD: &str = "219a8d5d34801cb05094be232c075e2c824f9707505fc9967859d01df865ead7";

#[test]
fn kill_matrix_is_byte_identical_across_thread_counts() {
    let matrix = MutateMatrix::suite();
    let one = run_mutate(&matrix, 1);
    let two = run_mutate(&matrix, 2);
    let many = run_mutate(&matrix, 0);
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());

    // The harness's reason to exist: every planted fault is caught, and no
    // clean engine is ever blamed.
    assert!(one.false_kills.is_empty(), "{:?}", one.false_kills);
    assert_eq!(one.killed(), one.fates.len(), "{:?}", one.survivors());
    assert!(one.gate().is_ok());

    // Every kill is typed: the shift-proposal mutants decide a wrong
    // value, every other operator stalls its engine.
    let kinds: Vec<Option<ViolationKind>> = one
        .fates
        .iter()
        .filter_map(|f| match &f.fate {
            Fate::Killed { evidence, .. } => Some(evidence.kind()),
            Fate::Survived => None,
        })
        .collect();
    let count = |k| kinds.iter().filter(|&&kind| kind == Some(k)).count();
    assert_eq!(count(ViolationKind::Value), 3, "{kinds:?}");
    assert_eq!(count(ViolationKind::Liveness), 12, "{kinds:?}");
}

#[test]
fn kill_matrix_matches_golden_fingerprint() {
    let report = run_mutate(&MutateMatrix::suite(), 0);
    assert_eq!(
        sha256(report.to_json()).to_hex(),
        MUTATE_JSON,
        "mutate JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        sha256(report.to_markdown()).to_hex(),
        MUTATE_MD,
        "mutate Markdown drifted from its recorded fingerprint"
    );
}
