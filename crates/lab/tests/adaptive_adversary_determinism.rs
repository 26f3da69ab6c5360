//! Determinism and safety guarantees of the adaptive adversaries.
//!
//! Adaptive behaviours read an [`ObservedState`] snapshot of the run so
//! far and pick their attacks from it — which makes them exactly the kind
//! of code that *could* smuggle nondeterminism (or a safety violation)
//! into the lab. These tests pin the contract from the outside:
//!
//! 1. **Thread-count byte-identity, per behaviour.** Every adaptive
//!    behaviour sweeps to the same bytes at worker counts 1, 2, and
//!    default — observation is maintained inside the simulation loop, so
//!    the worker pool cannot reorder what the adversary sees.
//! 2. **Safety never flips.** Adaptive adversaries may slow engines down
//!    or inflate message complexity, but no sweep cell reports a validity
//!    violation and no crosscheck cell grades DISAGREEMENT.
//! 3. **Golden fingerprints.** SHA-256 of the `adaptive` sweep suite and
//!    of the `crosscheck-adaptive` grid renderings is committed, pinning
//!    the grids, every adaptive behaviour's effect on every engine, and
//!    the emitters all at once.
//!
//! The golden hashes were recorded when the adaptive behaviours were
//! introduced. Do **not** regenerate them unless a behaviour, grid, or
//! emitter change is intentional.

use validity_adversary::BehaviorId;
use validity_crypto::sha256;
use validity_lab::{run_crosscheck, suites, AgreementLevel, CrosscheckMatrix, SweepEngine};

/// SHA-256 of the `adaptive` sweep suite's JSON rendering.
const ADAPTIVE_SWEEP_JSON: &str =
    "476e5fa97072c7b11fa269e55500c42f0a671659a0b16e198e4d9003b719ee41";

/// SHA-256 of the same suite's Markdown rendering.
const ADAPTIVE_SWEEP_MD: &str = "141a0b29a1e7494931848c27556a4995c1120292a59edcf691bf790d938f289e";

/// SHA-256 of the `crosscheck-adaptive` grid's JSON rendering.
const ADAPTIVE_CROSSCHECK_JSON: &str =
    "65503928287a8425fb249b5898fb4d39a581a8845cb2651d06a38f839f141968";

/// SHA-256 of the same grid's Markdown rendering.
const ADAPTIVE_CROSSCHECK_MD: &str =
    "be21561aac6c9e5aa1f6b0b308ffa32cf47a70da4c11883f46271b08478ebf90";

#[test]
fn every_adaptive_behavior_sweeps_byte_identically_across_thread_counts() {
    for behavior in BehaviorId::ADAPTIVE {
        let mut m = suites::build("adaptive").expect("built-in suite");
        m.behaviors = vec![behavior];
        let one = SweepEngine::new(1).run(&m).0;
        let two = SweepEngine::new(2).run(&m).0;
        let many = SweepEngine::new(0).run(&m).0;
        assert_eq!(
            one.to_json(),
            two.to_json(),
            "{behavior:?} drifted at 2 workers"
        );
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "{behavior:?} drifted at default workers"
        );
        assert_eq!(one.to_markdown(), many.to_markdown());
        // Liveness and complexity may degrade under an adaptive attack;
        // validity may not.
        assert_eq!(one.violations(), 0, "{behavior:?} flipped safety");
    }
}

#[test]
fn adaptive_suite_matches_golden_fingerprint() {
    let m = suites::build("adaptive").expect("built-in suite");
    let (report, _) = SweepEngine::new(0).run(&m);
    assert_eq!(report.violations(), 0);
    assert_eq!(
        sha256(report.to_json()).to_hex(),
        ADAPTIVE_SWEEP_JSON,
        "adaptive sweep JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        sha256(report.to_markdown()).to_hex(),
        ADAPTIVE_SWEEP_MD,
        "adaptive sweep Markdown drifted from its recorded fingerprint"
    );
}

#[test]
fn adaptive_crosscheck_is_byte_identical_and_matches_golden_fingerprint() {
    let matrix = CrosscheckMatrix::adaptive();
    let one = run_crosscheck(&matrix, 1);
    let many = run_crosscheck(&matrix, 0);
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());

    // The differential bar: every engine survives every adaptive attack
    // with its decisions intact — zero DISAGREEMENT — and the grid is not
    // vacuous.
    assert_eq!(one.count(AgreementLevel::Disagreement), 0);
    assert!(one.count(AgreementLevel::Full) > 0);

    assert_eq!(
        sha256(one.to_json()).to_hex(),
        ADAPTIVE_CROSSCHECK_JSON,
        "adaptive crosscheck JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        sha256(one.to_markdown()).to_hex(),
        ADAPTIVE_CROSSCHECK_MD,
        "adaptive crosscheck Markdown drifted from its recorded fingerprint"
    );
}
