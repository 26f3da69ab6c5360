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
//! 2. **Safety never flips.** Adaptive adversaries may inflate message
//!    complexity, but no sweep cell — any engine, raw or under
//!    `Universal` for Strong and Median — misses a decision within its
//!    budget, splits Agreement, or decides an inadmissible value.
//! 3. **Golden fingerprints.** SHA-256 of the `adaptive` sweep suite's
//!    renderings is committed, pinning the grid, every adaptive
//!    behaviour's effect on every engine, and the emitters all at once.
//!
//! The golden hashes were re-recorded when the suite grew to every
//! engine and both properties; every cell and group line of the
//! Algorithm 1 grid before it carried over verbatim. Do **not**
//! regenerate them unless a behaviour, grid, or emitter change is
//! intentional.

use validity_adversary::BehaviorId;
use validity_crypto::sha256;
use validity_lab::{suites, SweepEngine};

/// SHA-256 of the `adaptive` sweep suite's JSON rendering.
const ADAPTIVE_SWEEP_JSON: &str =
    "a3840aefe3fc29cd0da6a47ee4506875d0f292101831a0e750b7e6e1e80a6381";

/// SHA-256 of the same suite's Markdown rendering.
const ADAPTIVE_SWEEP_MD: &str = "15b2e675f4215037310f2734cf9d6ec31c043fa52ba9038110541f42ead876a2";

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
        // Complexity may grow under an adaptive attack; a decision
        // within the budget, Agreement and validity may not give.
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
