//! Determinism and safety guarantees of the adaptive adversaries.
//!
//! Adaptive behaviours read an [`ObservedState`] snapshot of the run so
//! far and pick their attacks from it — which makes them exactly the kind
//! of code that *could* smuggle nondeterminism (or a safety violation)
//! into the lab. These tests pin the contract from the outside:
//!
//! 1. **Thread-count byte-identity, per behaviour.** Every adaptive
//!    behaviour's slice of the suite sweeps to the same bytes at 1 and 2
//!    workers, and each of its cell and group lines appears verbatim in
//!    the whole suite's default-worker report — observation is maintained
//!    inside the simulation loop, so the worker pool cannot reorder what
//!    the adversary sees.
//! 2. **Safety never flips.** Adaptive adversaries may inflate message
//!    complexity, but no sweep cell — any engine, raw or under
//!    `Universal` for Strong and Median — misses a decision within its
//!    budget, splits Agreement, or decides an inadmissible value.
//! 3. **Golden fingerprints.** SHA-256 of the `adaptive` sweep suite's
//!    renderings is committed, pinning the grid, every adaptive
//!    behaviour's effect on every engine, and the emitters all at once.
//!
//! The suite is simulated once per binary; the per-behaviour slices are
//! the only other runs.
//!
//! The golden hashes were re-recorded when the suite grew to every
//! engine and both properties; every cell and group line of the
//! Algorithm 1 grid before it carried over verbatim. Do **not**
//! regenerate them unless a behaviour, grid, or emitter change is
//! intentional.

use std::sync::OnceLock;

use validity_adversary::BehaviorId;
use validity_crypto::sha256;
use validity_lab::{suites, SweepEngine, SweepReport};

/// SHA-256 of the `adaptive` sweep suite's JSON rendering.
const ADAPTIVE_SWEEP_JSON: &str =
    "a3840aefe3fc29cd0da6a47ee4506875d0f292101831a0e750b7e6e1e80a6381";

/// SHA-256 of the same suite's Markdown rendering.
const ADAPTIVE_SWEEP_MD: &str = "15b2e675f4215037310f2734cf9d6ec31c043fa52ba9038110541f42ead876a2";

/// The whole suite at the default worker count, run once for the binary.
fn adaptive() -> &'static SweepReport {
    static REPORT: OnceLock<SweepReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let m = suites::build("adaptive").expect("built-in suite");
        SweepEngine::new(0).run(&m).0
    })
}

#[test]
fn every_adaptive_behavior_sweeps_byte_identically_across_thread_counts() {
    let suite = adaptive();
    let (suite_json, suite_md) = (suite.to_json(), suite.to_markdown());
    for behavior in BehaviorId::ADAPTIVE {
        let mut m = suites::build("adaptive").expect("built-in suite");
        m.behaviors = vec![behavior];
        let one = SweepEngine::new(1).run(&m).0;
        let two = SweepEngine::new(2).run(&m).0;
        assert_eq!(
            one.to_json(),
            two.to_json(),
            "{behavior:?} drifted at 2 workers"
        );
        assert_eq!(one.to_markdown(), two.to_markdown());
        // 36 executions, each read raw and under Universal for Strong and
        // Median: 108 cells in 36 groups of 3 seeds. JSON keys every cell
        // and group, Markdown every group.
        for (slice, whole, keyed) in [
            (one.to_json(), &suite_json, 108 + 36),
            (one.to_markdown(), &suite_md, 36),
        ] {
            let lines: Vec<&str> = slice.lines().filter(|l| l.contains("run/")).collect();
            assert_eq!(lines.len(), keyed, "{behavior:?}");
            for line in lines {
                let line = line.trim_end_matches(',');
                assert!(
                    whole.contains(line),
                    "{behavior:?} drifted at default workers: {line}"
                );
            }
        }
    }
}

#[test]
fn adaptive_suite_matches_golden_fingerprint() {
    let report = adaptive();
    // Complexity may grow under an adaptive attack; a decision within the
    // budget, Agreement and validity may not give.
    assert_eq!(
        report.violations(),
        0,
        "an adaptive behaviour flipped safety"
    );
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
