//! Golden-report fingerprints: the byte-identity safety net of the
//! zero-allocation event-loop rewrite.
//!
//! The hashes below were recorded from the **pre-refactor** engine
//! (`BinaryHeap` scheduler, `Vec<Step>` hook API, per-recipient payload
//! clones) running `lab run --suite quick` at a fixed seed range. The
//! optimized engine must reproduce the same report bytes exactly — at
//! worker counts 1 and default, observed or not — because every declared
//! fit band (`suites.rs`) and every published number in the repository
//! assumes seeded executions are stable across engine versions.
//!
//! If this test fails, the engine's event order or RNG draw order drifted
//! (see the two-draw invariant on `Simulation::arrival_time`). Do **not**
//! regenerate the hashes unless the drift is intentional and every band
//! and published number it moves is re-checked with it.

use validity_crypto::sha256;
use validity_lab::{suites, SweepEngine, SweepReport};

/// SHA-256 of `SweepReport::to_json()` for the fixed-seed `quick` suite
/// (what `lab run --suite quick --json …` writes).
const QUICK_FIXED_JSON: &str = "43412f0b767f7fd08d998265e4d4b0e6a8f1d79d4fe9fe6784eae7eb6b1a977f";

/// SHA-256 of the same suite's Markdown rendering.
const QUICK_FIXED_MD: &str = "e48bbae9744372d5c561bb564f5cd763d07716124b1edead90054820cf28666c";

fn quick_report(threads: usize, observe: bool) -> SweepReport {
    let matrix = suites::build("quick").expect("quick suite exists");
    let (report, _) = SweepEngine::new(threads).observe(observe).run(&matrix);
    report
}

#[test]
fn quick_suite_fixed_report_matches_pre_refactor_fingerprint() {
    for threads in [1, 0] {
        let report = quick_report(threads, false);
        assert_eq!(
            sha256(report.to_json()).to_hex(),
            QUICK_FIXED_JSON,
            "quick JSON drifted from the pre-refactor engine (threads {threads})"
        );
        assert_eq!(
            sha256(report.to_markdown()).to_hex(),
            QUICK_FIXED_MD,
            "quick Markdown drifted from the pre-refactor engine (threads {threads})"
        );
    }
}

/// The probe layer must not perturb execution: running the same suites
/// with the `Metrics` probe attached (`lab run --observe`) reproduces the
/// exact pre-refactor bytes — instrumented runs match the *same* golden
/// fingerprints.
#[test]
fn observed_runs_match_the_unobserved_fingerprints() {
    let report = quick_report(0, true);
    assert_eq!(
        sha256(report.to_json()).to_hex(),
        QUICK_FIXED_JSON,
        "--observe changed the canonical quick JSON"
    );
    assert_eq!(
        sha256(report.to_markdown()).to_hex(),
        QUICK_FIXED_MD,
        "--observe changed the canonical quick Markdown"
    );
}
