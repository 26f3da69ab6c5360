//! The `netchaos` gate: pre-GST network faults — loss, duplication,
//! partitions, crash-recovery churn, and their composition — may slow
//! decisions down but must never flip safety, and the chaos sweep must
//! stay as replay-stable as every other lab artifact.

use validity_lab::{suites, Outcome, ScheduleSpec, SweepEngine};

/// Every chaos schedule across both engine modes and both standard
/// adversaries: zero violations (Agreement, admissibility, liveness) and
/// byte-identical reports across worker counts.
#[test]
fn netchaos_is_safe_and_byte_identical_across_thread_counts() {
    let m = suites::build("netchaos").expect("built-in suite");
    let one = SweepEngine::new(1).run(&m).0;
    assert_eq!(
        one.violations(),
        0,
        "a chaos schedule flipped safety or stalled liveness:\n{}",
        one.to_markdown()
    );
    for threads in [2, 0] {
        let report = SweepEngine::new(threads).run(&m).0;
        assert_eq!(
            one.to_json(),
            report.to_json(),
            "chaos JSON drifted at {threads} workers"
        );
        assert_eq!(
            one.to_markdown(),
            report.to_markdown(),
            "chaos Markdown drifted at {threads} workers"
        );
    }
}

/// The suite is not vacuously clean: the loss and duplication schedules
/// really do drop and duplicate (the counters are visible in the cell
/// stats), and only chaos schedules ever touch those counters.
#[test]
fn chaos_counters_fire_exactly_where_declared() {
    let mut m = suites::build("netchaos").expect("built-in suite");
    m.seeds = 0..1;
    let report = SweepEngine::new(0).run(&m).0;
    let mut dropped = 0u64;
    let mut duplicated = 0u64;
    for cell in &report.cells {
        if let Outcome::Run(r) = &cell.outcome {
            dropped += r.stats.dropped;
            duplicated += r.stats.duplicated;
        }
    }
    assert!(dropped > 0, "no chaos cell dropped anything");
    assert!(duplicated > 0, "no chaos cell duplicated anything");

    // The legacy schedules never touch the counters — that is what keeps
    // their committed fingerprints byte-stable.
    let mut legacy = suites::build("netchaos").expect("built-in suite");
    legacy.name = "netchaos-legacy-control".into();
    legacy.schedules = ScheduleSpec::LEGACY.to_vec();
    legacy.seeds = 0..1;
    let control = SweepEngine::new(0).run(&legacy).0;
    for cell in &control.cells {
        if let Outcome::Run(r) = &cell.outcome {
            assert_eq!(r.stats.dropped, 0, "{}: legacy schedule dropped", cell.key);
            assert_eq!(
                r.stats.duplicated, 0,
                "{}: legacy schedule duplicated",
                cell.key
            );
        }
    }
}

/// Chaos cell records round-trip through the partial-report wire format:
/// the dropped/duplicated counters survive a serialize → parse cycle
/// (they are emitted only when nonzero, so this is the path that proves
/// they are emitted at all).
#[test]
fn chaos_stats_round_trip_through_partial_reports() {
    use validity_lab::{merge, PartialReport, ShardSpec};

    let mut m = suites::build("netchaos").expect("built-in suite");
    m.seeds = 0..1;
    m.schedules = vec![
        ScheduleSpec::parse("lossy").unwrap(),
        ScheduleSpec::parse("dup-storm").unwrap(),
    ];
    // One shard of one owns every cell.
    let records = SweepEngine::new(0).run(&m).0.cells;
    let partial = PartialReport::new(m.clone(), ShardSpec { index: 1, count: 1 }, 0.0, records);
    let wire = partial.to_json();
    let parsed = PartialReport::parse(&wire).expect("partial round-trip");
    let (direct, _) = merge(&[partial]).expect("merge");
    let (via_wire, _) = merge(&[parsed]).expect("merge parsed");
    assert_eq!(direct.to_json(), via_wire.to_json());
    let chaotic = via_wire.cells.iter().any(|c| match &c.outcome {
        Outcome::Run(r) => r.stats.dropped > 0 || r.stats.duplicated > 0,
        _ => false,
    });
    assert!(chaotic, "counters lost on the wire");
}
