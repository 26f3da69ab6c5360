//! The `netchaos` gate: pre-GST network faults — loss, duplication,
//! partitions, crash-recovery churn, and their composition — may slow
//! decisions down but must never flip safety, and the chaos sweep must
//! stay as replay-stable as every other lab artifact.

use std::sync::OnceLock;

use validity_lab::{
    suites, Outcome, ProtocolAxis, ScenarioMatrix, ScheduleSpec, SweepEngine, SweepReport,
    ValiditySpec,
};
use validity_protocols::find_vector;

/// The whole suite, run once for the binary: every test that reads the
/// grown grid reads this report.
fn netchaos() -> &'static SweepReport {
    static REPORT: OnceLock<SweepReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let m = suites::build("netchaos").expect("built-in suite");
        SweepEngine::new(0).run(&m).0
    })
}

/// The suite cut down to its Algorithm 1 columns at full load under
/// Strong Validity: the axes the suite swept before it took in every
/// engine, both properties and the fault-free load.
fn alg1_axes() -> ScenarioMatrix {
    let mut m = suites::build("netchaos").expect("built-in suite");
    let alg1 = find_vector("alg1-auth").unwrap();
    m.protocols = vec![ProtocolAxis::raw(alg1), ProtocolAxis::wrapped(alg1)];
    m.validities = vec![ValiditySpec::Strong];
    m.faults = vec![usize::MAX];
    m
}

/// Every chaos schedule across every engine, both properties and every
/// behaviour: zero violations (Agreement, admissibility, liveness within
/// the budget), and the Algorithm 1 cells render the same bytes at 1, 2
/// and the default number of workers. The default-worker run is the
/// suite's own, so there every Algorithm 1 cell and group line must
/// appear in it verbatim (CI compares the whole suite in release).
#[test]
fn netchaos_is_safe_and_byte_identical_across_thread_counts() {
    let report = netchaos();
    assert_eq!(
        report.violations(),
        0,
        "a chaos schedule flipped safety or stalled liveness:\n{}",
        report.to_markdown()
    );
    let m = alg1_axes();
    let one = SweepEngine::new(1).run(&m).0;
    let two = SweepEngine::new(2).run(&m).0;
    assert_eq!(
        one.to_json(),
        two.to_json(),
        "chaos JSON drifted at 2 workers"
    );
    assert_eq!(
        one.to_markdown(),
        two.to_markdown(),
        "chaos Markdown drifted at 2 workers"
    );
    // 120 groups (6 behaviours × 5 schedules × 2 sizes, raw and under
    // Strong) of 3 seeds: JSON keys every cell and group, Markdown every
    // group.
    for (alg1, suite, keyed) in [
        (one.to_json(), report.to_json(), 360 + 120),
        (one.to_markdown(), report.to_markdown(), 120),
    ] {
        let lines: Vec<&str> = alg1.lines().filter(|l| l.contains("run/")).collect();
        assert_eq!(lines.len(), keyed);
        for line in lines {
            let line = line.trim_end_matches(',');
            assert!(suite.contains(line), "drifted at default workers: {line}");
        }
    }
}

/// The suite is not vacuously clean: the loss and duplication schedules
/// really do drop and duplicate (the counters are visible in the cell
/// stats), and only chaos schedules ever touch those counters.
#[test]
fn chaos_counters_fire_exactly_where_declared() {
    let mut dropped = 0u64;
    let mut duplicated = 0u64;
    for cell in &netchaos().cells {
        if let Outcome::Run(r) = &cell.outcome {
            dropped += r.stats.dropped;
            duplicated += r.stats.duplicated;
        }
    }
    assert!(dropped > 0, "no chaos cell dropped anything");
    assert!(duplicated > 0, "no chaos cell duplicated anything");

    // The legacy schedules never touch the counters — that is what keeps
    // their committed fingerprints byte-stable.
    let mut legacy = alg1_axes();
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

    let mut m = alg1_axes();
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
