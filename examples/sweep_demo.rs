//! Sweep-engine demo: build a custom scenario matrix, fan it out across a
//! worker pool, and read the aggregated report.
//!
//! Run with `cargo run --release --example sweep_demo`.

use consensus_validity::adversary::BehaviorId;
use consensus_validity::lab::{
    suites, ProtocolAxis, ScenarioMatrix, ScheduleSpec, SweepEngine, ValiditySpec,
};
use consensus_validity::protocols::find_vector;

fn main() {
    // 1. A custom matrix: two protocol modes × two validity properties ×
    //    two adversaries × two schedules × two system sizes × four seeds.
    let mut matrix = ScenarioMatrix::new("sweep-demo");
    matrix.protocols = vec![
        ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::raw(find_vector("alg6-fast").unwrap()),
    ];
    matrix.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
    matrix.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    matrix.faults = vec![usize::MAX]; // "as many Byzantine slots as t allows"
    matrix.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    matrix.systems = vec![(4, 1), (7, 2)];
    matrix.seeds = 0..4;

    println!("matrix '{}' enumerates {} cells", matrix.name, matrix.len());

    // 2. Execute on a worker pool (0 = one worker per core). Identical
    //    reports come back no matter how many workers run.
    let engine = SweepEngine::new(0);
    let (report, _) = engine.run(&matrix);
    println!(
        "executed on {} worker(s); {} violations\n",
        engine.threads(),
        report.violations()
    );

    // 3. Aggregates: one row per configuration, folded over seeds.
    for group in &report.groups {
        println!(
            "{:58} runs={} msgs/GST mean={} latency mean={}",
            group.key,
            group.runs,
            group.messages_after_gst.mean(),
            group.latency.mean(),
        );
    }

    // 4. Built-in suites do the same at paper scale.
    let fig1 = suites::build("fig1").expect("built-in suite");
    println!(
        "\nsuite 'fig1' would sweep {} cells — run it with: lab run --suite fig1",
        fig1.len()
    );

    assert_eq!(report.violations(), 0);
    println!("\nsweep_demo OK");
}
