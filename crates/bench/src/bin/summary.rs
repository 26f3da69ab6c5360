//! **§1 headline** — "with t ∈ Ω(n), the message complexity of all
//! (non-trivial) consensus variants is Θ(n²)": the upper/lower sandwich.
//!
//! For each n, prints the lower-bound floor (Theorem 4), the measured cost
//! of Universal (Theorem 5), and their ratio — the Θ(n²) sandwich that the
//! two theorems close together. Also re-runs the same `Universal` machine
//! for three different validity properties at a fixed n to make the
//! "*one algorithm, every solvable property*" point tangible.

use validity_adversary::half_t;
use validity_bench::{runs, Table};
use validity_core::{
    ConvexHullLambda, CorrectProposalLambda, LambdaFn, RankLambda, StrongLambda, SystemParams,
    WeakLambda,
};

fn main() {
    println!("=== Θ(n²): the paper's headline sandwich ===\n");

    let mut table = Table::new(vec![
        "n",
        "t",
        "lower bound (⌈t/2⌉)²",
        "Universal msgs [GST,∞)",
        "msgs/n²",
        "within",
    ]);
    for &n in &[4usize, 7, 10, 13, 16, 19, 25] {
        let params = SystemParams::optimal_resilience(n).unwrap();
        let t = params.t();
        let inputs: Vec<u64> = (0..n as u64).collect();
        let stats = runs::run(
            "alg1-auth",
            Some(&|| Box::new(StrongLambda)),
            params,
            0,
            &inputs,
            55,
            true,
        );
        assert!(stats.decided && stats.agreement);
        let floor = (half_t(t) as u64).pow(2);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            floor.to_string(),
            stats.messages_after_gst.to_string(),
            format!("{:.1}", stats.messages_after_gst as f64 / (n * n) as f64),
            format!(
                "{:.0}× the floor",
                stats.messages_after_gst as f64 / floor.max(1) as f64
            ),
        ]);
    }
    table.print();
    println!("msgs/n² stays bounded while the floor grows as t² ∈ Ω(n²): the sandwich closes.\n");

    println!("--- one machine, every solvable validity property (n = 10, t = 3) ---\n");
    let params = SystemParams::optimal_resilience(10).unwrap();
    let mut table = Table::new(vec!["Λ plugged into Universal", "decision", "msgs"]);
    type BoxedLambdaFactory = Box<dyn Fn() -> Box<dyn LambdaFn<u64, u64>>>;
    let lambdas: Vec<(&str, BoxedLambdaFactory)> = vec![
        ("Λ(Strong Validity)", Box::new(|| Box::new(StrongLambda))),
        ("Λ(Weak Validity)", Box::new(|| Box::new(WeakLambda))),
        (
            "Λ(Median Validity, slack t)",
            Box::new(|| Box::new(RankLambda::median(3, 0u64, u64::MAX))),
        ),
        (
            "Λ(Convex-Hull Validity)",
            Box::new(|| Box::new(ConvexHullLambda)),
        ),
        (
            "Λ(Correct-Proposal, binary)",
            Box::new(|| Box::new(CorrectProposalLambda)),
        ),
    ];
    for (name, mk) in lambdas {
        let inputs: Vec<u64> = (0..10u64)
            .map(|i| if name.contains("binary") { i % 2 } else { i })
            .collect();
        let stats = runs::run("alg1-auth", Some(&*mk), params, 3, &inputs, 56, true);
        assert!(stats.decided && stats.agreement, "{name} failed");
        table.row(vec![
            name.to_string(),
            stats.decision.clone(),
            stats.messages_after_gst.to_string(),
        ]);
    }
    table.print();
    println!("\n✔ Vector Validity is a *strongest* validity property: one vector-consensus");
    println!("  decision feeds every Λ — solving any solvable non-trivial variant at no");
    println!("  extra cost (§5.2.2).");
}
