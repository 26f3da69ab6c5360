//! **Theorem 4** — every non-trivial (and solvable) validity property costs
//! Ω(t²) messages.
//!
//! Part 1 breaks the sub-quadratic `LeaderEcho` strawman with the full
//! Dolev–Reischuk construction (Lemmas 5–7): pigeonhole a starved process
//! `Q`, extract its no-message behaviour `β_Q`, find `E_v` deciding another
//! value, merge, and exhibit the Agreement violation.
//!
//! Part 2 measures `Universal` (over Algorithm 1, Strong-Validity Λ) in the
//! theorem's adversarial execution `E_base` across a `t` sweep: the
//! messages sent by correct processes must stay above the `(⌈t/2⌉)²` floor
//! — and they do, by a wide quadratic margin.

use validity_adversary::break_leader_echo;
use validity_bench::{runs::universal_e_base, Table};
use validity_core::{LambdaFn, StrongLambda, SystemParams};
use validity_lab::fit::fit_exponent;

fn main() {
    println!("=== Theorem 4: the Ω(t²) message floor ===\n");

    // --- Part 1: the strawman is broken by the merge construction.
    println!("Part 1 — Dolev–Reischuk merge vs. the O(n) LeaderEcho strawman\n");
    let mut table = Table::new(vec![
        "n",
        "t",
        "Q (starved)",
        "β_Q decides",
        "E_v decides",
        "merged verdict",
    ]);
    for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (13, 4)] {
        let params = SystemParams::new(n, t).unwrap();
        let ex = break_leader_echo(params, 100, 11);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            ex.q.to_string(),
            format!("{} at time {}", ex.v_q, ex.t_q),
            format!("{} at time {}", ex.v_other, ex.t_v),
            format!("AGREEMENT VIOLATED ({} faulty)", ex.faulty_in_merge),
        ]);
    }
    table.print();
    println!("✔ A sub-quadratic protocol cannot survive the Lemma 5–7 construction\n");

    // --- Part 2: Universal stays above the floor, quadratically.
    println!("Part 2 — Universal (Alg. 1 + Λ_Strong) under the E_base adversary\n");
    let mut table = Table::new(vec![
        "n",
        "t",
        "floor (⌈t/2⌉)²",
        "msgs by correct [GST,∞)",
        "margin",
        "Q received",
    ]);
    let mut points = Vec::new();
    for t in [1usize, 2, 3, 4, 5, 6, 8, 10] {
        let n = 3 * t + 1;
        let params = SystemParams::new(n, t).unwrap();
        let inputs: Vec<u64> = (0..n as u64).collect();
        let mk = || Box::new(StrongLambda) as Box<dyn LambdaFn<u64, u64>>;
        let report = universal_e_base(params, &inputs, mk, 17);
        assert!(report.decided, "Universal must terminate in E_base");
        assert!(
            report.exceeds_bound,
            "Universal fell below the Dolev-Reischuk floor at t = {t}: {report:?}"
        );
        points.push((t as f64, report.messages_after_gst as f64));
        table.row(vec![
            n.to_string(),
            t.to_string(),
            report.bound.to_string(),
            report.messages_after_gst.to_string(),
            format!(
                "{:.1}×",
                report.messages_after_gst as f64 / report.bound.max(1) as f64
            ),
            format!(
                "{} msgs (pigeonhole witness {})",
                report.q_received, report.q
            ),
        ]);
    }
    table.print();
    let fit = fit_exponent(&points);
    println!(
        "fitted messages ≈ {:.2} · t^{:.2}  (R² = {:.3})",
        fit.constant, fit.exponent, fit.r_squared
    );
    assert!(
        fit.exponent > 1.45,
        "measured growth should be (at least) quadratic in t"
    );
    println!(
        "\n✔ Ω(t²) floor respected at every t; measured growth exponent {:.2} ≈ 2",
        fit.exponent
    );
    println!("  (Lemma 5's pigeonhole: with ≤ (⌈t/2⌉)² messages, some Q ∈ B would receive");
    println!("   ≤ ⌈t/2⌉ messages and the merge of Part 1 would apply to *any* protocol.)");
}
