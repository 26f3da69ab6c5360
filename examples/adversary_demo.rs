//! Watch the paper's impossibility arguments run: the Dolev–Reischuk merge
//! (Theorem 4) breaking a sub-quadratic protocol, and the partition attack
//! (Theorem 1) breaking a quorum protocol below the n > 3t threshold.
//!
//! ```sh
//! cargo run --example adversary_demo
//! ```

use consensus_validity::adversary::{partition_layout, LeaderEcho, QuorumVote};
use consensus_validity::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // === Act 1: Theorem 4 — cheap protocols die by merge. ===
    println!("Act 1 — the Dolev–Reischuk merge (Theorem 4)\n");
    println!("victim: LeaderEcho, an O(n) 'consensus' (leader broadcasts, others echo)");
    let params = SystemParams::new(10, 3)?;
    // Face 0 proposes 1 (E_base, and Q in isolation), face 1 proposes 0.
    let exhibit = break_subquadratic(params, 100, 2023, |_, face| LeaderEcho::new(1 - face))?;
    let (q, other) = (&exhibit.one, &exhibit.other);
    println!(
        "  step 1: E_base starves {} of messages (pigeonhole over ≤ (⌈t/2⌉)² sends)",
        q.p
    );
    println!(
        "  step 2: β_Q — in isolation {} still decides {} at time {} (Termination!)",
        q.p, q.value, q.at
    );
    println!(
        "  step 3: E_v — with {} silent, the rest decide {} by time {}",
        q.p, other.value, other.at
    );
    println!(
        "  step 4: merged execution — {} decides {} while others decide {}: AGREEMENT VIOLATED \
         (with {} faulty processes!)",
        q.p, q.value, other.value, exhibit.faulty
    );
    println!("  conclusion: any correct non-trivial consensus sends > (⌈t/2⌉)² messages\n");

    // === Act 2: Theorem 1 — below n = 3t + 1, quorums can be split. ===
    println!("Act 2 — the partition attack (Theorem 1, Figure 2's n = 6, t = 2)\n");
    println!("victim: QuorumVote, decide on n − t matching votes");
    let low = SystemParams::new(6, 2)?;
    let layout = partition_layout(low);
    let split = break_partition(low, 100, 2023, |_, face| QuorumVote::new(face))?;
    println!(
        "  groups: A = {} | two-faced B = {} | C = {}",
        layout.group_a, layout.group_b, layout.group_c
    );
    println!("  B votes 0 towards A and 1 towards C; the A↔C links stall until both decide");
    println!(
        "  result: A decides {}, C decides {} — split with only {} ≤ t faulty",
        split.one.value, split.other.value, split.faulty
    );
    println!("  conclusion: with n ≤ 3t, only trivial validity properties survive\n");

    // === Act 3: the real thing survives both. ===
    println!("Act 3 — Universal under the same E_base adversary\n");
    let params = SystemParams::new(7, 2)?;
    let keystore = KeyStore::new(params.n(), 5);
    let scheme = ThresholdScheme::new(keystore.clone(), params.quorum());
    let report = run_e_base(params, 100, 5, |p| {
        Universal::new(
            VectorAuth::new(
                p.index() as u64,
                keystore.clone(),
                keystore.signer(p),
                scheme.clone(),
                params,
            ),
            StrongLambda,
        )
    });
    println!(
        "  Universal decided under attack, sending {} messages — {}× the (⌈t/2⌉)² = {} floor",
        report.messages_after_gst,
        report.messages_after_gst / report.bound.max(1),
        report.bound
    );
    assert!(report.decided && report.exceeds_bound);
    println!("\nadversary_demo OK");
    Ok(())
}
