//! Trace-level verification of the merge arguments: the paper's
//! "process P cannot distinguish E from E′ until time τ" claims, checked
//! on actual recorded executions.

use std::sync::Arc;

use validity_adversary::{LeaderEcho, QuorumVote};
use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{NodeKind, PerLinkModel, SimBuilder, Time, Timeline};

/// Lemma 7's merge, observed through traces: in the merged execution the
/// isolated process Q sees exactly what it sees in total isolation (its
/// timer, nothing else) until it decides.
#[test]
fn merged_execution_is_indistinguishable_for_q() {
    let params = SystemParams::new(4, 1).unwrap();
    let q = ProcessId(2);

    // Run 1: a world where *every* link stalls — all processes are
    // isolated, so Q's view here is exactly β_Q (timer, then decide).
    let all_stalled = PerLinkModel::new("all-stalled", |_, _, _| Time::MAX / 8);
    let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..4)
        .map(|i| NodeKind::Correct(LeaderEcho::new(if i == q.index() { 1u64 } else { 0 })))
        .collect();
    let mut isolated = SimBuilder::new(params)
        .gst(100_000)
        .net(Arc::new(all_stalled))
        .seed(5)
        .build_with_probe(nodes, Timeline::new())
        .expect("valid configuration");
    isolated.run_until_decided();

    // Run 2: everyone correct, but Q's links stalled past its decision.
    let stall_q = PerLinkModel::new("stall-q", move |from, to, _| {
        if from == q || to == q {
            Time::MAX / 8
        } else {
            1
        }
    });
    let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..4)
        .map(|i| NodeKind::Correct(LeaderEcho::new(if i == q.index() { 1u64 } else { 0 })))
        .collect();
    let mut merged = SimBuilder::new(params)
        .gst(100_000)
        .net(Arc::new(stall_q))
        .seed(5)
        .build_with_probe(nodes, Timeline::new())
        .expect("valid configuration");
    merged.run_until_decided();

    // Q's observable content is identical in both worlds up to and
    // including its decision.
    let ti = isolated.probe();
    let tm = merged.probe();
    let q_events = ti.view_of(q).len();
    assert!(
        ti.indistinguishable_for(tm, q, q_events),
        "Q distinguished the merge:\nisolated:\n{ti}\nmerged:\n{tm}"
    );
    // And the disagreement is on record:
    let (_, dq) = tm.decision_of(q).unwrap();
    let (_, dother) = tm.decision_of(ProcessId(0)).unwrap();
    assert_ne!(dq, dother, "the merge must split LeaderEcho");
}

/// Lemma 2's partition, observed through traces: group A's view of the
/// two-faced adversary is identical whether the adversary is two-faced or
/// honestly running A's protocol — that is *why* A cannot refuse to decide.
#[test]
fn partitioned_group_cannot_detect_the_two_faced_adversary() {
    let params = SystemParams::new(6, 2).unwrap();
    let group_a: ProcessSet = [0usize, 1].into_iter().collect();
    let group_c: ProcessSet = [4usize, 5].into_iter().collect();

    let stall_cross = |ga: ProcessSet, gc: ProcessSet| {
        PerLinkModel::new("stall-cross", move |from, to, _| {
            let cross =
                (ga.contains(from) && gc.contains(to)) || (gc.contains(from) && ga.contains(to));
            if cross {
                Time::MAX / 8
            } else {
                1
            }
        })
    };

    // World 1: B runs the two-faced adversary (votes 0 to A, 1 to C).
    let mk_world = |two_faced: bool, seed: u64| {
        let nodes: Vec<NodeKind<QuorumVote<u64>>> = (0..6)
            .map(|i| {
                let pid = ProcessId::from_index(i);
                if group_a.contains(pid) {
                    NodeKind::Correct(QuorumVote::new(0u64))
                } else if group_c.contains(pid) {
                    NodeKind::Correct(QuorumVote::new(1u64))
                } else if two_faced {
                    NodeKind::Byzantine(Box::new(validity_adversary::TwoFaced::new(
                        QuorumVote::new(0u64),
                        group_a.union([2usize, 3].into_iter().collect()),
                        QuorumVote::new(1u64),
                        group_c.union([2usize, 3].into_iter().collect()),
                    )))
                } else {
                    // honest-to-A world: B really runs A's protocol
                    NodeKind::Correct(QuorumVote::new(0u64))
                }
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .gst(100_000)
            .net(Arc::new(stall_cross(group_a, group_c)))
            .seed(seed)
            .build_with_probe(nodes, Timeline::new())
            .expect("valid configuration");
        sim.run_until_decided();
        sim
    };

    let attacked = mk_world(true, 9);
    let honest = mk_world(false, 9);

    // Group A decides 0 in both worlds; the traces agree on A's first
    // events (same votes from the same senders — the adversary's A-face is
    // a perfect impostor). Message *order* can differ within a delivery
    // round, so compare decisions, which is what the argument needs.
    for p in group_a.iter() {
        let (_, da) = attacked.probe().decision_of(p).unwrap();
        let (_, dh) = honest.probe().decision_of(p).unwrap();
        assert_eq!(da, dh, "{p} behaved differently under the impostor");
        assert_eq!(da, "0");
    }
    // ...while in the attacked world C went the other way: disagreement.
    let (_, dc) = attacked.probe().decision_of(ProcessId(4)).unwrap();
    assert_eq!(dc, "1");
}
