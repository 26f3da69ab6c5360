//! The executable partition argument of Theorem 1: with `n ≤ 3t`, any
//! algorithm attempting a non-trivial validity property can be split into
//! disagreement, because two `n − t` quorums need not share a correct
//! process.
//!
//! [`break_quorum_vote`] stages the Lemma 2 merge for the
//! [`crate::strawman::QuorumVote`] protocol: groups `A` and `C` are honest
//! with different proposals, the `≤ t` processes in between run the
//! [`crate::behaviors::TwoFaced`] adversary, and the `A ↔ C` links stall
//! until both sides have decided. `A` reaches its quorum inside `A ∪ B`,
//! `C` inside `C ∪ B` — with contradictory values.

use std::sync::Arc;

use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{NodeKind, PerLinkModel, SimBuilder, Time};

use crate::behaviors::TwoFaced;
use crate::strawman::QuorumVote;

/// The partition layout for a given `(n, t)` with `n ≤ 3t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionLayout {
    /// Honest group proposing the first value.
    pub group_a: ProcessSet,
    /// The two-faced Byzantine group (size `≥ n − 2t`, `≤ t`).
    pub group_b: ProcessSet,
    /// Honest group proposing the second value.
    pub group_c: ProcessSet,
}

/// Computes a partition `A | B | C` with `|A| + |B| ≥ n − t`,
/// `|C| + |B| ≥ n − t`, and `|B| ≤ t`.
///
/// # Panics
///
/// Panics unless `n ≤ 3t` (with `n > 3t` no such split exists — that is
/// precisely why the paper's positive results live there).
pub fn partition_layout(params: SystemParams) -> PartitionLayout {
    let (n, t) = (params.n(), params.t());
    assert!(
        n <= 3 * t,
        "partitioning requires n ≤ 3t; with n > 3t quorums intersect in a correct process"
    );
    let b = (n.saturating_sub(2 * t)).max(1);
    let a = (n - b).div_ceil(2);
    let c = n - b - a;
    assert!(a + b >= n - t && c + b >= n - t && b <= t && a > 0 && c > 0);
    PartitionLayout {
        group_a: (0..a).collect(),
        group_b: (a..a + b).collect(),
        group_c: (a + b..n).collect(),
    }
}

/// A successful partition attack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionExhibit {
    /// The layout used.
    pub layout: PartitionLayout,
    /// What group `A` decided.
    pub decision_a: u64,
    /// What group `C` decided.
    pub decision_c: u64,
    /// Number of faulty processes (`= |B| ≤ t`).
    pub faulty: usize,
}

/// Stages the Lemma 2 merge against [`QuorumVote`] and returns the
/// disagreement.
///
/// # Panics
///
/// Panics if no disagreement results (`n > 3t` layouts are rejected by
/// [`partition_layout`] already).
pub fn break_quorum_vote(params: SystemParams, delta: Time, seed: u64) -> PartitionExhibit {
    let layout = partition_layout(params);
    let (va, vc) = (0u64, 1u64);

    // B's a-face talks to A ∪ B (its votes complete A's quorum), the c-face
    // to C ∪ B.
    let a_side = layout.group_a.union(layout.group_b);
    let c_side = layout.group_c.union(layout.group_b);

    let nodes: Vec<NodeKind<QuorumVote<u64>>> = (0..params.n())
        .map(|i| {
            let pid = ProcessId::from_index(i);
            if layout.group_a.contains(pid) {
                NodeKind::Correct(QuorumVote::new(va))
            } else if layout.group_c.contains(pid) {
                NodeKind::Correct(QuorumVote::new(vc))
            } else {
                NodeKind::Byzantine(Box::new(TwoFaced::new(
                    QuorumVote::new(va),
                    a_side,
                    QuorumVote::new(vc),
                    c_side,
                )))
            }
        })
        .collect();

    // Stall A ↔ C until after both sides decide (step 3 of Lemma 2).
    let (ga, gc) = (layout.group_a, layout.group_c);
    let stall_cross = PerLinkModel::new("lemma2-partition", move |from, to, _at| {
        let cross =
            (ga.contains(from) && gc.contains(to)) || (gc.contains(from) && ga.contains(to));
        if cross {
            Time::MAX / 8
        } else {
            1
        }
    });
    let gst = 200 * delta; // far beyond the QuorumVote decision time
    let mut sim = SimBuilder::new(params)
        .gst(gst)
        .delta(delta)
        .net(Arc::new(stall_cross))
        .seed(seed)
        .build(nodes)
        .expect("the Lemma 2 layout: n nodes, |B| ≤ t faulty; needs δ ≥ 1");
    sim.run_until_decided();

    let pick = |group: ProcessSet| -> u64 {
        group
            .iter()
            .find_map(|p| sim.decisions()[p.index()].as_ref().map(|d| d.1))
            .expect("group members decide")
    };
    let decision_a = pick(layout.group_a);
    let decision_c = pick(layout.group_c);
    assert_ne!(
        decision_a, decision_c,
        "the partition must split QuorumVote at n ≤ 3t"
    );
    PartitionExhibit {
        layout,
        decision_a,
        decision_c,
        faulty: layout.group_b.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_for_figure_2_parameters() {
        // The paper's Figure 2 uses n = 6, t = 2.
        let params = SystemParams::new(6, 2).unwrap();
        let layout = partition_layout(params);
        assert_eq!(layout.group_a.len(), 2);
        assert_eq!(layout.group_b.len(), 2);
        assert_eq!(layout.group_c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "n ≤ 3t")]
    fn layout_rejects_high_resilience() {
        let params = SystemParams::new(7, 2).unwrap();
        let _ = partition_layout(params);
    }

    #[test]
    fn splits_quorum_vote_at_figure_2_parameters() {
        let params = SystemParams::new(6, 2).unwrap();
        let ex = break_quorum_vote(params, 100, 1);
        assert_eq!(ex.decision_a, 0);
        assert_eq!(ex.decision_c, 1);
        assert_eq!(ex.faulty, 2); // ≤ t = 2
    }

    #[test]
    fn splits_quorum_vote_at_minimal_parameters() {
        let params = SystemParams::new(3, 1).unwrap();
        let ex = break_quorum_vote(params, 100, 2);
        assert_ne!(ex.decision_a, ex.decision_c);
        assert!(ex.faulty <= 1);
    }

    #[test]
    fn splits_quorum_vote_across_the_regime() {
        for (n, t) in [(4usize, 2usize), (5, 2), (9, 3)] {
            let params = SystemParams::new(n, t).unwrap();
            let ex = break_quorum_vote(params, 100, 3);
            assert_ne!(ex.decision_a, ex.decision_c, "(n, t) = ({n}, {t})");
            assert!(ex.faulty <= t);
        }
    }
}
