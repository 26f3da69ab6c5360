//! The executable partition argument of Theorem 1: with `n ≤ 3t`, any
//! algorithm attempting a non-trivial validity property can be split into
//! disagreement, because two `n − t` quorums need not share a correct
//! process.
//!
//! [`break_partition`] stages the Lemma 2 merge for any machine factory:
//! groups `A` and `C` are honest with different proposals, the `≤ t`
//! processes in between run the [`crate::behaviors::TwoFaced`] adversary,
//! and the `A ↔ C` links stall until GST. `A` can reach its quorum inside
//! `A ∪ B`, `C` inside `C ∪ B` — with contradictory values.

use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{Machine, NodeKind, Time};

use crate::behaviors::TwoFaced;
use crate::proof::{execution, first_decider, Disagreement, Refusal};

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

/// Stages the Lemma 2 merge against the machines `mk` builds and returns
/// the disagreement between `A` and `C`.
///
/// `mk(p, face)` builds process `p` with its regular input for `face = 0`
/// (group `A`, and `B`'s face towards it) and with the conflicting input
/// for `face = 1` (group `C`, and `B`'s face towards it). GST is `200 δ`.
///
/// # Errors
///
/// [`Refusal::NoSplit`] when `A` and `C` do not both decide, or decide
/// alike.
///
/// # Panics
///
/// Panics unless `n ≤ 3t` (see [`partition_layout`]).
pub fn break_partition<M>(
    params: SystemParams,
    delta: Time,
    seed: u64,
    mk: impl Fn(ProcessId, u64) -> M,
) -> Result<Disagreement<M::Output>, Refusal>
where
    M: Machine + 'static,
    M::Output: PartialEq,
{
    let layout = partition_layout(params);
    let (ga, gb, gc) = (layout.group_a, layout.group_b, layout.group_c);
    // B's 0-face talks to A ∪ B (its votes complete A's quorum), the
    // 1-face to C ∪ B.
    let nodes: Vec<NodeKind<M>> = (0..params.n())
        .map(|i| {
            let p = ProcessId::from_index(i);
            if ga.contains(p) {
                NodeKind::Correct(mk(p, 0))
            } else if gc.contains(p) {
                NodeKind::Correct(mk(p, 1))
            } else {
                NodeKind::Byzantine(Box::new(TwoFaced::new(
                    mk(p, 0),
                    ga.union(gb),
                    mk(p, 1),
                    gc.union(gb),
                )))
            }
        })
        .collect();
    // Stall A ↔ C until GST (step 3 of Lemma 2).
    let cross = move |from, to| {
        (ga.contains(from) && gc.contains(to)) || (gc.contains(from) && ga.contains(to))
    };
    let mut sim = execution(params, delta, seed, 200 * delta, Time::MAX, cross, nodes);
    let outcome = sim.run_until_decided();
    match (
        first_decider(&sim, ga.iter()),
        first_decider(&sim, gc.iter()),
    ) {
        (Some(one), Some(other)) if one.value != other.value => Ok(Disagreement {
            one,
            other,
            faulty: gb.len(),
        }),
        _ => Err(Refusal::NoSplit {
            run: "the partition",
            outcome,
        }),
    }
}

#[cfg(test)]
mod tests {
    use validity_simnet::RunOutcome;

    use super::*;
    use crate::strawman::QuorumVote;

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

    fn split(n: usize, t: usize, seed: u64) -> Disagreement<u64> {
        let params = SystemParams::new(n, t).unwrap();
        break_partition(params, 100, seed, |_, face| QuorumVote::new(face))
            .unwrap_or_else(|r| panic!("(n, t) = ({n}, {t}): {r}"))
    }

    #[test]
    fn splits_quorum_vote_at_figure_2_parameters() {
        let ex = split(6, 2, 1);
        assert_eq!(ex.one.value, 0);
        assert_eq!(ex.other.value, 1);
        assert_eq!(ex.faulty, 2); // ≤ t = 2
    }

    #[test]
    fn splits_quorum_vote_at_minimal_parameters() {
        let ex = split(3, 1, 2);
        assert_ne!(ex.one.value, ex.other.value);
        assert!(ex.faulty <= 1);
    }

    #[test]
    fn splits_quorum_vote_across_the_regime() {
        for (n, t) in [(4usize, 2usize), (5, 2), (9, 3)] {
            let ex = split(n, t, 3);
            assert_eq!(
                (ex.one.value, ex.other.value),
                (0, 1),
                "(n, t) = ({n}, {t})"
            );
            assert!(ex.faulty <= t);
        }
    }

    #[test]
    fn a_run_that_agrees_is_refused() {
        // Every process proposes 0 on both faces: A and C decide alike.
        let params = SystemParams::new(6, 2).unwrap();
        let refusal = break_partition(params, 100, 1, |_, _| QuorumVote::new(0u64)).unwrap_err();
        assert_eq!(
            refusal,
            Refusal::NoSplit {
                run: "the partition",
                outcome: RunOutcome::AllDecided
            }
        );
    }
}
