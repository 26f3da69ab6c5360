//! The adaptive adversary's window into a run: [`ObservedState`].
//!
//! The paper's adversary is *adaptive* — it chooses its next corruption
//! from the execution so far, not from a script fixed in advance. The
//! oblivious behaviours (silent, crash, two-faced over static groups)
//! never needed to see protocol state, but adaptive ones do, so the
//! simulator maintains a read-only [`ObservedState`] view and hands a
//! fresh snapshot to every Byzantine behaviour that declares
//! [`Byzantine::observes`](crate::Byzantine::observes).
//!
//! The view follows the [`Probe`](crate::Probe) discipline: it observes
//! and never perturbs. Maintenance is gated on whether *any* node in the
//! run observes — when none does (every pre-existing suite), the
//! bookkeeping reduces to one branch per site and the seeded execution is
//! byte-identical to the pre-observation engine, which is what keeps every
//! committed golden fingerprint valid. Feeding the view draws **no**
//! randomness and pushes **no** events: the two-draw RNG invariant
//! (`Simulation::arrival_plan`) and the event order are untouched, so an
//! adaptive behaviour is exactly as replayable as an oblivious one.

use validity_core::{ProcessId, MAX_PROCESSES};

/// A read-only snapshot of per-node execution state, as exposed by the
/// simulator to adaptive Byzantine behaviours.
///
/// The view deliberately contains only what a strong network adversary
/// could see from the wire and the processes it controls: which nodes have
/// decided, how many deliveries each node has consumed, and how many
/// deliveries are currently queued toward each node. It does **not**
/// expose GST (processes and behaviours alike do not know it, §3.1),
/// message payloads, or private machine state.
#[derive(Clone, Debug, Default)]
pub struct ObservedState {
    /// Whether any behaviour in the run asked for observation; when
    /// false every mutator is a no-op and the vectors stay empty.
    tracking: bool,
    /// Per-node decided flags (Byzantine slots never decide).
    decided: Vec<bool>,
    /// Per-node count of delivery events dispatched so far.
    delivered: Vec<u64>,
    /// Per-node count of deliveries currently sitting in the event queue.
    inbox: Vec<u32>,
}

impl ObservedState {
    /// A disabled view (the default for runs without adaptive behaviours):
    /// every mutator is a no-op, every accessor sees an empty system.
    pub(crate) fn disabled() -> ObservedState {
        ObservedState::default()
    }

    /// An enabled view over `n` nodes.
    ///
    /// The simulator builds this when a run contains an observing
    /// behaviour; behaviour unit tests may also build one and drive the
    /// `note_*` mutators to stage a synthetic snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_PROCESSES`].
    pub fn tracking(n: usize) -> ObservedState {
        assert!(n <= MAX_PROCESSES, "{n} nodes exceed MAX_PROCESSES");
        ObservedState {
            tracking: true,
            decided: vec![false; n],
            delivered: vec![0; n],
            inbox: vec![0; n],
        }
    }

    /// Whether the simulator maintains (and delivers) this view.
    #[inline]
    pub(crate) fn is_tracking(&self) -> bool {
        self.tracking
    }

    /// Marks node `p` decided. Maintained by the simulator; public only so
    /// behaviour tests can stage snapshots.
    #[inline]
    pub fn note_decided(&mut self, p: ProcessId) {
        if self.tracking {
            self.decided[p.index()] = true;
        }
    }

    /// Counts one delivery enqueued toward `to`. Maintained by the
    /// simulator; public only so behaviour tests can stage snapshots.
    #[inline]
    pub fn note_enqueued(&mut self, to: ProcessId) {
        if self.tracking {
            self.inbox[to.index()] += 1;
        }
    }

    /// Counts one queued delivery toward `to` leaving the queue (consumed
    /// or skipped). Maintained by the simulator; public only so behaviour
    /// tests can stage snapshots.
    #[inline]
    pub fn note_dispatched(&mut self, to: ProcessId) {
        if self.tracking {
            self.inbox[to.index()] -= 1;
            self.delivered[to.index()] += 1;
        }
    }

    /// Number of nodes in the observed system (0 when disabled).
    pub fn n(&self) -> usize {
        self.decided.len()
    }

    /// Whether node `p` has decided.
    pub fn decided(&self, p: ProcessId) -> bool {
        self.decided.get(p.index()).copied().unwrap_or(false)
    }

    /// Whether any node has decided.
    pub fn any_decided(&self) -> bool {
        self.decided.iter().any(|&d| d)
    }

    /// Delivery events node `p` has consumed so far.
    pub fn delivered(&self, p: ProcessId) -> u64 {
        self.delivered.get(p.index()).copied().unwrap_or(0)
    }

    /// Deliveries currently queued toward node `p`.
    pub fn inbox_depth(&self, p: ProcessId) -> u32 {
        self.inbox.get(p.index()).copied().unwrap_or(0)
    }

    /// The undecided node (other than `exclude`) that has consumed the
    /// most deliveries — the observable proxy for "closest to deciding".
    /// Ties break toward the lowest id, so the choice is deterministic.
    /// `None` when every other node has decided (or the view is disabled).
    pub fn frontrunner(&self, exclude: ProcessId) -> Option<ProcessId> {
        self.decided
            .iter()
            .enumerate()
            .filter(|&(i, &d)| !d && i != exclude.index())
            .max_by(|&(i, _), &(j, _)| self.delivered[i].cmp(&self.delivered[j]).then(j.cmp(&i)))
            .map(|(i, _)| ProcessId::from_index(i))
    }

    /// The node (other than `exclude`) with the deepest pending inbox.
    /// Ties break toward the lowest id. `None` only when the view is
    /// disabled or the system has no other node.
    pub fn deepest_inbox(&self, exclude: ProcessId) -> Option<ProcessId> {
        self.inbox
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != exclude.index())
            .max_by(|&(i, &a), &(j, &b)| a.cmp(&b).then(j.cmp(&i)))
            .map(|(i, _)| ProcessId::from_index(i))
    }

    /// The median per-node delivered count — the split point adaptive
    /// partitioners use to separate "ahead" from "behind" nodes. The upper
    /// median `sorted[n / 2]`, selected in a stack copy: the adaptive
    /// hooks call this on every observation, so it allocates nothing.
    pub fn median_delivered(&self) -> u64 {
        let n = self.delivered.len();
        if n == 0 {
            return 0;
        }
        let mut copy = [0u64; MAX_PROCESSES];
        let copy = &mut copy[..n];
        copy.copy_from_slice(&self.delivered);
        *copy.select_nth_unstable(n / 2).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_view_is_inert() {
        let mut v = ObservedState::disabled();
        assert!(!v.is_tracking());
        v.note_enqueued(ProcessId(0));
        v.note_decided(ProcessId(1));
        assert_eq!(v.n(), 0);
        assert!(!v.any_decided());
        assert_eq!(v.frontrunner(ProcessId(0)), None);
        assert_eq!(v.deepest_inbox(ProcessId(0)), None);
        assert_eq!(v.median_delivered(), 0);
    }

    #[test]
    fn median_delivered_is_the_upper_median_of_the_sorted_counts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let n = rng.gen_range(1..=MAX_PROCESSES);
            // Few distinct counts, so ties are the rule.
            let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..6)).collect();
            let mut v = ObservedState::tracking(n);
            for (i, &c) in counts.iter().enumerate() {
                for _ in 0..c {
                    v.note_enqueued(ProcessId::from_index(i));
                    v.note_dispatched(ProcessId::from_index(i));
                }
            }
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            assert_eq!(v.median_delivered(), sorted[n / 2], "counts {counts:?}");
        }
    }

    #[test]
    fn frontrunner_prefers_most_delivered_undecided_node() {
        let mut v = ObservedState::tracking(4);
        for _ in 0..3 {
            v.note_enqueued(ProcessId(1));
            v.note_dispatched(ProcessId(1));
        }
        v.note_enqueued(ProcessId(2));
        v.note_dispatched(ProcessId(2));
        assert_eq!(v.frontrunner(ProcessId(3)), Some(ProcessId(1)));
        // The observer itself is excluded...
        assert_eq!(v.frontrunner(ProcessId(1)), Some(ProcessId(2)));
        // ...and decided nodes drop out of the race.
        v.note_decided(ProcessId(1));
        assert!(v.any_decided());
        assert_eq!(v.frontrunner(ProcessId(3)), Some(ProcessId(2)));
    }

    #[test]
    fn frontrunner_and_inbox_tie_break_toward_lowest_id() {
        let v = ObservedState::tracking(4);
        assert_eq!(v.frontrunner(ProcessId(0)), Some(ProcessId(1)));
        assert_eq!(v.deepest_inbox(ProcessId(0)), Some(ProcessId(1)));
        let mut v = ObservedState::tracking(4);
        v.note_enqueued(ProcessId(2));
        v.note_enqueued(ProcessId(3));
        assert_eq!(v.deepest_inbox(ProcessId(0)), Some(ProcessId(2)));
        assert_eq!(v.inbox_depth(ProcessId(2)), 1);
        v.note_dispatched(ProcessId(2));
        assert_eq!(v.inbox_depth(ProcessId(2)), 0);
        assert_eq!(v.delivered(ProcessId(2)), 1);
        assert_eq!(v.deepest_inbox(ProcessId(0)), Some(ProcessId(3)));
    }

    #[test]
    fn median_splits_the_delivered_distribution() {
        let mut v = ObservedState::tracking(4);
        for (i, count) in [0u64, 1, 5, 9].into_iter().enumerate() {
            for _ in 0..count {
                v.note_enqueued(ProcessId::from_index(i));
                v.note_dispatched(ProcessId::from_index(i));
            }
        }
        assert_eq!(v.median_delivered(), 5);
    }
}
