//! The executable Dolev–Reischuk argument (Theorem 4): any consensus
//! algorithm with a non-trivial validity property sends more than
//! `(⌈t/2⌉)²` messages.
//!
//! Two harnesses:
//!
//! * [`run_e_base`] builds the theorem's execution `E_base` — synchronous
//!   from the start (GST = 0), a group `B` of `⌈t/2⌉` processes that behave
//!   correctly *except* they ignore the first `⌈t/2⌉` received messages and
//!   omit sends to `B` — runs the protocol under test, counts the messages
//!   sent by correct processes, and performs the pigeonhole step (Lemma 5):
//!   it reports the process `Q ∈ B` that received the fewest messages.
//!   For a correct protocol (e.g. `Universal`), the count must exceed the
//!   bound; the experiment suite sweeps `t` to show the Ω(t²) floor.
//!
//! * [`break_leader_echo`] carries the argument to its conclusion against a
//!   *sub-quadratic* strawman: it extracts `β_Q` (the decision Q reaches
//!   with no incoming messages — Lemma 5), finds an execution `E_v`
//!   deciding a different value with Q silent (Lemma 6), merges the two by
//!   delaying Q's links past both decision times (Lemma 7), and exhibits
//!   the resulting Agreement violation.

use std::sync::Arc;

use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{
    FilteredMachine, Machine, NodeKind, PerLinkModel, SimBuilder, SyncModel, Time,
};

use crate::isolation::run_isolated;
use crate::strawman::LeaderEcho;

/// Report of one `E_base` run.
#[derive(Clone, Debug)]
pub struct EBaseReport {
    /// System size.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// The faulty group `B` (size `⌈t/2⌉`).
    pub group_b: ProcessSet,
    /// Messages sent by correct processes in `[GST, ∞)` (GST = 0 here).
    pub messages_after_gst: u64,
    /// The Dolev–Reischuk floor `(⌈t/2⌉)²`.
    pub bound: u64,
    /// The pigeonhole witness: the member of `B` receiving fewest messages.
    pub q: ProcessId,
    /// How many messages `q` received.
    pub q_received: u64,
    /// Whether the protocol stayed above the floor (it must, if correct).
    pub exceeds_bound: bool,
    /// Whether all correct processes decided.
    pub decided: bool,
}

/// Half of `t`, rounded up (the paper's `⌈t/2⌉`).
pub fn half_t(t: usize) -> usize {
    t.div_ceil(2)
}

/// Builds and runs `E_base` for the protocol produced by `mk`.
///
/// `mk(p)` must yield the correct machine process `p` would run (inputs
/// included); group `B` (the last `⌈t/2⌉` processes) runs the same machine
/// wrapped in the theorem's filter.
pub fn run_e_base<M, F>(params: SystemParams, delta: Time, seed: u64, mk: F) -> EBaseReport
where
    M: Machine + 'static,
    F: Fn(ProcessId) -> M,
{
    let n = params.n();
    let t = params.t();
    let b_size = half_t(t);
    let group_b: ProcessSet = (n - b_size..n).collect();

    let nodes: Vec<NodeKind<M>> = (0..n)
        .map(|i| {
            let pid = ProcessId::from_index(i);
            if group_b.contains(pid) {
                // step 5 of E_base: behave correctly, but ignore the first
                // ⌈t/2⌉ messages and omit sends to other members of B.
                let others_in_b = group_b.iter().filter(|p| *p != pid);
                NodeKind::Byzantine(Box::new(
                    FilteredMachine::new(mk(pid))
                        .ignore_first(b_size)
                        .omit_to(others_in_b),
                ))
            } else {
                NodeKind::Correct(mk(pid))
            }
        })
        .collect();

    let mut sim = SimBuilder::new(params)
        .gst(0)
        .net(Arc::new(SyncModel))
        .delta(delta)
        .seed(seed)
        .build(nodes)
        .expect("E_base: n nodes, ⌈t/2⌉ ≤ t faulty; needs δ ≥ 1");
    sim.run_to_quiescence();

    let bound = (half_t(t) as u64).pow(2);
    let (q, q_received) = sim
        .stats()
        .min_receiver(group_b.iter())
        .expect("B is non-empty (t ≥ 1)");
    EBaseReport {
        n,
        t,
        group_b,
        messages_after_gst: sim.stats().messages_after_gst,
        bound,
        q,
        q_received,
        exceeds_bound: sim.stats().messages_after_gst > bound,
        decided: sim.all_correct_decided(),
    }
}

/// The complete disagreement exhibit produced by merging `β_Q` with `E_v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement<V> {
    /// The isolated process.
    pub q: ProcessId,
    /// What `Q` decides without receiving any message (`β_Q`, Lemma 5).
    pub v_q: V,
    /// When `Q` decides in isolation.
    pub t_q: Time,
    /// What the rest decide in `E_v` (Lemma 6).
    pub v_other: V,
    /// When the last of them decides.
    pub t_v: Time,
    /// Number of faulty processes in the merged execution (≤ t).
    pub faulty_in_merge: usize,
}

/// Runs the full Theorem 4 construction against [`LeaderEcho`], returning
/// the Agreement violation.
///
/// # Panics
///
/// Panics if the merge fails to produce a disagreement — which would mean
/// `LeaderEcho` somehow beat the lower bound.
pub fn break_leader_echo(params: SystemParams, delta: Time, seed: u64) -> Disagreement<u64> {
    let n = params.n();
    let _t = params.t();
    let v_star = 1u64; // the E_base proposal
    let w = 0u64; // the Lemma 6 alternative

    // --- Step 1 (Lemma 5 setup): E_base with all proposals v*.
    let report = run_e_base(params, delta, seed, |_p| LeaderEcho::new(v_star));
    assert!(
        !report.exceeds_bound || report.messages_after_gst <= (n as u64) * 2,
        "LeaderEcho is supposed to be sub-quadratic"
    );
    let q = report.q;
    assert!(q != ProcessId(0), "B excludes the leader for t < n/2");

    // --- Step 2 (Lemma 5): β_Q — Q's behaviour with no incoming messages.
    let beta_q = run_isolated(LeaderEcho::new(v_star), q, params, delta, 1_000_000);
    let (t_q, v_q) = beta_q.output.expect("Termination forces a decision");

    // --- Step 3 (Lemma 6): E_v — Q faulty and silent, correct processes
    // propose w ≠ v_Q and decide w.
    let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..n)
        .map(|i| {
            let pid = ProcessId::from_index(i);
            if pid == q {
                NodeKind::Byzantine(Box::new(validity_simnet::Silent))
            } else {
                NodeKind::Correct(LeaderEcho::new(w))
            }
        })
        .collect();
    let mut ev = SimBuilder::new(params)
        .gst(0)
        .net(Arc::new(SyncModel))
        .delta(delta)
        .seed(seed ^ 1)
        .build(nodes)
        .expect("E_v: n nodes, only Q faulty; needs δ ≥ 1");
    ev.run_until_decided();
    let t_v = ev.stats().last_decision_at.expect("E_v decides");
    let v_other = ev
        .decisions()
        .iter()
        .flatten()
        .next()
        .expect("some correct decision")
        .1;
    assert_eq!(v_other, w);
    assert_ne!(v_other, v_q, "Lemma 6 requires a different value");

    // --- Step 4 (Lemma 7): merge. Everybody correct; all links touching Q
    // are delayed past max(t_q, t_v); GST afterwards.
    let cutoff = (t_q.max(t_v) + 1) * 2;
    let q_for_policy = q;
    let isolate_q = PerLinkModel::new("lemma7-isolate-q", move |from, to, _at| {
        if from == q_for_policy || to == q_for_policy {
            Time::MAX / 8 // held back until GST forces delivery
        } else {
            1
        }
    });
    let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..n)
        .map(|i| {
            let pid = ProcessId::from_index(i);
            let input = if pid == q { v_star } else { w };
            NodeKind::Correct(LeaderEcho::new(input))
        })
        .collect();
    let mut merged = SimBuilder::new(params)
        .gst(cutoff)
        .delta(delta)
        .net(Arc::new(isolate_q))
        .seed(seed ^ 2)
        .max_time(cutoff * 100)
        .build(nodes)
        .expect("the merge: n nodes, all correct; needs δ ≥ 1");
    merged.run_until_decided();

    let dq = merged.decisions()[q.index()].as_ref().expect("Q decides").1;
    let other = merged
        .decisions()
        .iter()
        .enumerate()
        .find(|(i, d)| *i != q.index() && d.is_some())
        .and_then(|(_, d)| d.as_ref())
        .expect("others decide")
        .1;
    assert_ne!(
        dq, other,
        "the merge must violate Agreement — LeaderEcho cannot be correct"
    );

    Disagreement {
        q,
        v_q,
        t_q,
        v_other,
        t_v,
        faulty_in_merge: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_t_rounds_up() {
        assert_eq!(half_t(1), 1);
        assert_eq!(half_t(2), 1);
        assert_eq!(half_t(3), 2);
        assert_eq!(half_t(4), 2);
        assert_eq!(half_t(5), 3);
    }

    #[test]
    fn leader_echo_stays_below_the_bound_and_breaks() {
        // t = 4 so the bound (⌈t/2⌉)² = 4 exceeds LeaderEcho's n messages…
        let params = SystemParams::new(13, 4).unwrap();
        let report = run_e_base(params, 100, 7, |_| LeaderEcho::new(1u64));
        assert!(report.decided);
        // …and the full construction produces a disagreement.
        let ex = break_leader_echo(params, 100, 7);
        assert_eq!(ex.v_q, 1);
        assert_eq!(ex.v_other, 0);
        assert_eq!(ex.faulty_in_merge, 0);
    }

    #[test]
    fn break_leader_echo_works_at_small_scale() {
        let params = SystemParams::new(4, 1).unwrap();
        let ex = break_leader_echo(params, 100, 3);
        assert_ne!(ex.v_q, ex.v_other);
    }

    #[test]
    fn e_base_group_b_size_is_half_t() {
        let params = SystemParams::new(10, 3).unwrap();
        let report = run_e_base(params, 100, 1, |_| LeaderEcho::new(1u64));
        assert_eq!(report.group_b.len(), 2);
        assert!(report.group_b.contains(ProcessId(9)));
    }
}
