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
//! * [`break_subquadratic`] carries the argument to its conclusion for any
//!   machine factory: when `Q` received no more than the `⌈t/2⌉` messages
//!   it ignores, it reads `β_Q` (the decision Q reaches with no incoming
//!   messages — Lemma 5), finds an execution `E_v` deciding a different
//!   value with Q silent (Lemma 6), merges the two by delaying Q's links
//!   past both decision times (Lemma 7), and exhibits the resulting
//!   Agreement violation.
//!
//! Every run is a [`validity_simnet::Simulation`]; `β_Q` is the one in
//! which every link touching `Q` is held past a horizon.

use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{FilteredMachine, Machine, NodeKind, RunOutcome, Silent, Simulation, Time};

use crate::proof::{execution, first_decider, Disagreement, Refusal};

/// How long `β_Q` runs with `Q`'s links held: `Q` must decide by then.
const ISOLATION_HORIZON: Time = 1_000_000;

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

    // GST = 0: every link is synchronous from the start.
    let mut sim = execution(params, delta, seed, 0, Time::MAX, |_, _| false, nodes);
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

/// `β_Q` (Lemma 5): every process runs `mk(p, 0)`, and every link touching
/// `q` is held past [`ISOLATION_HORIZON`], so `q` hears nothing but its own
/// sends; the run stops at the horizon.
fn isolate<M: Machine>(
    params: SystemParams,
    delta: Time,
    seed: u64,
    q: ProcessId,
    mk: impl Fn(ProcessId, u64) -> M,
) -> (Simulation<M>, RunOutcome) {
    let nodes = (0..params.n())
        .map(|i| NodeKind::Correct(mk(ProcessId::from_index(i), 0)))
        .collect();
    let touches_q = move |from, to| from == q || to == q;
    let h = ISOLATION_HORIZON;
    let mut sim = execution(params, delta, seed, h, h, touches_q, nodes);
    let outcome = sim.run_until_decided();
    (sim, outcome)
}

/// Runs the Theorem 4 construction against the machines `mk` builds and
/// returns the Agreement violation of the merged execution: `Q` deciding
/// `β_Q`'s value, the others `E_v`'s.
///
/// `mk(p, face)` builds process `p` with its regular input for `face = 0`
/// (`E_base`, `β_Q`, and `Q` in the merge) and with the conflicting input
/// for `face = 1` (the others in `E_v` and in the merge).
///
/// # Errors
///
/// [`Refusal::WitnessHeard`] when `E_base`'s witness `Q` received more than
/// `⌈t/2⌉` messages; [`Refusal::SameValue`] when `E_v` decides `β_Q`'s
/// value; [`Refusal::NoSplit`] when `β_Q`, `E_v` or the merge does not
/// decide as the construction needs.
pub fn break_subquadratic<M>(
    params: SystemParams,
    delta: Time,
    seed: u64,
    mk: impl Fn(ProcessId, u64) -> M,
) -> Result<Disagreement<M::Output>, Refusal>
where
    M: Machine + 'static,
    M::Output: PartialEq,
{
    let n = params.n();
    let everyone = || (0..n).map(ProcessId::from_index);

    // --- Step 1 (Lemma 5 setup): E_base, and its pigeonhole witness Q.
    let report = run_e_base(params, delta, seed, |p| mk(p, 0));
    let (q, ignored) = (report.q, half_t(params.t()));
    if report.q_received > ignored as u64 {
        return Err(Refusal::WitnessHeard {
            q,
            received: report.q_received,
            ignored,
        });
    }

    // --- Step 2 (Lemma 5): β_Q — Q's behaviour with no incoming messages.
    let (beta_q, outcome) = isolate(params, delta, seed, q, &mk);
    let Some(one) = first_decider(&beta_q, [q]) else {
        return Err(Refusal::NoSplit {
            run: "β_Q",
            outcome,
        });
    };

    // --- Step 3 (Lemma 6): E_v — Q faulty and silent, the others propose
    // their conflicting inputs and must decide a value other than β_Q's.
    let nodes = everyone()
        .map(|p| {
            if p == q {
                NodeKind::Byzantine(Box::new(Silent) as _)
            } else {
                NodeKind::Correct(mk(p, 1))
            }
        })
        .collect();
    let mut ev = execution(params, delta, seed ^ 1, 0, Time::MAX, |_, _| false, nodes);
    let outcome = ev.run_until_decided();
    let last = everyone()
        .filter_map(|p| first_decider(&ev, [p]))
        .max_by_key(|d| d.at);
    let Some(other) = last else {
        return Err(Refusal::NoSplit {
            run: "E_v",
            outcome,
        });
    };
    if other.value == one.value {
        return Err(Refusal::SameValue { q });
    }

    // --- Step 4 (Lemma 7): merge. Everybody correct; all links touching Q
    // are held past max(t_q, t_v); GST afterwards.
    let gst = (one.at.max(other.at) + 1) * 2;
    let touches_q = move |from, to| from == q || to == q;
    let nodes = everyone()
        .map(|p| NodeKind::Correct(mk(p, u64::from(p != q))))
        .collect();
    let mut merged = execution(params, delta, seed ^ 2, gst, gst * 100, touches_q, nodes);
    let outcome = merged.run_until_decided();
    let others = everyone().filter(|p| *p != q);
    match (first_decider(&merged, [q]), first_decider(&merged, others)) {
        (Some(dq), Some(d)) if dq.value != d.value => Ok(Disagreement {
            one,
            other,
            faulty: 0,
        }),
        _ => Err(Refusal::NoSplit {
            run: "the merge",
            outcome,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strawman::LeaderEcho;

    /// `LeaderEcho` proposing 1 on face 0 and 0 on face 1.
    fn leader_echo(_: ProcessId, face: u64) -> LeaderEcho<u64> {
        LeaderEcho::new(1 - face)
    }

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
        let ex = break_subquadratic(params, 100, 7, leader_echo).unwrap();
        assert_eq!(ex.one.value, 1);
        assert_eq!(ex.other.value, 0);
        assert_eq!(ex.faulty, 0);
    }

    #[test]
    fn break_subquadratic_splits_leader_echo_at_small_scale() {
        let params = SystemParams::new(4, 1).unwrap();
        let ex = break_subquadratic(params, 100, 3, leader_echo).unwrap();
        assert_ne!(ex.one.value, ex.other.value);
    }

    #[test]
    fn e_v_deciding_beta_q_s_value_is_refused() {
        let params = SystemParams::new(4, 1).unwrap();
        let refusal = break_subquadratic(params, 100, 3, |_, _| LeaderEcho::new(1u64));
        assert_eq!(refusal, Err(Refusal::SameValue { q: ProcessId(3) }));
    }

    #[test]
    fn e_base_group_b_size_is_half_t() {
        let params = SystemParams::new(10, 3).unwrap();
        let report = run_e_base(params, 100, 1, |_| LeaderEcho::new(1u64));
        assert_eq!(report.group_b.len(), 2);
        assert!(report.group_b.contains(ProcessId(9)));
    }

    #[test]
    fn leader_echo_follower_decides_own_value_in_isolation() {
        // The Lemma 5 behaviour: a follower that never hears from anyone
        // still decides (its own input) by timeout.
        let (params, q) = (SystemParams::new(4, 1).unwrap(), ProcessId(2));
        let (sim, _) = isolate(params, 100, 1, q, |_, _| LeaderEcho::new(55u64));
        let (at, v) = sim.decisions()[q.index()].expect("termination forces a decision");
        assert_eq!(v, 55);
        assert_eq!(at, 10 * 100); // the timeout
    }

    #[test]
    fn leader_echo_leader_decides_instantly_in_isolation() {
        let (params, q) = (SystemParams::new(4, 1).unwrap(), ProcessId(0));
        let (sim, _) = isolate(params, 100, 1, q, |_, _| LeaderEcho::new(9u64));
        assert_eq!(sim.decisions()[q.index()], Some((0, 9)));
        assert!(sim.stats().sent_by[q.index()] > 0); // it broadcast
    }
}
