//! What the executable proofs share: their one result — a
//! [`Disagreement`], or a [`Refusal`] naming why the construction does not
//! apply — and the one way they run an execution, on the simulator.

use std::fmt;
use std::sync::Arc;

use validity_core::{ProcessId, SystemParams};
use validity_simnet::{Machine, NodeKind, PerLinkModel, RunOutcome, SimBuilder, Simulation, Time};

/// One side of a [`Disagreement`]: a process, when it decided, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decider<O> {
    /// The deciding process.
    pub p: ProcessId,
    /// When it decided.
    pub at: Time,
    /// What it decided.
    pub value: O,
}

/// An Agreement violation with at most `t` faulty processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Disagreement<O> {
    /// Group `A`'s first decider (Lemma 2), or `Q` deciding in isolation
    /// (`β_Q`, Lemma 5).
    pub one: Decider<O>,
    /// Group `C`'s first decider (Lemma 2), or the last decider of `E_v`
    /// (Lemma 6) — deciding differently from [`Disagreement::one`].
    pub other: Decider<O>,
    /// Faulty processes in the execution that splits (`≤ t`).
    pub faulty: usize,
}

/// Why a construction exhibits no disagreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The named run stopped as `outcome` without the two differing
    /// decisions it was built for.
    NoSplit {
        /// The run: `"the partition"`, `"β_Q"`, `"E_v"` or `"the merge"`.
        run: &'static str,
        /// How it stopped.
        outcome: RunOutcome,
    },
    /// `E_base`'s pigeonhole witness received more than the `⌈t/2⌉`
    /// messages it ignores, so it processed some and Lemma 5 does not
    /// apply.
    WitnessHeard {
        /// The member of `B` that received the fewest messages.
        q: ProcessId,
        /// How many it received.
        received: u64,
        /// How many it ignores (`⌈t/2⌉`).
        ignored: usize,
    },
    /// `E_v` decided `β_Q`'s own value, so the merge cannot split.
    SameValue {
        /// The isolated process.
        q: ProcessId,
    },
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::NoSplit { run, outcome } => write!(f, "{run} stopped as {outcome:?}, unsplit"),
            Refusal::WitnessHeard {
                q,
                received,
                ignored,
            } => write!(
                f,
                "E_base's witness {q} received {received} > ⌈t/2⌉ = {ignored} messages"
            ),
            Refusal::SameValue { q } => write!(f, "E_v decided {q}'s isolated value"),
        }
    }
}

impl std::error::Error for Refusal {}

/// Builds one execution of a proof on the simulator: `nodes` with GST
/// `gst`, every link `held` selects stalled until GST forces delivery,
/// every other link delivering in one tick before GST, and no event
/// processed after `max_time`. Self-sends bypass the links: a process
/// always hears its own messages one tick later.
pub(crate) fn execution<M: Machine>(
    params: SystemParams,
    delta: Time,
    seed: u64,
    gst: Time,
    max_time: Time,
    held: impl Fn(ProcessId, ProcessId) -> bool + Send + Sync + 'static,
    nodes: Vec<NodeKind<M>>,
) -> Simulation<M> {
    let delay = move |from, to, _: Time| if held(from, to) { Time::MAX / 8 } else { 1 };
    let net = PerLinkModel::new("held-links", delay);
    SimBuilder::new(params)
        .gst(gst)
        .delta(delta)
        .net(Arc::new(net))
        .seed(seed)
        .max_time(max_time)
        .build(nodes)
        .expect("a proof execution: n nodes, at most t faulty; needs δ ≥ 1")
}

/// The first member of `group` that decided in `sim`, with its decision.
pub(crate) fn first_decider<M: Machine>(
    sim: &Simulation<M>,
    group: impl IntoIterator<Item = ProcessId>,
) -> Option<Decider<M::Output>> {
    group.into_iter().find_map(|p| {
        let (at, value) = sim.decisions()[p.index()].clone()?;
        Some(Decider { p, at, value })
    })
}
