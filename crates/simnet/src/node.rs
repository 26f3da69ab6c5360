//! The process model: deterministic state machines ([`Machine`]) for correct
//! processes and unconstrained [`Byzantine`] behaviours for faulty ones.
//!
//! Machines are *effect-writing*: every hook receives a reusable
//! [`StepSink`] (or [`ByzSink`]) and appends [`Step`]s (sends, broadcasts,
//! timers, outputs) to it. The buffer is owned by the simulation and
//! recycled across events, so the hook API itself never allocates. This
//! style stays composable — an outer protocol embeds an inner machine,
//! lends it a scratch sink, maps its message type, and intercepts its
//! outputs — and keeps the whole execution deterministic and replayable,
//! which the paper's execution-merging arguments (Lemmas 2, 3, 7) require.
//!
//! Deliveries hand the machine a *shared reference* to the message:
//! broadcast payloads are enqueued once and delivered `n` times from the
//! same allocation, so a machine that needs to keep (part of) a message
//! clones exactly what it keeps.

use std::fmt::Debug;

use validity_core::{ProcessId, SystemParams};

use crate::observed::ObservedState;
use crate::sink::{ByzSink, StepSink};
use crate::time::Time;

/// A protocol message. `words()` implements the paper's communication-
/// complexity accounting (footnote 4): a *word* holds a constant number of
/// values, hashes, and signatures.
///
/// Messages are `Send` so that whole simulations (queues included) can be
/// handed to the `validity-lab` worker pool.
pub trait Message: Clone + Debug + Send + 'static {
    /// Size of the message in words. Defaults to 1.
    fn words(&self) -> usize {
        1
    }
}

/// The read-only environment a machine observes: its identity, the system
/// parameters, the current local time, and the (known) post-GST delay bound
/// `δ`. GST itself is *not* exposed — processes do not know it (§3.1).
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// This process's identifier.
    pub id: ProcessId,
    /// System parameters `(n, t)`.
    pub params: SystemParams,
    /// Current local time.
    pub now: Time,
    /// The known message-delay bound `δ` (holds after GST).
    pub delta: Time,
}

impl Env {
    /// Number of processes `n`.
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Fault threshold `t`.
    pub fn t(&self) -> usize {
        self.params.t()
    }

    /// Quorum size `n − t`.
    pub fn quorum(&self) -> usize {
        self.params.quorum()
    }
}

/// An effect requested by a correct machine.
#[derive(Clone, Debug)]
pub enum Step<M, O> {
    /// Send `msg` to one process (point-to-point, authenticated, reliable).
    Send(ProcessId, M),
    /// Send `msg` to every process, including self.
    Broadcast(M),
    /// Request `on_timer(tag)` after `delay` ticks of local time.
    Timer(Time, u64),
    /// Produce a protocol output (e.g. decide). Multiple outputs are
    /// allowed; consumers usually care about the first.
    Output(O),
    /// Stop participating: no further events are delivered to this machine.
    Halt,
}

/// A deterministic correct-process state machine.
///
/// Hooks write their effects into the provided [`StepSink`]; returning
/// nothing (writing no steps) is the common case and costs nothing. The
/// sink is cleared by the simulator between events — machines must not
/// assume steps survive across hook invocations.
///
/// Machines are `Send`: simulations are deterministic and independent, so a
/// scenario sweep can move them freely across worker threads.
pub trait Machine: Send {
    /// Wire message type.
    type Msg: Message;
    /// Output (decision) type.
    type Output: Clone + Debug + Send + 'static;

    /// Called once when the process starts (before any delivery).
    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>);

    /// Called on delivery of `msg` from `from`. Broadcast deliveries share
    /// one payload allocation across all recipients; clone what you keep.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    );

    /// Called when a timer set via [`Step::Timer`] fires.
    fn on_timer(&mut self, _tag: u64, _env: &Env, _sink: &mut StepSink<Self::Msg, Self::Output>) {}
}

/// An effect requested by a Byzantine behaviour. Byzantine nodes cannot
/// "decide" (their outputs are meaningless to the problem) but can send
/// arbitrary messages to arbitrary subsets — including equivocating.
#[derive(Clone, Debug)]
pub enum ByzStep<M> {
    /// Send an arbitrary message to one process.
    Send(ProcessId, M),
    /// Send the same message to every process.
    Broadcast(M),
    /// Request a timer callback.
    Timer(Time, u64),
}

/// An arbitrary (Byzantine) behaviour over the protocol's message type.
///
/// The only power the model denies Byzantine processes is signature forgery,
/// which the crypto substrate enforces structurally. Like [`Machine`],
/// behaviours are `Send` so node vectors can cross threads, and hooks write
/// effects into the provided [`ByzSink`].
pub trait Byzantine<Msg: Message>: Send {
    /// Called once at start.
    fn init(&mut self, _env: &Env, _sink: &mut ByzSink<Msg>) {}

    /// Called on delivery.
    fn on_message(&mut self, _from: ProcessId, _msg: &Msg, _env: &Env, _sink: &mut ByzSink<Msg>) {}

    /// Called on timer expiry.
    fn on_timer(&mut self, _tag: u64, _env: &Env, _sink: &mut ByzSink<Msg>) {}

    /// Whether this behaviour is *adaptive*: it wants the simulator to
    /// maintain an [`ObservedState`] view and deliver it via [`observe`]
    /// before every hook. Defaults to `false`, and when no behaviour in a
    /// run observes, the view is never maintained — oblivious runs stay
    /// byte-identical to the pre-observation engine.
    ///
    /// [`observe`]: Byzantine::observe
    fn observes(&self) -> bool {
        false
    }

    /// Delivers the current [`ObservedState`] snapshot, immediately before
    /// each of the three event hooks. Only called when [`observes`] returns
    /// `true`. Implementations must stay deterministic: derive choices only
    /// from the view and internal state, never from ambient randomness.
    ///
    /// [`observes`]: Byzantine::observes
    fn observe(&mut self, _state: &ObservedState) {}
}

/// The silent Byzantine behaviour: sends nothing, ever. Running *all* faulty
/// processes silently yields a *canonical execution* (§3.1), the setting of
/// Lemma 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Silent;

impl<M: Message> Byzantine<M> for Silent {}

/// Runs a correct machine as a Byzantine node, with message filters — the
/// "behaves correctly, except..." adversaries of the paper's proofs.
///
/// Theorem 4's group-B behaviour is exactly
/// `FilteredMachine::new(correct).ignore_first(t/2).omit_to(group_b)`.
#[derive(Clone, Debug)]
pub struct FilteredMachine<M: Machine> {
    inner: M,
    ignore_first: usize,
    received: usize,
    omit_to: Vec<ProcessId>,
    crash_after: Option<Time>,
    halted: bool,
    /// Scratch buffer the inner machine writes into; reused across events.
    scratch: StepSink<M::Msg, M::Output>,
}

impl<M: Machine> FilteredMachine<M> {
    /// Wraps `inner`, initially with no filtering (honest-but-faulty).
    pub fn new(inner: M) -> Self {
        FilteredMachine {
            inner,
            ignore_first: 0,
            received: 0,
            omit_to: Vec::new(),
            crash_after: None,
            halted: false,
            scratch: StepSink::new(),
        }
    }

    /// Ignore the first `k` received messages (Theorem 4, E_base step 5.1).
    pub fn ignore_first(mut self, k: usize) -> Self {
        self.ignore_first = k;
        self
    }

    /// Omit all sends to the given processes (Theorem 4, E_base step 5.2).
    pub fn omit_to(mut self, targets: impl IntoIterator<Item = ProcessId>) -> Self {
        self.omit_to = targets.into_iter().collect();
        self
    }

    /// Crash (become silent) at the given absolute time.
    pub fn crash_after(mut self, at: Time) -> Self {
        self.crash_after = Some(at);
        self
    }

    /// Drains the scratch sink through the filters into `out`.
    fn filter(&mut self, env: &Env, out: &mut ByzSink<M::Msg>) {
        for step in self.scratch.drain() {
            match step {
                Step::Send(to, m) => {
                    if !self.omit_to.contains(&to) {
                        out.send(to, m);
                    }
                }
                Step::Broadcast(m) => {
                    for i in 0..env.n() {
                        let to = ProcessId::from_index(i);
                        if !self.omit_to.contains(&to) {
                            out.send(to, m.clone());
                        }
                    }
                }
                Step::Timer(d, tag) => out.timer(d, tag),
                Step::Output(_) => {} // faulty "decisions" don't count
                Step::Halt => self.halted = true,
            }
        }
    }

    fn crashed(&self, env: &Env) -> bool {
        self.halted || self.crash_after.is_some_and(|at| env.now >= at)
    }
}

impl<M: Machine> Byzantine<M::Msg> for FilteredMachine<M> {
    fn init(&mut self, env: &Env, sink: &mut ByzSink<M::Msg>) {
        if self.crashed(env) {
            return;
        }
        self.inner.init(env, &mut self.scratch);
        self.filter(env, sink);
    }

    fn on_message(&mut self, from: ProcessId, msg: &M::Msg, env: &Env, sink: &mut ByzSink<M::Msg>) {
        if self.crashed(env) {
            return;
        }
        if self.received < self.ignore_first {
            self.received += 1;
            return;
        }
        self.received += 1;
        self.inner.on_message(from, msg, env, &mut self.scratch);
        self.filter(env, sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut ByzSink<M::Msg>) {
        if self.crashed(env) {
            return;
        }
        self.inner.on_timer(tag, env, &mut self.scratch);
        self.filter(env, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Message for u32 {}

    /// Echoes every received message back to its sender and outputs it.
    #[derive(Clone, Debug, Default)]
    struct Echo;

    impl Machine for Echo {
        type Msg = u32;
        type Output = u32;

        fn init(&mut self, _env: &Env, sink: &mut StepSink<u32, u32>) {
            sink.broadcast(0);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &u32,
            _env: &Env,
            sink: &mut StepSink<u32, u32>,
        ) {
            sink.send(from, msg + 1);
            sink.output(*msg);
        }
    }

    fn env() -> Env {
        Env {
            id: ProcessId(0),
            params: SystemParams::new(4, 1).unwrap(),
            now: 0,
            delta: 10,
        }
    }

    /// Runs a Byzantine hook into a fresh sink and returns the steps.
    fn byz_on_message<B: Byzantine<u32>>(
        b: &mut B,
        from: ProcessId,
        msg: u32,
    ) -> Vec<ByzStep<u32>> {
        let mut sink = ByzSink::new();
        b.on_message(from, &msg, &env(), &mut sink);
        sink.drain().collect()
    }

    #[test]
    fn silent_behaviour_emits_nothing() {
        let mut s = Silent;
        let mut sink = ByzSink::new();
        Byzantine::<u32>::init(&mut s, &env(), &mut sink);
        assert!(sink.is_empty());
        assert!(byz_on_message(&mut s, ProcessId(1), 5).is_empty());
    }

    #[test]
    fn filtered_machine_ignores_first_k() {
        let mut b = FilteredMachine::new(Echo).ignore_first(2);
        assert!(byz_on_message(&mut b, ProcessId(1), 1).is_empty());
        assert!(byz_on_message(&mut b, ProcessId(1), 2).is_empty());
        let steps = byz_on_message(&mut b, ProcessId(1), 3);
        assert_eq!(steps.len(), 1); // the echo Send; Output filtered out
        assert!(matches!(steps[0], ByzStep::Send(ProcessId(1), 4)));
    }

    #[test]
    fn filtered_machine_omits_targets() {
        let mut b = FilteredMachine::new(Echo).omit_to([ProcessId(2), ProcessId(3)]);
        // init broadcasts to n = 4, minus 2 omitted
        let mut sink = ByzSink::new();
        b.init(&env(), &mut sink);
        assert_eq!(sink.len(), 2);
        // echo back to an omitted process is dropped
        assert!(byz_on_message(&mut b, ProcessId(2), 9).is_empty());
    }

    #[test]
    fn filtered_machine_crashes_at_time() {
        let mut b = FilteredMachine::new(Echo).crash_after(5);
        assert!(!byz_on_message(&mut b, ProcessId(1), 1).is_empty());
        let mut e = env();
        e.now = 5;
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(1), &2, &e, &mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn env_accessors() {
        let e = env();
        assert_eq!(e.n(), 4);
        assert_eq!(e.t(), 1);
        assert_eq!(e.quorum(), 3);
    }
}
