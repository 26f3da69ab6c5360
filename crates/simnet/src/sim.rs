//! The deterministic discrete-event simulation engine for the partially
//! synchronous model (§3.1).
//!
//! * Reliable authenticated point-to-point channels.
//! * A Global Stabilization Time (GST): message delays are bounded by `δ`
//!   from GST on; before GST delays are adversary-controlled (the
//!   [`NetModel`] in [`SimConfig::net`]), but every message sent before GST
//!   is delivered by `GST + δ` (the standard DLS guarantee).
//! * Deterministic: a seed fixes all delay jitter; identical seeds and nodes
//!   produce identical executions — replayability is what makes the paper's
//!   execution-merging proofs implementable as tests.
//!
//! # Hot-path design
//!
//! The event loop is engineered so that steady-state processing performs no
//! heap allocation and no per-event `O(n)` work:
//!
//! * **Effect sinks** — machine hooks write into a [`StepSink`]/[`ByzSink`]
//!   owned by the simulation and recycled across events (no `Vec<Step>`
//!   per step).
//! * **Shared payload slab** — a `Step::Broadcast` stores its payload once
//!   in a recycled slab slot and enqueues `n` 16-byte deliveries
//!   referencing it (reference-counted without atomics — a simulation is
//!   single-threaded); `words()` is computed once per broadcast.
//! * **Calendar-queue scheduler** — events live in per-tick FIFO buckets
//!   ([`crate::queue::CalendarQueue`]), replacing the `O(log q)` binary
//!   heap; bucket order reproduces the historical `(at, seq)` order
//!   exactly.
//! * **Decision counter** — `run_until_decided` checks an
//!   `undecided_correct` counter instead of scanning all `n` decision
//!   slots per event.
//!
//! All four changes preserve the event order and the RNG draw order, so
//! seeded executions (and every report derived from them) are byte-for-byte
//! identical to the pre-optimization engine.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use validity_core::{ProcessId, ProcessSet, SystemParams};

use crate::net::{CachedUniform, Delivery, LinkCtx, NetModel, SyncModel, UniformModel};
use crate::node::{ByzStep, Byzantine, Env, Machine, Step};
use crate::observed::ObservedState;
use crate::probe::{EventClass, NoProbe, Probe};
use crate::queue::CalendarQueue;
use crate::sink::{ByzSink, StepSink};
use crate::stats::NetStats;
use crate::time::{Time, DEFAULT_DELTA, DEFAULT_GST};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// System parameters `(n, t)`.
    pub params: SystemParams,
    /// Global Stabilization Time.
    pub gst: Time,
    /// Post-GST delay bound `δ` (known to processes).
    pub delta: Time,
    /// The pre-GST network model (see [`crate::net`]); never consulted for
    /// self-sends or sends at or after GST.
    pub net: Arc<dyn NetModel>,
    /// Seed for delay jitter.
    pub seed: u64,
    /// Hard stop: no event beyond this time is processed.
    pub max_time: Time,
    /// Hard stop: maximum number of events processed.
    pub max_events: u64,
    /// Per-process start times (all correct processes must start by GST,
    /// per §3.1; the merge constructions stagger starts *before* that).
    pub start_times: Vec<Time>,
}

impl SimConfig {
    /// A standard configuration: GST = 1000, δ = 100, synchronous-looking
    /// uniform jitter before GST.
    pub fn new(params: SystemParams) -> Self {
        SimConfig {
            params,
            gst: DEFAULT_GST,
            delta: DEFAULT_DELTA,
            net: Arc::new(UniformModel::new(4 * DEFAULT_DELTA)),
            seed: 0,
            max_time: Time::MAX / 4,
            max_events: 50_000_000,
            start_times: vec![0; params.n()],
        }
    }

    /// Sets the seed (builder-style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets GST (builder-style).
    pub fn gst(mut self, gst: Time) -> Self {
        self.gst = gst;
        self
    }

    /// Sets δ (builder-style).
    pub fn delta(mut self, delta: Time) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the pre-GST network model (builder-style).
    pub fn net(mut self, net: Arc<dyn NetModel>) -> Self {
        self.net = net;
        self
    }

    /// A synchronous-from-the-start configuration (GST = 0), used by the
    /// lower-bound experiments which require `E_base` to be synchronous.
    pub fn synchronous(params: SystemParams) -> Self {
        SimConfig {
            gst: 0,
            net: Arc::new(SyncModel),
            ..SimConfig::new(params)
        }
    }
}

/// A validation failure reported by [`SimBuilder::build`].
///
/// [`Simulation::new`] / [`Simulation::with_probe`] run the same check and
/// panic with this error's `Display`; the builder surfaces it as a value so
/// harnesses (the lab runner, service drivers, CLIs) can refuse bad
/// configurations with a named error instead of crashing a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `nodes.len()` does not equal `n`.
    NodeCount {
        /// The configured `n`.
        expected: usize,
        /// The node vector's actual length.
        got: usize,
    },
    /// More than `t` node slots are Byzantine.
    TooManyFaulty {
        /// The configured fault bound `t`.
        t: usize,
        /// The number of Byzantine slots supplied.
        got: usize,
    },
    /// `start_times.len()` does not equal `n`.
    StartTimes {
        /// The configured `n`.
        expected: usize,
        /// The start-time vector's actual length.
        got: usize,
    },
    /// `δ = 0`: the post-GST delay bound must be at least one tick.
    ZeroDelta,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NodeCount { expected, got } => {
                write!(f, "need exactly n = {expected} nodes, got {got}")
            }
            BuildError::TooManyFaulty { t, got } => {
                write!(f, "{got} Byzantine nodes exceeds t = {t}")
            }
            BuildError::StartTimes { expected, got } => {
                write!(f, "need n = {expected} start times, got {got}")
            }
            BuildError::ZeroDelta => write!(f, "δ must be ≥ 1 tick"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The one check every construction path runs: node count, fault count,
/// start-time count and `δ ≥ 1` against the configured `(n, t)`.
fn validate<M: Machine>(cfg: &SimConfig, nodes: &[NodeKind<M>]) -> Result<(), BuildError> {
    let n = cfg.params.n();
    if nodes.len() != n {
        return Err(BuildError::NodeCount {
            expected: n,
            got: nodes.len(),
        });
    }
    let faulty = nodes.iter().filter(|x| !x.is_correct()).count();
    if faulty > cfg.params.t() {
        return Err(BuildError::TooManyFaulty {
            t: cfg.params.t(),
            got: faulty,
        });
    }
    if cfg.start_times.len() != n {
        return Err(BuildError::StartTimes {
            expected: n,
            got: cfg.start_times.len(),
        });
    }
    if cfg.delta == 0 {
        return Err(BuildError::ZeroDelta);
    }
    Ok(())
}

/// A validating builder for [`Simulation`] — the front door for harness
/// code. Collects the same knobs as [`SimConfig`] (seed, GST, δ, network
/// model, limits, start times) and checks the node vector against the
/// system parameters at [`SimBuilder::build`] time, returning a
/// [`BuildError`] instead of panicking.
///
/// ```
/// use validity_core::SystemParams;
/// use validity_simnet::{NodeKind, Silent, SimBuilder};
/// # use validity_core::ProcessId;
/// # use validity_simnet::{Env, Machine, Message, StepSink};
/// # #[derive(Clone, Debug)]
/// # struct Ping;
/// # impl Message for Ping {}
/// # struct Echo;
/// # impl Machine for Echo {
/// #     type Msg = Ping;
/// #     type Output = u64;
/// #     fn init(&mut self, _e: &Env, s: &mut StepSink<Ping, u64>) { s.output(0); }
/// #     fn on_message(&mut self, _f: ProcessId, _m: &Ping, _e: &Env,
/// #                   _s: &mut StepSink<Ping, u64>) {}
/// # }
/// let params = SystemParams::new(4, 1)?;
/// let nodes: Vec<NodeKind<Echo>> = (0..3).map(|_| NodeKind::Correct(Echo))
///     .chain([NodeKind::Byzantine(Box::new(Silent) as _)])
///     .collect();
/// let mut sim = SimBuilder::new(params).seed(7).build(nodes).expect("valid");
/// sim.run_until_decided();
/// # Ok::<(), validity_core::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SimBuilder {
    cfg: SimConfig,
}

impl SimBuilder {
    /// A builder over the standard configuration for `params`
    /// (equivalent to starting from [`SimConfig::new`]).
    pub fn new(params: SystemParams) -> SimBuilder {
        SimBuilder {
            cfg: SimConfig::new(params),
        }
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> SimBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Sets the Global Stabilization Time.
    pub fn gst(mut self, gst: Time) -> SimBuilder {
        self.cfg.gst = gst;
        self
    }

    /// Sets the post-GST delay bound `δ`.
    pub fn delta(mut self, delta: Time) -> SimBuilder {
        self.cfg.delta = delta;
        self
    }

    /// Sets the pre-GST network model.
    pub fn net(mut self, net: Arc<dyn NetModel>) -> SimBuilder {
        self.cfg.net = net;
        self
    }

    /// Sets the hard event-count stop (step budget).
    pub fn max_events(mut self, max: u64) -> SimBuilder {
        self.cfg.max_events = max;
        self
    }

    /// Sets the hard time stop.
    pub fn max_time(mut self, max: Time) -> SimBuilder {
        self.cfg.max_time = max;
        self
    }

    /// Sets per-process start times (validated against `n` at build time).
    pub fn start_times(mut self, starts: Vec<Time>) -> SimBuilder {
        self.cfg.start_times = starts;
        self
    }

    /// The configuration as assembled so far.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Validates and builds an uninstrumented simulation.
    pub fn build<M: Machine>(self, nodes: Vec<NodeKind<M>>) -> Result<Simulation<M>, BuildError> {
        self.build_with_probe(nodes, NoProbe)
    }

    /// Validates and builds a simulation instrumented with `probe`.
    pub fn build_with_probe<M: Machine, P: Probe>(
        self,
        nodes: Vec<NodeKind<M>>,
        probe: P,
    ) -> Result<Simulation<M, P>, BuildError> {
        validate(&self.cfg, &nodes)?;
        Ok(Simulation::assemble(self.cfg, nodes, probe))
    }
}

/// A node slot: either a correct machine or a Byzantine behaviour.
pub enum NodeKind<M: Machine> {
    /// A correct process running `M`.
    Correct(M),
    /// A faulty process running an arbitrary behaviour.
    Byzantine(Box<dyn Byzantine<M::Msg>>),
}

impl<M: Machine> NodeKind<M> {
    /// Whether this node is correct.
    pub fn is_correct(&self) -> bool {
        matches!(self, NodeKind::Correct(_))
    }
}

/// Message payload storage: one slot per in-flight message, reference
/// counted without atomics (a simulation is single-threaded). A broadcast
/// stores its payload **once** with a reference count of `n`; a
/// point-to-point send stores it with a count of 1. Every delivery borrows
/// the slot; the last delivery (or a halted receiver's skipped delivery)
/// frees it onto a free list, so steady state allocates nothing beyond the
/// payload the machine itself built. Keeping payloads out of the events
/// also shrinks an [`Event`] to 16 bytes, which is most of what makes the
/// calendar queue's bucket traffic cheap.
struct PayloadSlab<Msg> {
    slots: Vec<(Option<Msg>, u32)>,
    free: Vec<u32>,
}

impl<Msg> PayloadSlab<Msg> {
    fn new() -> Self {
        PayloadSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn insert(&mut self, msg: Msg, count: u32) -> u32 {
        debug_assert!(count > 0);
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = (Some(msg), count);
            i
        } else {
            self.slots.push((Some(msg), count));
            (self.slots.len() - 1) as u32
        }
    }

    #[inline]
    fn get(&self, slot: u32) -> &Msg {
        self.slots[slot as usize]
            .0
            .as_ref()
            .expect("live payload slot")
    }

    /// Adds one delivery reference — a [`Duplicate`](crate::net::Duplicate)
    /// model's extra copy shares the slot it duplicates.
    #[inline]
    fn bump(&mut self, slot: u32) {
        debug_assert!(self.slots[slot as usize].1 > 0, "bump of a dead slot");
        self.slots[slot as usize].1 += 1;
    }

    /// Consumes one delivery reference; frees the slot at zero.
    #[inline]
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.1 -= 1;
        if s.1 == 0 {
            s.0 = None;
            self.free.push(slot);
        }
    }

    /// Number of live (occupied) slots — what the slab high-water probe
    /// hook observes.
    #[inline]
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

enum EventKind {
    Start,
    Deliver { from: ProcessId, slot: u32 },
    Timer { tag: u64 },
}

/// A scheduled event. Its time lives in the calendar queue's bucket (every
/// event in a bucket shares one tick) and its order among same-tick events
/// is the bucket's FIFO order, so the struct carries neither a timestamp
/// nor a sequence number.
struct Event {
    node: ProcessId,
    kind: EventKind,
}

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Every correct process produced an output.
    AllDecided,
    /// The event queue drained.
    Quiescent,
    /// `max_time` was exceeded.
    TimeLimit,
    /// `max_events` was exceeded.
    EventLimit,
}

/// The simulation: nodes + queue + clock + stats.
///
/// The second type parameter is the instrumentation probe (see
/// [`crate::probe`]). It defaults to [`NoProbe`], whose hooks — guarded by
/// the compile-time const [`Probe::ENABLED`] — monomorphize away entirely,
/// so an unprobed `Simulation<M>` is byte-for-byte the pre-probe engine
/// (pinned by the golden report fingerprints and the allocation audit).
pub struct Simulation<M: Machine, P: Probe = NoProbe> {
    config: SimConfig,
    nodes: Vec<NodeKind<M>>,
    halted: Vec<bool>,
    queue: CalendarQueue<Event>,
    time: Time,
    events_processed: u64,
    rng: StdRng,
    stats: NetStats,
    decisions: Vec<Option<(Time, M::Output)>>,
    /// Correct processes that have not yet decided; `run_until_decided`
    /// terminates when this reaches zero. Maintained at decision time, so
    /// the per-event check is O(1) instead of an O(n) scan.
    undecided_correct: usize,
    /// In-flight broadcast payloads (shared across their deliveries).
    payloads: PayloadSlab<M::Msg>,
    /// Post-GST jitter distribution `1..=δ` with a precomputed zone.
    jitter: CachedUniform,
    /// Reusable effect buffer lent to correct machines.
    sink: StepSink<M::Msg, M::Output>,
    /// Reusable effect buffer lent to Byzantine behaviours.
    byz_sink: ByzSink<M::Msg>,
    /// The adaptive adversary's view (see [`crate::observed`]). Disabled —
    /// and unmaintained — unless some Byzantine node `observes()`.
    observed: ObservedState,
    /// The instrumentation probe ([`NoProbe`] by default — compiled away).
    probe: P,
}

impl<M: Machine> Simulation<M> {
    /// Creates an uninstrumented simulation over the given nodes.
    ///
    /// Prefer [`SimBuilder`] in harness code: it reports invalid setups as
    /// [`BuildError`]s instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`]'s message on any condition
    /// [`SimBuilder::build`] refuses.
    pub fn new(config: SimConfig, nodes: Vec<NodeKind<M>>) -> Self {
        Simulation::with_probe(config, nodes, NoProbe)
    }
}

impl<M: Machine, P: Probe> Simulation<M, P> {
    /// Creates a simulation instrumented with `probe` (see
    /// [`crate::probe`]). Probes observe the run but cannot perturb it:
    /// the seeded execution is identical to an unprobed run.
    ///
    /// # Panics
    ///
    /// Panics with the [`BuildError`]'s message on any condition
    /// [`SimBuilder::build_with_probe`] refuses.
    pub fn with_probe(config: SimConfig, nodes: Vec<NodeKind<M>>, probe: P) -> Self {
        SimBuilder { cfg: config }
            .build_with_probe(nodes, probe)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the simulation from an already validated configuration.
    fn assemble(config: SimConfig, nodes: Vec<NodeKind<M>>, probe: P) -> Self {
        let n = config.params.n();
        let faulty = nodes.iter().filter(|x| !x.is_correct()).count();
        let rng = StdRng::seed_from_u64(config.seed);
        let jitter = CachedUniform::new_inclusive(1, config.delta);
        // The adaptive view is maintained only when some behaviour asks
        // for it; otherwise every `note_*` call is a dead branch and the
        // seeded execution is byte-identical to the pre-observation engine.
        let observing = nodes
            .iter()
            .any(|k| matches!(k, NodeKind::Byzantine(b) if b.observes()));
        let observed = if observing {
            ObservedState::tracking(n)
        } else {
            ObservedState::disabled()
        };
        let mut sim = Simulation {
            jitter,
            observed,
            halted: vec![false; n],
            stats: NetStats::new(n),
            decisions: vec![None; n],
            undecided_correct: n - faulty,
            time: 0,
            events_processed: 0,
            rng,
            queue: CalendarQueue::new(),
            config,
            nodes,
            payloads: PayloadSlab::new(),
            sink: StepSink::new(),
            byz_sink: ByzSink::new(),
            probe,
        };
        // Start events are pushed in process order; within one tick the
        // queue's FIFO order preserves it (the old scheduler's seq = i).
        for i in 0..n {
            let at = sim.config.start_times[i];
            sim.queue.push(
                at,
                Event {
                    node: ProcessId::from_index(i),
                    kind: EventKind::Start,
                },
            );
            if P::ENABLED {
                sim.probe.on_queue_push(at, sim.queue.len());
            }
        }
        sim
    }

    /// Shared access to the probe (e.g. to read [`crate::Metrics`] after a
    /// run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the probe.
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the simulation and returns the probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The set of correct processes (`Corr_A(E)`).
    pub fn correct_set(&self) -> ProcessSet {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_correct())
            .map(|(i, _)| ProcessId::from_index(i))
            .collect()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Per-process decisions `(time, output)`, `None` if not yet decided.
    pub fn decisions(&self) -> &[Option<(Time, M::Output)>] {
        &self.decisions
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Number of events dispatched so far (starts, deliveries, timer
    /// fires), including events skipped because their target had halted.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to a node (e.g. to inspect protocol state after a
    /// run).
    pub fn node(&self, p: ProcessId) -> &NodeKind<M> {
        &self.nodes[p.index()]
    }

    /// Whether every *correct* node has produced an output.
    pub fn all_correct_decided(&self) -> bool {
        self.undecided_correct == 0
    }

    #[inline]
    fn env_for(&self, p: ProcessId) -> Env {
        Env {
            id: p,
            params: self.config.params,
            now: self.time,
            delta: self.config.delta,
        }
    }

    /// Plans the delivery of a message `from → to` sent at `sent_at`:
    /// arrival time, duplicate-copy count, and whether the model withheld
    /// it to the DLS deadline ("dropped").
    ///
    /// # Determinism invariant: the two-draw order
    ///
    /// For every non-self send this function draws `post_gst_jitter`
    /// *first*, unconditionally — even when the send is pre-GST and the
    /// model then draws a *second* value ([`UniformModel`]) or makes no
    /// draw at all (`FixedModel`/`PerLinkModel`). The
    /// first draw is also what caps pre-GST delivery at
    /// `gst + post_gst_jitter`. Self-sends (`from == to`) draw
    /// **nothing**, and post-GST sends never consult the model.
    ///
    /// This exact draw order — one draw per non-self recipient, in
    /// recipient order `0..n` for broadcasts, with the model's draws
    /// nested after the first — is pinned by
    /// `tests::rng_draw_order_is_pinned` and must survive any scheduler,
    /// event-loop, or network-model refactor: every seeded execution (and
    /// every committed report fingerprint derived from one) depends on it.
    /// Models extend the sequence only *after* the jitter draw.
    fn arrival_plan(&mut self, from: ProcessId, to: ProcessId, sent_at: Time) -> (Time, Delivery) {
        const PLAIN: Delivery = Delivery {
            raw_delay: 0,
            dropped: false,
            duplicates: 0,
        };
        if from == to {
            return (sent_at + 1, PLAIN); // local self-delivery
        }
        let gst = self.config.gst;
        let post_gst_jitter = self.jitter.sample(&mut self.rng);
        if sent_at >= gst {
            return (sent_at + post_gst_jitter, PLAIN);
        }
        let link = LinkCtx {
            from,
            to,
            sent_at,
            gst,
            delta: self.config.delta,
            post_gst_jitter,
        };
        let plan = self.config.net.deliver(&link, &mut self.rng);
        // DLS guarantee: delivered by GST + δ even if sent before GST. A
        // dropped (withheld) message arrives exactly at the deadline.
        let cap = gst + post_gst_jitter;
        let at = if plan.dropped {
            cap.max(sent_at + 1)
        } else {
            (sent_at + plan.raw_delay).min(cap).max(sent_at + 1)
        };
        (at, plan)
    }

    /// Records and enqueues one delivery of the payload in `slot`.
    /// `words` is precomputed by the caller (once per broadcast, not once
    /// per recipient).
    #[inline]
    fn enqueue_delivery(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        slot: u32,
        words: usize,
        correct: bool,
    ) {
        self.stats
            .record_send(from, words, self.time, self.config.gst, correct);
        let (at, plan) = self.arrival_plan(from, to, self.time);
        if plan.dropped {
            self.stats.dropped += 1;
            if P::ENABLED {
                self.probe.on_drop(from, to, self.time, at);
            }
        }
        if P::ENABLED {
            self.probe.on_send(from, to, words, self.time, at);
        }
        self.queue.push(
            at,
            Event {
                node: to,
                kind: EventKind::Deliver { from, slot },
            },
        );
        self.observed.note_enqueued(to);
        if P::ENABLED {
            self.probe.on_queue_push(at, self.queue.len());
        }
        // Duplicate copies arrive at the same tick, sharing the payload
        // slot (one extra reference each). The sender sent one message, so
        // neither `record_send` nor `on_send` fires again.
        for _ in 0..plan.duplicates {
            self.payloads.bump(slot);
            self.stats.duplicated += 1;
            if P::ENABLED {
                self.probe.on_duplicate(from, to, self.time, at);
            }
            self.queue.push(
                at,
                Event {
                    node: to,
                    kind: EventKind::Deliver { from, slot },
                },
            );
            self.observed.note_enqueued(to);
            if P::ENABLED {
                self.probe.on_queue_push(at, self.queue.len());
            }
        }
    }

    /// Enqueues a point-to-point send (slab count 1).
    #[inline]
    fn enqueue_send(&mut self, from: ProcessId, to: ProcessId, msg: M::Msg, correct: bool) {
        use crate::node::Message as _;
        let words = msg.words();
        let slot = self.payloads.insert(msg, 1);
        if P::ENABLED {
            self.probe.on_slab_alloc(self.payloads.live());
        }
        self.enqueue_delivery(from, to, slot, words, correct);
    }

    /// Enqueues a broadcast: the payload is stored once and shared by all
    /// `n` deliveries; `words()` is computed once. Recipient order (and
    /// therefore RNG draw order) is `0..n`, as it always was.
    fn enqueue_broadcast(&mut self, from: ProcessId, msg: M::Msg, correct: bool) {
        use crate::node::Message as _;
        let words = msg.words();
        let n = self.config.params.n();
        let slot = self.payloads.insert(msg, n as u32);
        if P::ENABLED {
            self.probe.on_slab_alloc(self.payloads.live());
        }
        for i in 0..n {
            self.enqueue_delivery(from, ProcessId::from_index(i), slot, words, correct);
        }
    }

    fn enqueue_timer(&mut self, node: ProcessId, delay: Time, tag: u64) {
        let at = self.time + delay.max(1);
        self.queue.push(
            at,
            Event {
                node,
                kind: EventKind::Timer { tag },
            },
        );
        if P::ENABLED {
            self.probe.on_queue_push(at, self.queue.len());
        }
    }

    /// Releases one payload-slab reference and tells the probe the new
    /// live-slot count.
    #[inline]
    fn release_payload(&mut self, slot: u32) {
        self.payloads.release(slot);
        if P::ENABLED {
            self.probe.on_slab_release(self.payloads.live());
        }
    }

    fn apply_correct_steps(&mut self, p: ProcessId, sink: &mut StepSink<M::Msg, M::Output>) {
        for step in sink.drain() {
            match step {
                Step::Send(to, msg) => self.enqueue_send(p, to, msg, true),
                Step::Broadcast(msg) => self.enqueue_broadcast(p, msg, true),
                Step::Timer(delay, tag) => self.enqueue_timer(p, delay, tag),
                Step::Output(o) => {
                    if self.decisions[p.index()].is_none() {
                        if P::ENABLED {
                            self.probe.on_decide(self.time, p, &o);
                        }
                        self.decisions[p.index()] = Some((self.time, o));
                        self.observed.note_decided(p);
                        self.stats.record_decision(self.time);
                        self.undecided_correct -= 1;
                    }
                }
                Step::Halt => {
                    self.halted[p.index()] = true;
                    if P::ENABLED {
                        self.probe.on_halt(self.time, p);
                    }
                }
            }
        }
    }

    fn apply_byz_steps(&mut self, p: ProcessId, sink: &mut ByzSink<M::Msg>) {
        let (equivocations, omissions) = sink.take_notes();
        self.stats.equivocations += equivocations;
        self.stats.omissions += omissions;
        for step in sink.drain() {
            match step {
                ByzStep::Send(to, msg) => self.enqueue_send(p, to, msg, false),
                ByzStep::Broadcast(msg) => self.enqueue_broadcast(p, msg, false),
                ByzStep::Timer(delay, tag) => self.enqueue_timer(p, delay, tag),
            }
        }
    }

    fn dispatch(&mut self, ev: Event) {
        let p = ev.node;
        // Every popped delivery leaves the receiver's observed inbox —
        // including deliveries to halted nodes, which were counted in.
        if let EventKind::Deliver { .. } = ev.kind {
            self.observed.note_dispatched(p);
        }
        if self.halted[p.index()] {
            // A halted receiver still consumes its reference to the
            // payload, or the slot would never be recycled.
            if let EventKind::Deliver { slot, .. } = ev.kind {
                self.release_payload(slot);
            }
            return;
        }
        let env = self.env_for(p);
        // The guard keeps the `NoProbe` case free of even the argument
        // computation.
        if P::ENABLED {
            match &ev.kind {
                EventKind::Start => self.probe.on_start(self.time, p),
                EventKind::Deliver { from, slot } => {
                    let msg = self.payloads.get(*slot);
                    self.probe.on_deliver(self.time, p, *from, msg);
                }
                EventKind::Timer { tag } => self.probe.on_timer_fire(self.time, p, *tag),
            }
        }
        if self.nodes[p.index()].is_correct() {
            // Lend the node the simulation-owned sink (taken out so the
            // borrow checker sees disjoint state; restored below).
            let mut sink = std::mem::take(&mut self.sink);
            {
                let NodeKind::Correct(m) = &mut self.nodes[p.index()] else {
                    unreachable!("checked above")
                };
                match ev.kind {
                    EventKind::Start => m.init(&env, &mut sink),
                    EventKind::Deliver { from, slot } => {
                        self.stats.record_delivery(p);
                        m.on_message(from, self.payloads.get(slot), &env, &mut sink);
                    }
                    EventKind::Timer { tag } => m.on_timer(tag, &env, &mut sink),
                }
            }
            if let EventKind::Deliver { slot, .. } = ev.kind {
                self.release_payload(slot);
            }
            // apply_correct_steps drained the sink; restore it (with its
            // capacity) for the next event.
            self.apply_correct_steps(p, &mut sink);
            self.sink = sink;
        } else {
            let mut sink = std::mem::take(&mut self.byz_sink);
            {
                let NodeKind::Byzantine(b) = &mut self.nodes[p.index()] else {
                    unreachable!("checked above")
                };
                // Adaptive behaviours get a fresh snapshot before every
                // hook. Disjoint-field borrows: `b` borrows `self.nodes`,
                // the view lives in `self.observed`.
                if self.observed.is_tracking() && b.observes() {
                    b.observe(&self.observed);
                }
                match ev.kind {
                    EventKind::Start => b.init(&env, &mut sink),
                    EventKind::Deliver { from, slot } => {
                        self.stats.record_delivery(p);
                        b.on_message(from, self.payloads.get(slot), &env, &mut sink);
                    }
                    EventKind::Timer { tag } => b.on_timer(tag, &env, &mut sink),
                }
            }
            if let EventKind::Deliver { slot, .. } = ev.kind {
                self.release_payload(slot);
            }
            self.apply_byz_steps(p, &mut sink);
            self.byz_sink = sink;
        }
    }

    /// Runs until every correct process decides (or a limit is hit).
    pub fn run_until_decided(&mut self) -> RunOutcome {
        self.run_inner(true)
    }

    /// Runs until the event queue drains (or a limit is hit). Useful for
    /// measuring the *full* message complexity including post-decision
    /// shutdown traffic.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_inner(false)
    }

    fn run_inner(&mut self, stop_on_decisions: bool) -> RunOutcome {
        loop {
            if stop_on_decisions && self.undecided_correct == 0 {
                return RunOutcome::AllDecided;
            }
            let Some((at, ev)) = self.queue.pop() else {
                return if self.undecided_correct == 0 {
                    RunOutcome::AllDecided
                } else {
                    RunOutcome::Quiescent
                };
            };
            if at > self.config.max_time {
                return RunOutcome::TimeLimit;
            }
            self.events_processed += 1;
            if P::ENABLED {
                // Fired exactly where `events_processed` increments, so a
                // probe's event count *is* the engine's count (single
                // source of truth — including the event that trips
                // `max_events` below).
                self.probe.on_queue_pop(at, self.queue.len());
                let class = match ev.kind {
                    EventKind::Start => EventClass::Start,
                    EventKind::Deliver { .. } => EventClass::Deliver,
                    EventKind::Timer { .. } => EventClass::Timer,
                };
                self.probe.on_event(at, ev.node, class);
            }
            if self.events_processed > self.config.max_events {
                return RunOutcome::EventLimit;
            }
            debug_assert!(at >= self.time, "time must be monotone");
            self.time = at;
            self.dispatch(ev);
        }
    }
}

/// Checks Agreement over a decision slice: no two correct decisions differ.
pub fn agreement_holds<O: PartialEq>(decisions: &[Option<(Time, O)>]) -> bool {
    let mut first: Option<&O> = None;
    for d in decisions.iter().flatten() {
        match first {
            None => first = Some(&d.1),
            Some(f) if *f == d.1 => {}
            Some(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FixedModel, PerLinkModel};
    use crate::node::{Message, Silent};
    use crate::trace::Trace;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);
    impl Message for Ping {
        fn words(&self) -> usize {
            2
        }
    }

    /// Broadcasts once, decides upon receiving n − t pings.
    #[derive(Clone, Debug)]
    struct QuorumPing {
        got: usize,
    }

    impl Machine for QuorumPing {
        type Msg = Ping;
        type Output = u64;

        fn init(&mut self, env: &Env, sink: &mut StepSink<Ping, u64>) {
            sink.broadcast(Ping(env.id.index() as u64));
        }

        fn on_message(
            &mut self,
            _from: ProcessId,
            _msg: &Ping,
            env: &Env,
            sink: &mut StepSink<Ping, u64>,
        ) {
            self.got += 1;
            if self.got == env.quorum() {
                sink.output(self.got as u64);
                sink.halt();
            }
        }
    }

    fn params() -> SystemParams {
        SystemParams::new(4, 1).unwrap()
    }

    fn quorum_nodes(byz: usize) -> Vec<NodeKind<QuorumPing>> {
        (0..4)
            .map(|i| {
                if i < 4 - byz {
                    NodeKind::Correct(QuorumPing { got: 0 })
                } else {
                    NodeKind::Byzantine(Box::new(Silent) as Box<dyn Byzantine<Ping>>)
                }
            })
            .collect()
    }

    #[test]
    fn all_correct_all_decide() {
        let mut sim = Simulation::new(SimConfig::new(params()).seed(1), quorum_nodes(0));
        let outcome = sim.run_until_decided();
        assert_eq!(outcome, RunOutcome::AllDecided);
        assert!(sim.decisions().iter().all(|d| d.is_some()));
        assert!(agreement_holds(sim.decisions()));
    }

    #[test]
    fn tolerates_one_silent_byzantine() {
        let mut sim = Simulation::new(SimConfig::new(params()).seed(2), quorum_nodes(1));
        assert_eq!(sim.run_until_decided(), RunOutcome::AllDecided);
        // The byzantine node never decides.
        assert!(sim.decisions()[3].is_none());
        assert_eq!(sim.correct_set().len(), 3);
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed| {
            let mut sim = Simulation::new(SimConfig::new(params()).seed(seed), quorum_nodes(1));
            sim.run_to_quiescence();
            (
                sim.stats().messages_total,
                sim.stats().deliveries,
                sim.stats().first_decision_at,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_change_timing_but_not_counts() {
        let run = |seed| {
            let mut sim = Simulation::new(SimConfig::new(params()).seed(seed), quorum_nodes(0));
            sim.run_to_quiescence();
            sim.stats().messages_total
        };
        // message counts are schedule-independent for this protocol
        assert_eq!(run(1), run(99));
    }

    #[test]
    fn word_accounting_uses_message_words() {
        let mut sim = Simulation::new(SimConfig::new(params()).seed(3).gst(0), quorum_nodes(0));
        sim.run_to_quiescence();
        // 4 broadcasts × 4 recipients = 16 messages of 2 words each
        assert_eq!(sim.stats().messages_total, 16);
        assert_eq!(sim.stats().words_total, 32);
        assert_eq!(sim.stats().messages_after_gst, 16); // gst = 0
    }

    #[test]
    fn pre_gst_messages_not_counted_in_complexity() {
        // GST far in the future: the run finishes before it.
        let cfg = SimConfig::new(params()).gst(1_000_000).seed(4);
        let mut sim = Simulation::new(cfg, quorum_nodes(0));
        sim.run_to_quiescence();
        assert_eq!(sim.stats().messages_after_gst, 0);
        assert!(sim.stats().messages_total > 0);
    }

    #[test]
    fn pre_gst_delivery_capped_at_gst_plus_delta() {
        // Fixed enormous pre-GST delay: messages still arrive by GST + δ.
        let cfg = SimConfig::new(params())
            .gst(500)
            .delta(10)
            .net(Arc::new(FixedModel(1_000_000)))
            .seed(5);
        let mut sim = Simulation::new(cfg, quorum_nodes(0));
        assert_eq!(sim.run_until_decided(), RunOutcome::AllDecided);
        let last = sim.stats().last_decision_at.unwrap();
        assert!(last <= 510, "decisions by GST + δ, got {last}");
    }

    #[test]
    fn per_link_policy_controls_schedule() {
        // Block all P1→P2 traffic until GST.
        let blocked = PerLinkModel::new("block-p1-p2", |from, to, _at| {
            if from == ProcessId(0) && to == ProcessId(1) {
                1_000_000
            } else {
                1
            }
        });
        assert_eq!(format!("{blocked:?}"), "PerLinkModel(block-p1-p2)");
        let cfg = SimConfig::new(params())
            .gst(500)
            .delta(10)
            .net(Arc::new(blocked))
            .seed(6);
        let mut sim = Simulation::new(cfg, quorum_nodes(0));
        sim.run_until_decided();
        // Delivery still happened (by GST + δ): reliability is preserved.
        assert!(sim.all_correct_decided());
    }

    #[test]
    fn staggered_starts_respected() {
        let mut cfg = SimConfig::new(params()).seed(7);
        cfg.start_times = vec![0, 0, 0, 900];
        let mut sim = Simulation::new(cfg, quorum_nodes(0));
        sim.run_until_decided();
        // The late starter's broadcast happens at ≥ 900.
        assert!(sim.stats().last_decision_at.unwrap() >= 900 || sim.decisions()[3].is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds t")]
    fn too_many_byzantine_rejected() {
        let _ = Simulation::new(SimConfig::new(params()), quorum_nodes(2));
    }

    /// Every `BuildError` variant, through both doors: `SimBuilder::build`
    /// names the error, `Simulation::new` panics with its message.
    #[test]
    fn invalid_setups_are_refused_on_both_doors() {
        // (δ, start-time count, node count, Byzantine slots) → error
        let cases = [
            (
                DEFAULT_DELTA,
                4,
                3,
                0,
                BuildError::NodeCount {
                    expected: 4,
                    got: 3,
                },
            ),
            (
                DEFAULT_DELTA,
                4,
                4,
                2,
                BuildError::TooManyFaulty { t: 1, got: 2 },
            ),
            (
                DEFAULT_DELTA,
                3,
                4,
                0,
                BuildError::StartTimes {
                    expected: 4,
                    got: 3,
                },
            ),
            (0, 4, 4, 0, BuildError::ZeroDelta),
        ];
        for (delta, starts, count, byz, want) in cases {
            let nodes = || -> Vec<_> { quorum_nodes(byz).into_iter().take(count).collect() };
            let builder = SimBuilder::new(params())
                .delta(delta)
                .start_times(vec![0; starts]);
            let cfg = builder.config().clone();
            assert_eq!(builder.build(nodes()).err(), Some(want.clone()));
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Simulation::new(cfg, nodes()).now()
            }))
            .expect_err("Simulation::new must refuse what the builder refuses");
            let text = panic
                .downcast_ref::<String>()
                .expect("panic! with a message");
            assert_eq!(*text, want.to_string());
        }
    }

    #[test]
    fn agreement_helper() {
        let d: Vec<Option<(Time, u64)>> = vec![Some((1, 5)), None, Some((2, 5))];
        assert!(agreement_holds(&d));
        let d: Vec<Option<(Time, u64)>> = vec![Some((1, 5)), Some((2, 6))];
        assert!(!agreement_holds(&d));
    }

    #[test]
    fn events_processed_counts_dispatches() {
        let mut sim = Simulation::new(SimConfig::new(params()).seed(1), quorum_nodes(0));
        sim.run_to_quiescence();
        // 4 starts + 16 deliveries
        assert_eq!(sim.events_processed(), 20);
    }

    /// A `Metrics` probe counts from the same hook the engine counter
    /// increments at, so the two can never drift (the `--timing` /
    /// `--observe` single-source-of-truth guarantee).
    #[test]
    fn metrics_probe_agrees_with_engine_counters() {
        let mut sim = Simulation::with_probe(
            SimConfig::new(params()).seed(1),
            quorum_nodes(0),
            crate::probe::Metrics::new(DEFAULT_DELTA),
        );
        sim.run_to_quiescence();
        let stats = sim.stats().clone();
        let events = sim.events_processed();
        let m = sim.into_probe();
        assert_eq!(m.events, events);
        assert_eq!(m.events, 20);
        assert_eq!(m.starts, 4);
        assert_eq!(m.messages, 16);
        assert_eq!(m.words, stats.words_total);
        assert_eq!(m.decides, 4);
        assert_eq!(m.halts, 4);
        // Halted receivers skip delivery hooks but still count as events.
        assert!(m.starts + m.deliveries + m.timer_fires <= m.events);
        assert_eq!(m.queue_pushes, 20); // 4 starts + 16 deliveries enqueued
        assert_eq!(m.queue_pops, 20);
        assert!(m.queue_high_water >= 4);
        assert!(m.slab_high_water >= 1);
        assert_eq!(m.latency.count(), 16);
        assert!(m.latency.max() <= 4 * DEFAULT_DELTA + DEFAULT_DELTA);
    }

    /// Probes observe but never perturb: a probed run is event-for-event
    /// identical to an unprobed run of the same seed.
    #[test]
    fn probes_do_not_perturb_the_execution() {
        let baseline = {
            let mut sim = Simulation::new(SimConfig::new(params()).seed(9), quorum_nodes(1));
            sim.run_to_quiescence();
            (
                sim.events_processed(),
                sim.stats().clone(),
                sim.decisions().to_vec(),
            )
        };
        let probed = {
            let mut sim = Simulation::with_probe(
                SimConfig::new(params()).seed(9),
                quorum_nodes(1),
                crate::probe::Tandem(
                    crate::probe::Metrics::new(DEFAULT_DELTA),
                    crate::probe::Tandem(crate::probe::Timeline::new(), Trace::new()),
                ),
            );
            sim.run_to_quiescence();
            (
                sim.events_processed(),
                sim.stats().clone(),
                sim.decisions().to_vec(),
            )
        };
        assert_eq!(baseline, probed);
    }

    /// The timeline probe and the trace observe through the same hooks, so
    /// they agree on the per-process event sequence of the same seeded run.
    #[test]
    fn timeline_and_trace_capture_the_same_events() {
        fn probed<P: Probe>(probe: P) -> P {
            let mut sim =
                Simulation::with_probe(SimConfig::new(params()).seed(4), quorum_nodes(0), probe);
            sim.run_to_quiescence();
            sim.into_probe()
        }
        let trace_len = probed(Trace::new()).len();
        let timeline = probed(crate::probe::Timeline::new());
        // Timeline additionally records halts, which traces do not.
        let halts = timeline
            .events()
            .iter()
            .filter(|e| e.kind == crate::probe::TimelineKind::Halt)
            .count();
        assert_eq!(timeline.len() - halts, trace_len);
    }

    /// Pins the RNG draw order across engine refactors: these decision
    /// times were recorded on the historical `BinaryHeap` + `Vec<Step>`
    /// engine and depend on every draw `arrival_plan` makes — including
    /// the "wasted" first draw before a pre-GST `Uniform` send (see the
    /// two-draw invariant on [`Simulation::arrival_plan`]). If this test
    /// fails, the draw order changed and **every** seeded execution in the
    /// repository (golden reports, committed baselines) changed with it.
    #[test]
    fn rng_draw_order_is_pinned() {
        let pinned: [(u64, Time, Time); 6] = [
            (0, 10, 24),
            (1, 6, 23),
            (2, 9, 26),
            (3, 16, 35),
            (4, 15, 34),
            (5, 7, 35),
        ];
        for (seed, first, last) in pinned {
            let cfg = SimConfig::new(params())
                .seed(seed)
                .gst(500)
                .delta(7)
                .net(Arc::new(UniformModel::new(40)));
            let mut sim = Simulation::new(cfg, quorum_nodes(0));
            sim.run_to_quiescence();
            assert_eq!(
                (
                    sim.stats().first_decision_at.unwrap(),
                    sim.stats().last_decision_at.unwrap()
                ),
                (first, last),
                "seed {seed}: RNG draw order or event order drifted"
            );
        }
    }

    /// The broadcast fast path shares one payload allocation across all
    /// recipients; accounting must be identical to per-recipient clones.
    #[test]
    fn shared_broadcast_payload_accounting_matches_sends() {
        #[derive(Clone, Debug)]
        struct Fat(Vec<u8>);
        impl Message for Fat {
            fn words(&self) -> usize {
                self.0.len()
            }
        }
        struct Once;
        impl Machine for Once {
            type Msg = Fat;
            type Output = ();
            fn init(&mut self, _env: &Env, sink: &mut StepSink<Fat, ()>) {
                sink.broadcast(Fat(vec![0; 5]));
            }
            fn on_message(&mut self, _f: ProcessId, m: &Fat, _e: &Env, _s: &mut StepSink<Fat, ()>) {
                assert_eq!(m.0.len(), 5);
            }
        }
        let nodes: Vec<NodeKind<Once>> = (0..4).map(|_| NodeKind::Correct(Once)).collect();
        let mut sim = Simulation::new(SimConfig::new(params()).seed(8).gst(0), nodes);
        sim.run_to_quiescence();
        assert_eq!(sim.stats().messages_total, 16);
        assert_eq!(sim.stats().words_total, 16 * 5);
        assert_eq!(sim.stats().deliveries, 16);
    }
}
