//! The instrumentation layer: a sink-style [`Probe`] trait with hooks on
//! every interesting point of the event loop, plus two concrete probes —
//! [`Metrics`] (fixed-size counters and histograms, allocation-free in
//! steady state) and [`Timeline`] (a per-process event log with JSONL and
//! Chrome `trace_event` emitters, and the indistinguishability queries the
//! paper's merge arguments need).
//!
//! # Design
//!
//! Probes mirror the [`crate::StepSink`] philosophy: the simulation owns
//! one probe, calls its hooks inline from the hot path, and the probe
//! mutates only its own state. Two properties follow by construction:
//!
//! * **Free when disabled.** [`Simulation`](crate::Simulation) is generic
//!   over its probe with [`NoProbe`] as the default. `NoProbe` sets the
//!   associated const [`Probe::ENABLED`] to `false`, and every hook site in
//!   the simulator is guarded by `if P::ENABLED` — so the disabled path is
//!   not a dynamic branch but a monomorphized no-op: the compiler deletes
//!   the hook calls *and* the argument computation feeding them. The
//!   committed golden-report fingerprints and the counting-allocator audit
//!   both run on this path and pin it at zero cost.
//! * **Determinism-preserving when enabled.** Hooks receive copies and
//!   shared references; no hook can touch the RNG, the queue, or the
//!   payload slab. An enabled probe therefore cannot perturb event order
//!   or RNG draw order — enabled and disabled runs of the same seed are
//!   byte-identical in every canonical artifact (pinned by the lab's
//!   golden-fingerprint test with `--observe` on).
//!
//! # Hook vocabulary
//!
//! | hook | fired |
//! |---|---|
//! | [`on_event`](Probe::on_event) | once per dispatched event, *including* events skipped because their target halted — the count equals [`Simulation::events_processed`](crate::Simulation::events_processed) |
//! | [`on_queue_push`](Probe::on_queue_push) / [`on_queue_pop`](Probe::on_queue_pop) | scheduler traffic, with the queue depth after the operation |
//! | [`on_send`](Probe::on_send) | once per enqueued delivery, with send time and (already-drawn) arrival time |
//! | [`on_drop`](Probe::on_drop) / [`on_duplicate`](Probe::on_duplicate) | network-model faults: a pre-GST send withheld to its DLS deadline / an extra copy injected (never fire under the legacy schedules) |
//! | [`on_slab_alloc`](Probe::on_slab_alloc) | payload-slab slot allocation, with the live-slot count after it |
//! | [`on_start`](Probe::on_start) / [`on_deliver`](Probe::on_deliver) / [`on_timer_fire`](Probe::on_timer_fire) | per-process observable events (non-halted targets only; with decides, what [`Timeline::view_of`] returns) |
//! | [`on_decide`](Probe::on_decide) / [`on_halt`](Probe::on_halt) | protocol outputs and voluntary halts |

use std::fmt::{self, Debug};

use validity_core::ProcessId;

use crate::time::{Time, DEFAULT_DELTA};

/// An instrumentation sink for the simulation hot path.
///
/// All hooks default to no-ops, so a probe implements only what it needs.
/// Hooks must be cheap and must not allocate per event if the probe is to
/// preserve the engine's zero-allocation steady state (see [`Metrics`] for
/// the fixed-size-structure discipline that achieves this).
pub trait Probe {
    /// Compile-time switch: when `false` (only [`NoProbe`]), every hook
    /// site in the simulator — including the computation of hook arguments
    /// — is compiled away entirely.
    const ENABLED: bool = true;

    /// An event was dispatched at `at` to `node`. Fired for **every**
    /// event the engine counts, including deliveries skipped because the
    /// target had halted and the event that trips `max_events`; the total
    /// equals [`crate::Simulation::events_processed`].
    fn on_event(&mut self, _at: Time, _node: ProcessId) {}

    /// An event was pushed onto the scheduler for time `at`; `depth` is
    /// the queue length after the push.
    fn on_queue_push(&mut self, _at: Time, _depth: usize) {}

    /// The event dispatched at `at` was popped; `depth` is the queue
    /// length after the pop. Fired together with [`Probe::on_event`], so
    /// pops of events beyond `max_time` are not observed.
    fn on_queue_pop(&mut self, _at: Time, _depth: usize) {}

    /// A delivery `from → to` of a `words`-word message was enqueued:
    /// sent at `sent_at`, scheduled to arrive at `arrival` (the delivery
    /// latency is `arrival - sent_at`).
    fn on_send(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        _words: usize,
        _sent_at: Time,
        _arrival: Time,
    ) {
    }

    /// A pre-GST send `from → to` was withheld to its DLS deadline by a
    /// [`crate::net::Loss`] model: sent at `sent_at`, it arrives exactly
    /// at `arrival = gst + post_gst_jitter`. Fired before the
    /// [`Probe::on_send`] for the same delivery. Never fires under the
    /// legacy schedules.
    fn on_drop(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time, _arrival: Time) {}

    /// A [`crate::net::Duplicate`] model injected an extra copy of a
    /// delivery `from → to`, arriving at the same `arrival` tick as the
    /// original. Fired once per extra copy, after the original's
    /// [`Probe::on_send`]. Never fires under the legacy schedules.
    fn on_duplicate(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time, _arrival: Time) {}

    /// A payload-slab slot was allocated; `live` is the number of live
    /// slots after the allocation.
    fn on_slab_alloc(&mut self, _live: usize) {}

    /// `node` started at `at` (non-halted targets only).
    fn on_start(&mut self, _at: Time, _node: ProcessId) {}

    /// `node` received `message` from `from` at `at` (non-halted targets
    /// only). The message is borrowed from the payload slab; render it
    /// with `format!("{message:?}")` if the probe needs its content.
    fn on_deliver(&mut self, _at: Time, _node: ProcessId, _from: ProcessId, _message: &dyn Debug) {}

    /// `node`'s timer `tag` fired at `at` (non-halted targets only).
    fn on_timer_fire(&mut self, _at: Time, _node: ProcessId, _tag: u64) {}

    /// `node` produced its first output at `at`.
    fn on_decide(&mut self, _at: Time, _node: ProcessId, _output: &dyn Debug) {}

    /// `node` halted voluntarily at `at`.
    fn on_halt(&mut self, _at: Time, _node: ProcessId) {}
}

/// The disabled probe: every hook is a no-op and [`Probe::ENABLED`] is
/// `false`, so the monomorphized simulation contains no instrumentation
/// code at all. This is the default probe of [`crate::Simulation`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

// ---------------------------------------------------------------------------
// Metrics

/// Number of log2 buckets in a [`Hist`] — enough for the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Number of per-round buckets [`Metrics`] keeps; later rounds fold into
/// the last bucket.
pub const ROUND_BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` values: bucket 0 holds zeros and
/// bucket `b ≥ 1` holds `[2^(b-1), 2^b)`. Fixed-size, integer-only, and
/// `Copy` — recording never allocates, and every derived statistic is
/// deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Hist {
    /// An empty histogram.
    pub const fn new() -> Hist {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index for `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
        .min(HIST_BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, saturating at `u64::MAX` (latencies near
    /// `Time::MAX` would otherwise wrap it below [`Hist::max`]).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// An upper bound on the `pct`-th percentile (0–100): the inclusive
    /// upper edge of the bucket where the cumulative count crosses it,
    /// clamped to the recorded maximum. Bucketed, so approximate — but
    /// deterministic and allocation-free.
    pub fn quantile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * pct.min(100)).div_ceil(100).max(1);
        let mut acc = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                let ceil = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return ceil.min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (b, c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

/// The metrics probe: engine counters, latency and queue-depth histograms,
/// per-round message/word counters, and high-water marks — all recorded
/// into preallocated fixed-size structures, so an enabled `Metrics` probe
/// adds **zero** steady-state allocation (audited alongside the disabled
/// path in `tests/alloc_audit.rs`).
///
/// "Round" here is wall-time bucketing by `round_width` ticks (use the
/// run's `δ` for the paper's round granularity): a message sent at `s`
/// lands in round `s / round_width`, with rounds past
/// [`ROUND_BUCKETS`]` - 1` folded into the last bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metrics {
    round_width: Time,
    /// Events dispatched — equals
    /// [`crate::Simulation::events_processed`] for the probed run.
    pub events: u64,
    /// Start events delivered to non-halted processes.
    pub starts: u64,
    /// Message deliveries to non-halted processes.
    pub deliveries: u64,
    /// Timer expiries on non-halted processes.
    pub timer_fires: u64,
    /// First decisions.
    pub decides: u64,
    /// Voluntary halts.
    pub halts: u64,
    /// Deliveries enqueued (messages sent, Byzantine senders included).
    pub messages: u64,
    /// Words across all enqueued deliveries.
    pub words: u64,
    /// Pre-GST sends withheld to their DLS deadline by a loss model.
    pub dropped: u64,
    /// Duplicate copies injected by a duplication model.
    pub duplicated: u64,
    /// Scheduler pushes observed.
    pub queue_pushes: u64,
    /// Scheduler pops observed (dispatched events only).
    pub queue_pops: u64,
    /// Delivery latency (`arrival − sent_at`) per enqueued delivery.
    pub latency: Hist,
    /// Queue depth sampled after every push.
    pub queue_depth: Hist,
    /// Deepest queue observed.
    pub queue_high_water: u64,
    /// Most live payload-slab slots observed.
    pub slab_high_water: u64,
    /// Messages sent per round (`sent_at / round_width`, last bucket
    /// cumulative).
    pub round_messages: [u64; ROUND_BUCKETS],
    /// Words sent per round.
    pub round_words: [u64; ROUND_BUCKETS],
}

impl Metrics {
    /// A zeroed metrics probe bucketing rounds at `round_width` ticks
    /// (clamped to ≥ 1). Pass the simulation's `δ` for paper-style rounds.
    pub fn new(round_width: Time) -> Metrics {
        Metrics {
            round_width: round_width.max(1),
            events: 0,
            starts: 0,
            deliveries: 0,
            timer_fires: 0,
            decides: 0,
            halts: 0,
            messages: 0,
            words: 0,
            dropped: 0,
            duplicated: 0,
            queue_pushes: 0,
            queue_pops: 0,
            latency: Hist::new(),
            queue_depth: Hist::new(),
            queue_high_water: 0,
            slab_high_water: 0,
            round_messages: [0; ROUND_BUCKETS],
            round_words: [0; ROUND_BUCKETS],
        }
    }

    /// The round width this probe buckets by.
    pub fn round_width(&self) -> Time {
        self.round_width
    }

    /// The non-empty rounds as `(round index, messages, words)` triples.
    pub fn rounds(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        (0..ROUND_BUCKETS)
            .filter(|&r| self.round_messages[r] > 0 || self.round_words[r] > 0)
            .map(|r| (r, self.round_messages[r], self.round_words[r]))
    }

    /// Folds another run's metrics into this one: counters add, histograms
    /// merge, high-water marks take the max. Merging runs recorded at
    /// different round widths keeps this probe's width (the per-round
    /// arrays still add bucket-wise).
    pub fn merge(&mut self, other: &Metrics) {
        self.events += other.events;
        self.starts += other.starts;
        self.deliveries += other.deliveries;
        self.timer_fires += other.timer_fires;
        self.decides += other.decides;
        self.halts += other.halts;
        self.messages += other.messages;
        self.words += other.words;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.queue_pushes += other.queue_pushes;
        self.queue_pops += other.queue_pops;
        self.latency.merge(&other.latency);
        self.queue_depth.merge(&other.queue_depth);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.slab_high_water = self.slab_high_water.max(other.slab_high_water);
        for r in 0..ROUND_BUCKETS {
            self.round_messages[r] += other.round_messages[r];
            self.round_words[r] += other.round_words[r];
        }
    }
}

impl Default for Metrics {
    /// Buckets rounds at the default `δ` ([`DEFAULT_DELTA`]).
    fn default() -> Metrics {
        Metrics::new(DEFAULT_DELTA)
    }
}

impl Probe for Metrics {
    #[inline]
    fn on_event(&mut self, _at: Time, _node: ProcessId) {
        self.events += 1;
    }

    #[inline]
    fn on_queue_push(&mut self, _at: Time, depth: usize) {
        self.queue_pushes += 1;
        let depth = depth as u64;
        self.queue_depth.record(depth);
        if depth > self.queue_high_water {
            self.queue_high_water = depth;
        }
    }

    #[inline]
    fn on_queue_pop(&mut self, _at: Time, _depth: usize) {
        self.queue_pops += 1;
    }

    #[inline]
    fn on_send(
        &mut self,
        _from: ProcessId,
        _to: ProcessId,
        words: usize,
        sent_at: Time,
        arrival: Time,
    ) {
        self.messages += 1;
        self.words += words as u64;
        self.latency.record(arrival.saturating_sub(sent_at));
        let round = ((sent_at / self.round_width) as usize).min(ROUND_BUCKETS - 1);
        self.round_messages[round] += 1;
        self.round_words[round] += words as u64;
    }

    #[inline]
    fn on_drop(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time, _arrival: Time) {
        self.dropped += 1;
    }

    #[inline]
    fn on_duplicate(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time, _arrival: Time) {
        self.duplicated += 1;
    }

    #[inline]
    fn on_slab_alloc(&mut self, live: usize) {
        let live = live as u64;
        if live > self.slab_high_water {
            self.slab_high_water = live;
        }
    }

    #[inline]
    fn on_start(&mut self, _at: Time, _node: ProcessId) {
        self.starts += 1;
    }

    #[inline]
    fn on_deliver(&mut self, _at: Time, _node: ProcessId, _from: ProcessId, _message: &dyn Debug) {
        self.deliveries += 1;
    }

    #[inline]
    fn on_timer_fire(&mut self, _at: Time, _node: ProcessId, _tag: u64) {
        self.timer_fires += 1;
    }

    #[inline]
    fn on_decide(&mut self, _at: Time, _node: ProcessId, _output: &dyn Debug) {
        self.decides += 1;
    }

    #[inline]
    fn on_halt(&mut self, _at: Time, _node: ProcessId) {
        self.halts += 1;
    }
}

// ---------------------------------------------------------------------------
// Timeline

/// What happened in one [`TimelineEvent`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TimelineKind {
    /// The process started.
    Start,
    /// A message arrived.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// `Debug` rendering of the message.
        message: String,
    },
    /// A timer fired.
    TimerFire {
        /// The timer tag.
        tag: u64,
    },
    /// The process produced its first output.
    Decide {
        /// `Debug` rendering of the output.
        output: String,
    },
    /// The process halted.
    Halt,
}

impl TimelineKind {
    /// The short name used in both emitted formats.
    pub fn name(&self) -> &'static str {
        match self {
            TimelineKind::Start => "start",
            TimelineKind::Deliver { .. } => "deliver",
            TimelineKind::TimerFire { .. } => "timer",
            TimelineKind::Decide { .. } => "decide",
            TimelineKind::Halt => "halt",
        }
    }
}

/// One entry of a [`Timeline`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimelineEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// The process that observed it.
    pub process: ProcessId,
    /// What happened.
    pub kind: TimelineKind,
}

/// The timeline probe: records every per-process observable event
/// (start / deliver / timer / decide / halt) in global dispatch order,
/// renders the log as JSONL or as Chrome `trace_event` JSON
/// (`chrome://tracing`, Perfetto), and answers the paper's merge-argument
/// questions ("process P cannot distinguish E from E′") through
/// [`Timeline::indistinguishable_for`].
///
/// Message and output contents are rendered eagerly with
/// `format!("{:?}")`; that rendering is what the indistinguishability
/// check compares, and the two export formats leave it out. Unlike
/// [`Metrics`] this probe grows a `Vec` — it is a diagnostic recorder,
/// not a hot-path resident — but it is exactly as determinism-preserving:
/// recording only copies values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// The recorded events, in global dispatch order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events `process` observed, in order. A halt is the process's
    /// own action, not something it observes, so halts are left out.
    pub fn view_of(&self, process: ProcessId) -> Vec<&TimelineEvent> {
        self.events
            .iter()
            .filter(|e| e.process == process && e.kind != TimelineKind::Halt)
            .collect()
    }

    /// Whether `process` observes the same *content prefix* in both
    /// timelines up to (exclusive) its `limit`-th event — the "cannot
    /// distinguish E from E′" relation of the merge constructions.
    /// Timestamps are ignored: what a process observes is message contents
    /// and their order, not the instants, which the adversary controls.
    pub fn indistinguishable_for(
        &self,
        other: &Timeline,
        process: ProcessId,
        limit: usize,
    ) -> bool {
        let a = self.view_of(process);
        let b = other.view_of(process);
        let k = limit.min(a.len()).min(b.len());
        if limit > a.len() && limit > b.len() && a.len() != b.len() {
            return false;
        }
        (0..k).all(|i| a[i].kind == b[i].kind)
    }

    /// The first decision recorded for `process`, if any.
    pub fn decision_of(&self, process: ProcessId) -> Option<(Time, String)> {
        self.view_of(process)
            .into_iter()
            .find_map(|e| match &e.kind {
                TimelineKind::Decide { output } => Some((e.at, output.clone())),
                _ => None,
            })
    }

    /// Renders the timeline as JSON Lines: one object per event, with
    /// `at`, `process`, `kind`, and kind-specific fields (`from`, `tag`).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"at\": {}, \"process\": {}, \"kind\": \"{}\"",
                e.at,
                e.process.index(),
                e.kind.name()
            );
            match e.kind {
                TimelineKind::Deliver { from, .. } => {
                    let _ = write!(out, ", \"from\": {}", from.index());
                }
                TimelineKind::TimerFire { tag } => {
                    let _ = write!(out, ", \"tag\": {tag}");
                }
                _ => {}
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the timeline in Chrome `trace_event` format (the JSON
    /// object form, loadable in `chrome://tracing` or Perfetto): one
    /// thread-scoped instant event per entry, with the process index as
    /// `tid` and one simulated tick mapped to one microsecond.
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let args = match e.kind {
                TimelineKind::Deliver { from, .. } => format!("{{\"from\": {}}}", from.index()),
                TimelineKind::TimerFire { tag } => format!("{{\"tag\": {tag}}}"),
                _ => "{}".to_string(),
            };
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \
                 \"pid\": 0, \"tid\": {}, \"args\": {}}}{}",
                e.kind.name(),
                e.at,
                e.process.index(),
                args,
                if i + 1 == self.events.len() {
                    "\n"
                } else {
                    ",\n"
                }
            );
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    fn push(&mut self, at: Time, process: ProcessId, kind: TimelineKind) {
        self.events.push(TimelineEvent { at, process, kind });
    }
}

impl Probe for Timeline {
    fn on_start(&mut self, at: Time, node: ProcessId) {
        self.push(at, node, TimelineKind::Start);
    }

    fn on_deliver(&mut self, at: Time, node: ProcessId, from: ProcessId, message: &dyn Debug) {
        let message = format!("{message:?}");
        self.push(at, node, TimelineKind::Deliver { from, message });
    }

    fn on_timer_fire(&mut self, at: Time, node: ProcessId, tag: u64) {
        self.push(at, node, TimelineKind::TimerFire { tag });
    }

    fn on_decide(&mut self, at: Time, node: ProcessId, output: &dyn Debug) {
        let output = format!("{output:?}");
        self.push(at, node, TimelineKind::Decide { output });
    }

    fn on_halt(&mut self, at: Time, node: ProcessId) {
        self.push(at, node, TimelineKind::Halt);
    }
}

/// One line per event: `[at] process: content`, with the message and
/// output renderings the indistinguishability check compares.
impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            write!(f, "[{:>8}] {}: ", e.at, e.process)?;
            match &e.kind {
                TimelineKind::Start => writeln!(f, "started"),
                TimelineKind::Deliver { from, message } => writeln!(f, "recv {from}: {message}"),
                TimelineKind::TimerFire { tag } => writeln!(f, "timer {tag}"),
                TimelineKind::Decide { output } => writeln!(f, "decided {output}"),
                TimelineKind::Halt => writeln!(f, "halted"),
            }?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_disabled_at_compile_time() {
        fn enabled<P: Probe>() -> bool {
            P::ENABLED
        }
        assert!(!enabled::<NoProbe>());
        assert!(enabled::<Metrics>());
        assert!(enabled::<Timeline>());
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1023), 10);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn hist_statistics_are_integer_exact() {
        let mut h = Hist::new();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.mean(), 21);
        assert_eq!(h.max(), 100);
        // p50 crosses in bucket 2 ([2, 3]); its ceiling is 3.
        assert_eq!(h.quantile(50), 3);
        assert_eq!(h.quantile(100), 100);
        assert_eq!(Hist::new().quantile(50), 0);
        assert_eq!(h.nonzero().count(), 4); // buckets 0, 1, 2, 7
    }

    #[test]
    fn hist_merge_adds() {
        let mut a = Hist::new();
        a.record(5);
        let mut b = Hist::new();
        b.record(7);
        b.record(900);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 912);
        assert_eq!(a.max(), 900);
    }

    #[test]
    fn hist_sum_saturates_instead_of_wrapping() {
        let mut a = Hist::new();
        a.record(u64::MAX / 2);
        a.record(u64::MAX / 2 + 2);
        assert_eq!(a.sum(), u64::MAX);
        let b = a;
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 4);
        assert!(a.sum() >= a.max());
    }

    #[test]
    fn metrics_round_bucketing_caps_at_last_bucket() {
        let mut m = Metrics::new(10);
        m.on_send(ProcessId(0), ProcessId(1), 2, 5, 9); // round 0
        m.on_send(ProcessId(0), ProcessId(1), 3, 25, 30); // round 2
        m.on_send(ProcessId(0), ProcessId(1), 1, 1_000_000, 1_000_001); // overflow
        assert_eq!(m.messages, 3);
        assert_eq!(m.words, 6);
        assert_eq!(m.round_messages[0], 1);
        assert_eq!(m.round_messages[2], 1);
        assert_eq!(m.round_messages[ROUND_BUCKETS - 1], 1);
        assert_eq!(m.rounds().count(), 3);
        assert_eq!(m.latency.count(), 3);
        assert_eq!(m.latency.max(), 5);
    }

    #[test]
    fn metrics_merge_combines_counters_and_high_waters() {
        let mut a = Metrics::new(10);
        a.on_queue_push(0, 4);
        a.on_slab_alloc(2);
        let mut b = Metrics::new(10);
        b.on_queue_push(0, 9);
        b.on_slab_alloc(1);
        b.on_event(0, ProcessId(0));
        a.merge(&b);
        assert_eq!(a.queue_pushes, 2);
        assert_eq!(a.queue_high_water, 9);
        assert_eq!(a.slab_high_water, 2);
        assert_eq!(a.events, 1);
    }

    #[test]
    fn timeline_emits_jsonl_and_chrome_trace() {
        let mut t = Timeline::new();
        t.on_start(0, ProcessId(0));
        t.on_deliver(5, ProcessId(1), ProcessId(0), &"m");
        t.on_timer_fire(9, ProcessId(0), 7);
        t.on_decide(12, ProcessId(1), &42u64);
        t.on_halt(12, ProcessId(1));
        assert_eq!(t.len(), 5);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("{\"at\": 5, \"process\": 1, \"kind\": \"deliver\", \"from\": 0}"));
        assert!(jsonl.contains("\"tag\": 7"));
        let chrome = t.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\": ["));
        assert!(chrome.contains("\"name\": \"decide\""));
        assert!(chrome.contains("\"tid\": 1"));
        assert!(chrome.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
    }

    /// Process 0 starts, hears "hello" from process 1 and decides 42;
    /// process 1 only starts.
    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.on_start(0, ProcessId(0));
        t.on_deliver(5, ProcessId(0), ProcessId(1), &"hello");
        t.on_start(0, ProcessId(1));
        t.on_decide(9, ProcessId(0), &42u64);
        t
    }

    #[test]
    fn view_of_filters_by_process() {
        let t = sample();
        assert_eq!(t.view_of(ProcessId(0)).len(), 3);
        assert_eq!(t.view_of(ProcessId(1)).len(), 1);
        assert_eq!(t.view_of(ProcessId(2)).len(), 0);
    }

    #[test]
    fn view_of_skips_halts() {
        let mut t = sample();
        t.on_halt(9, ProcessId(0));
        assert_eq!(t.len(), 5);
        assert_eq!(t.view_of(ProcessId(0)).len(), 3);
        // Over their whole views, a process that halted is
        // indistinguishable from one that did not.
        assert!(t.indistinguishable_for(&sample(), ProcessId(0), usize::MAX));
    }

    #[test]
    fn decision_lookup() {
        let t = sample();
        assert_eq!(t.decision_of(ProcessId(0)), Some((9, "42".into())));
        assert_eq!(t.decision_of(ProcessId(1)), None);
    }

    #[test]
    fn indistinguishability_ignores_timing() {
        let a = sample();
        let mut b = Timeline::new();
        // Same contents, different times — still indistinguishable.
        b.on_start(100, ProcessId(0));
        b.on_deliver(700, ProcessId(0), ProcessId(1), &"hello");
        b.on_decide(900, ProcessId(0), &42u64);
        assert!(a.indistinguishable_for(&b, ProcessId(0), 3));
    }

    #[test]
    fn indistinguishability_detects_divergence() {
        let a = sample();
        let mut b = Timeline::new();
        b.on_start(0, ProcessId(0));
        b.on_deliver(5, ProcessId(0), ProcessId(2), &"hello"); // different sender!
        assert!(a.indistinguishable_for(&b, ProcessId(0), 1));
        assert!(!a.indistinguishable_for(&b, ProcessId(0), 2));
    }

    #[test]
    fn display_renders_one_line_per_event() {
        let t = sample();
        assert_eq!(t.to_string().lines().count(), t.len());
        assert!(t.to_string().contains("recv P2: \"hello\""), "{t}");
    }
}
