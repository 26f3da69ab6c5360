//! Zero-allocation audit of the simulator hot path.
//!
//! A counting global allocator measures the heap traffic of the event loop
//! in steady state. Two runs of the same workload that differ only in
//! `max_events` isolate the marginal cost of the extra events: after the
//! warm-up prefix (sink capacity, the calendar queue's block pool and ring,
//! payload-slab slots, stats vectors), the engine itself must allocate
//! **nothing** per event — point-to-point and broadcast alike. Broadcast
//! payloads live in the free-listed `PayloadSlab` (one recycled slot per
//! in-flight message), so the only allocations a broadcast can cost are the
//! ones the machine's own payload construction performs (none here:
//! `Ping(u64)`). Timer tags wider than 32 bits wait in a free-listed tag
//! table the same way, so a timer-heavy machine allocates nothing per
//! timer either. A short run pays for what its queue holds, not for how
//! far ahead it schedules: the queue allocates per pool or ring doubling,
//! never per distinct tick. The adaptive adversaries' median read of the
//! observed view allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use validity_core::{ProcessId, SystemParams};
use validity_simnet::{
    CalendarQueue, Env, Machine, Message, Metrics, NoProbe, NodeKind, ObservedState, Probe,
    SimBuilder, StepSink,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-wide and the test harness runs tests on parallel
/// threads, so every test holds this lock while it counts.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another audit failed; `()` has no state
    // that failure could have left half-updated.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Debug)]
struct Ping(u64);
impl Message for Ping {}

/// Point-to-point forever: every delivery forwards one message to the next
/// process; a timer re-arms each round so the timer path is exercised too.
struct RingForwarder;

impl Machine for RingForwarder {
    type Msg = Ping;
    type Output = u64;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Ping, u64>) {
        sink.send(
            ProcessId::from_index((env.id.index() + 1) % env.n()),
            Ping(0),
        );
        sink.timer(env.delta, 0);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: &Ping,
        env: &Env,
        sink: &mut StepSink<Ping, u64>,
    ) {
        sink.send(
            ProcessId::from_index((env.id.index() + 1) % env.n()),
            Ping(msg.0 + 1),
        );
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Ping, u64>) {
        sink.timer(env.delta, tag);
    }
}

/// Broadcast-heavy forever: every n-th delivery triggers a broadcast.
struct Rebroadcaster {
    got: usize,
}

impl Machine for Rebroadcaster {
    type Msg = Ping;
    type Output = u64;

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Ping, u64>) {
        sink.broadcast(Ping(0));
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: &Ping,
        env: &Env,
        sink: &mut StepSink<Ping, u64>,
    ) {
        self.got += 1;
        if self.got.is_multiple_of(env.n()) {
            sink.broadcast(Ping(msg.0 + 1));
        }
    }
}

/// Timers only, with tags too wide for an event: eight in flight per
/// process, each re-armed as it fires (Algorithm 3's tags for round
/// `u32::MAX`). A tag table that did not recycle would grow with the run.
struct TimerChurn;

const TIMERS: u64 = 8;

impl Machine for TimerChurn {
    type Msg = Ping;
    type Output = u64;

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Ping, u64>) {
        for j in 0..TIMERS {
            sink.timer(1 + j, u64::from(u32::MAX) * 128 + j);
        }
    }

    fn on_message(&mut self, _f: ProcessId, _m: &Ping, _e: &Env, _s: &mut StepSink<Ping, u64>) {}

    fn on_timer(&mut self, tag: u64, _env: &Env, sink: &mut StepSink<Ping, u64>) {
        sink.timer(1 + tag % TIMERS, tag);
    }
}

/// Runs a simulation with `probe` for exactly `events` events and returns
/// the allocation count observed across the run.
fn measure_with<M: Machine, P: Probe>(events: u64, nodes: Vec<NodeKind<M>>, probe: P) -> u64 {
    let params = SystemParams::new(4, 1).unwrap();
    let mut sim = SimBuilder::new(params)
        .seed(42)
        .max_events(events)
        .build_with_probe(nodes, probe)
        .expect("valid configuration");
    let before = allocs();
    sim.run_until_decided();
    let after = allocs();
    assert_eq!(sim.events_processed(), events + 1, "workload must saturate");
    after - before
}

/// Asserts the marginal cost of 40k extra events is (next to) nothing for
/// both workload shapes under the given probe constructor.
fn audit_steady_state<P: Probe>(label: &str, mut probe: impl FnMut() -> P) {
    let ring = |_: usize| {
        (0..4)
            .map(|_| NodeKind::Correct(RingForwarder))
            .collect::<Vec<_>>()
    };
    // Warm-up run vs. longer run: the marginal 40_000 events must cost
    // (next to) nothing. The queue's block pool and ring reach their
    // working size within the short run.
    let short = measure_with(10_000, ring(0), probe());
    let long = measure_with(50_000, ring(0), probe());
    let marginal = long.saturating_sub(short);
    assert!(
        marginal <= 8,
        "[{label}] p2p steady state allocated {marginal} times over 40k \
         extra events (short run: {short}, long run: {long})"
    );

    // Broadcast workload: payloads go through the recycled slab, so the
    // steady state must be just as allocation-free as the p2p path.
    let bcast = |_: usize| {
        (0..4)
            .map(|_| NodeKind::Correct(Rebroadcaster { got: 0 }))
            .collect::<Vec<_>>()
    };
    let short = measure_with(10_000, bcast(0), probe());
    let long = measure_with(50_000, bcast(0), probe());
    let marginal = long.saturating_sub(short);
    assert!(
        marginal <= 8,
        "[{label}] broadcast steady state allocated {marginal} times over \
         40k extra events (short run: {short}, long run: {long})"
    );

    // Timer workload: every event is a wide-tag timer, and the queue's
    // working size is reached within the short run, so the marginal
    // events allocate nothing at all.
    let timers = || {
        (0..4)
            .map(|_| NodeKind::Correct(TimerChurn))
            .collect::<Vec<_>>()
    };
    let short = measure_with(10_000, timers(), probe());
    let long = measure_with(50_000, timers(), probe());
    assert_eq!(
        long,
        short,
        "[{label}] timer steady state allocated {} times over 40k extra \
         events (short run: {short}, long run: {long})",
        long.saturating_sub(short)
    );
}

#[test]
fn steady_state_event_loop_does_not_allocate() {
    let _serial = serial();
    // Disabled probe: the default `Simulation::new` path must stay
    // allocation-free per event — the probe layer compiles away entirely.
    audit_steady_state("NoProbe", || NoProbe);

    // Enabled `Metrics` probe: every counter and histogram lives in a
    // preallocated fixed-size structure, so even the *instrumented* hot
    // path allocates nothing in steady state.
    audit_steady_state("Metrics", || Metrics::new(100));
}

/// The queue of a short cell: 2 000 events over 600 distinct ticks within
/// the first 2 048, plus 20 at +34 300 (Algorithm 4's slow-broadcast wait
/// δ·7³ at n = 7), then drained. Buckets allocated per tick would cost
/// about one allocation per distinct tick here (600); the block pool
/// allocates only when it or the ring doubles, plus once for the far tier
/// (17 in all).
#[test]
fn short_run_queue_allocates_per_doubling_not_per_tick() {
    let _serial = serial();
    let before = allocs();
    let mut q = CalendarQueue::new();
    for i in 0..2_000u64 {
        q.push((i * 7 % 600) * 3, i);
    }
    for i in 0..20u64 {
        q.push(34_300, i);
    }
    let mut popped = 0;
    while q.pop().is_some() {
        popped += 1;
    }
    let made = allocs() - before;
    assert_eq!(popped, 2_020);
    assert!(made <= 24, "a 2 020-event queue allocated {made} times");
}

/// `SplitBrain` reads the median on every observation hook.
#[test]
fn median_delivered_allocates_nothing() {
    let n = validity_core::MAX_PROCESSES;
    let mut v = ObservedState::tracking(n);
    for i in 0..n {
        for _ in 0..i % 5 {
            v.note_enqueued(ProcessId::from_index(i));
            v.note_dispatched(ProcessId::from_index(i));
        }
    }
    let _serial = serial();
    let before = allocs();
    let median = v.median_delivered();
    let made = allocs() - before;
    assert_eq!(median, 2);
    assert_eq!(made, 0, "median_delivered allocated {made} times");
}
