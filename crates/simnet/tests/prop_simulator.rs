//! Property-based tests of the simulator itself: determinism, delivery
//! guarantees (the DLS "by GST + δ" rule), and accounting consistency —
//! the model-level invariants every protocol result rests on.

use std::sync::Arc;

use proptest::prelude::*;
use validity_core::{ProcessId, SystemParams};
use validity_simnet::{
    ByzSink, Byzantine, Env, EventClass, FixedModel, Machine, Message, NodeKind, Probe, RunOutcome,
    Silent, SimBuilder, Simulation, StepSink, SyncModel, Time,
};

#[derive(Clone, Debug)]
struct Tick(#[allow(dead_code)] u64); // payload carried for Debug-trace realism
impl Message for Tick {
    fn words(&self) -> usize {
        1
    }
}

/// Broadcasts once at start; decides after hearing from a quorum.
#[derive(Clone, Debug, Default)]
struct QuorumHear {
    heard: usize,
}

impl Machine for QuorumHear {
    type Msg = Tick;
    type Output = u64;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Tick, u64>) {
        sink.broadcast(Tick(env.id.index() as u64));
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        _m: &Tick,
        env: &Env,
        sink: &mut StepSink<Tick, u64>,
    ) {
        self.heard += 1;
        if self.heard == env.quorum() {
            sink.output(self.heard as u64);
            sink.halt();
        }
    }
}

fn build(n: usize, t: usize, byz: usize, builder: SimBuilder) -> Simulation<QuorumHear> {
    let _ = t;
    let nodes: Vec<NodeKind<QuorumHear>> = (0..n)
        .map(|i| {
            if i < n - byz {
                NodeKind::Correct(QuorumHear::default())
            } else {
                NodeKind::Byzantine(Box::new(Silent))
            }
        })
        .collect();
    builder.build(nodes).expect("valid configuration")
}

/// Broadcasts once at start; decides after hearing from every process,
/// so no decision comes before the Byzantine node speaks.
#[derive(Default)]
struct HearAll {
    heard: usize,
}

impl Machine for HearAll {
    type Msg = Tick;
    type Output = u64;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Tick, u64>) {
        sink.broadcast(Tick(env.id.index() as u64));
    }

    fn on_message(&mut self, _f: ProcessId, _m: &Tick, env: &Env, sink: &mut StepSink<Tick, u64>) {
        self.heard += 1;
        if self.heard == env.n() {
            sink.output(self.heard as u64);
        }
    }
}

/// On its first delivery arms one timer of delay `Time::MAX − k` per `k`,
/// tagged with the tick it was armed at; broadcasts whenever one fires.
struct LateArmer {
    ks: Vec<u64>,
    armed: bool,
}

impl Byzantine<Tick> for LateArmer {
    fn on_message(&mut self, _f: ProcessId, _m: &Tick, env: &Env, sink: &mut ByzSink<Tick>) {
        if !std::mem::replace(&mut self.armed, true) {
            for &k in &self.ks {
                sink.timer(Time::MAX - k, env.now);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, _env: &Env, sink: &mut ByzSink<Tick>) {
        sink.broadcast(Tick(tag));
    }
}

/// Records every event that fires before it was armed or sent, and every
/// step back in time.
#[derive(Default)]
struct Causality {
    last: Time,
    violations: Vec<String>,
}

impl Probe for Causality {
    fn on_event(&mut self, at: Time, node: ProcessId, _class: EventClass) {
        if at < self.last {
            self.violations
                .push(format!("{node:?}: event at {at} after {}", self.last));
        }
        self.last = at;
    }

    fn on_send(&mut self, from: ProcessId, to: ProcessId, _w: usize, sent: Time, arrival: Time) {
        if arrival < sent.saturating_add(1) {
            self.violations.push(format!(
                "{from:?} → {to:?}: sent at {sent}, arrives at {arrival}"
            ));
        }
    }

    fn on_timer_fire(&mut self, at: Time, node: ProcessId, armed_at: u64) {
        if at < armed_at.saturating_add(1) {
            self.violations
                .push(format!("{node:?}: timer armed at {armed_at} fired at {at}"));
        }
    }
}

/// Picks one of four shapes for a `Time` parameter from `pick`, scaled by
/// `raw`: small, exactly `top`, just below `top`, anywhere up to `top`.
fn shaped(pick: u8, raw: u64, top: Time) -> Time {
    match pick {
        0 => raw % 5_000,
        1 => top,
        2 => top - raw % 1_000,
        _ => raw % top,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every deadline saturates instead of wrapping: timers of delay
    /// `Time::MAX − k` armed after t = 0, with δ up to `Time::MAX / 2` and
    /// GST up to `Time::MAX`, fire at `Time::MAX` at the latest and never
    /// before they were armed; the run ends at the time limit (the
    /// default `Time::MAX / 4`) or, with no time limit, when the correct
    /// processes decide on the Byzantine broadcast those timers trigger.
    #[test]
    fn deadlines_near_time_max_saturate(
        seed in any::<u64>(),
        shapes in (0u8..4, 0u8..4),
        raws in (any::<u64>(), any::<u64>()),
        ks in proptest::collection::vec(0u64..64, 1..4),
        unlimited in any::<bool>(),
    ) {
        let params = SystemParams::new(4, 1).unwrap();
        let delta = shaped(shapes.0, raws.0, Time::MAX / 2).max(1);
        let gst = shaped(shapes.1, raws.1, Time::MAX);
        let mut builder = SimBuilder::new(params).seed(seed).gst(gst).delta(delta);
        if unlimited {
            builder = builder.max_time(Time::MAX);
        }
        let nodes: Vec<NodeKind<HearAll>> = (0..3)
            .map(|_| NodeKind::Correct(HearAll::default()))
            .chain([NodeKind::Byzantine(Box::new(LateArmer { ks, armed: false }) as _)])
            .collect();
        let mut sim = builder
            .build_with_probe(nodes, Causality::default())
            .expect("valid configuration");
        let outcome = sim.run_until_decided();
        let want = if unlimited { RunOutcome::AllDecided } else { RunOutcome::TimeLimit };
        prop_assert_eq!(outcome, want);
        prop_assert!(sim.probe().violations.is_empty(), "{:?}", sim.probe().violations);
    }

    /// Same seed + same config ⇒ bit-identical stats and decision times.
    #[test]
    fn determinism(seed in any::<u64>(), gst in 0u64..5_000, byz in 0usize..2) {
        let params = SystemParams::new(4, 1).unwrap();
        let run = |s| {
            let mut sim = build(4, 1, byz, SimBuilder::new(params).seed(s).gst(gst));
            sim.run_to_quiescence();
            (
                sim.stats().messages_total,
                sim.stats().deliveries,
                sim.stats().first_decision_at,
                sim.stats().last_decision_at,
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Every message is delivered by max(send, GST) + δ — the §3.1 bound —
    /// under any pre-GST policy, observed via decision times: all correct
    /// processes must decide by GST + 2δ at the latest for this one-round
    /// protocol (one broadcast, quorum of receipts).
    #[test]
    fn delivery_bound_holds(
        seed in any::<u64>(),
        gst in 100u64..3_000,
        delay in 1u64..1_000_000,
    ) {
        let params = SystemParams::new(4, 1).unwrap();
        let builder = SimBuilder::new(params)
            .seed(seed)
            .gst(gst)
            .delta(50)
            .net(Arc::new(FixedModel(delay)));
        let mut sim = build(4, 1, 0, builder);
        sim.run_until_decided();
        prop_assert!(sim.all_correct_decided());
        let last = sim.stats().last_decision_at.unwrap();
        prop_assert!(
            last <= gst + 2 * 50,
            "decision at {last} violates the GST + δ delivery bound (gst = {gst})"
        );
    }

    /// Messages sent strictly before GST never count towards the paper's
    /// complexity measure; messages at/after GST always do.
    #[test]
    fn complexity_accounting_split(seed in any::<u64>(), gst in 0u64..10_000) {
        let params = SystemParams::new(4, 1).unwrap();
        let mut sim = build(4, 1, 0, SimBuilder::new(params).seed(seed).gst(gst));
        sim.run_to_quiescence();
        let s = sim.stats();
        prop_assert!(s.messages_after_gst <= s.messages_total);
        if gst == 0 {
            prop_assert_eq!(s.messages_after_gst, s.messages_total);
        }
        // sends happen only at time 0 here (init broadcasts)
        if gst > 0 {
            prop_assert_eq!(s.messages_after_gst, 0);
        }
        // per-process sent counts add up
        let sum: u64 = s.sent_by.iter().sum();
        prop_assert_eq!(sum, s.messages_total);
    }

    /// Byzantine messages never count towards correct-process complexity.
    #[test]
    fn byzantine_sends_excluded(seed in any::<u64>()) {
        let params = SystemParams::new(4, 1).unwrap();
        let builder = SimBuilder::new(params)
            .gst(0)
            .net(Arc::new(SyncModel))
            .seed(seed);
        let mut sim = build(4, 1, 1, builder);
        sim.run_to_quiescence();
        // 3 correct broadcasts × 4 recipients
        prop_assert_eq!(sim.stats().messages_total, 12);
        prop_assert_eq!(sim.stats().byzantine_messages, 0); // Silent sends nothing
    }
}
