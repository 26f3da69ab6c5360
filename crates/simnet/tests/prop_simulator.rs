//! Property-based tests of the simulator itself: determinism, delivery
//! guarantees (the DLS "by GST + δ" rule), and accounting consistency —
//! the model-level invariants every protocol result rests on.

use std::sync::Arc;

use proptest::prelude::*;
use validity_core::{ProcessId, SystemParams};
use validity_simnet::{
    Env, FixedModel, Machine, Message, NodeKind, Silent, SimConfig, Simulation, StepSink,
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

fn build(n: usize, t: usize, byz: usize, cfg: SimConfig) -> Simulation<QuorumHear> {
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
    Simulation::new(cfg, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed + same config ⇒ bit-identical stats and decision times.
    #[test]
    fn determinism(seed in any::<u64>(), gst in 0u64..5_000, byz in 0usize..2) {
        let params = SystemParams::new(4, 1).unwrap();
        let run = |s| {
            let cfg = SimConfig::new(params).seed(s).gst(gst);
            let mut sim = build(4, 1, byz, cfg);
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
        let cfg = SimConfig::new(params)
            .seed(seed)
            .gst(gst)
            .delta(50)
            .net(Arc::new(FixedModel(delay)));
        let mut sim = build(4, 1, 0, cfg);
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
        let cfg = SimConfig::new(params).seed(seed).gst(gst);
        let mut sim = build(4, 1, 0, cfg);
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
        let cfg = SimConfig::synchronous(params).seed(seed);
        let mut sim = build(4, 1, 1, cfg);
        sim.run_to_quiescence();
        // 3 correct broadcasts × 4 recipients
        prop_assert_eq!(sim.stats().messages_total, 12);
        prop_assert_eq!(sim.stats().byzantine_messages, 0); // Silent sends nothing
    }
}
