//! Property-based tests of the network-model layer: whatever a chaos
//! model proposes, the engine's DLS clamp keeps every scheduled delivery
//! inside `[sent_at + 1, gst + post_gst_jitter]` — loss can withhold a
//! message *to* the deadline, never past it, and duplication adds copies
//! at the original's arrival tick, never new arrival times. The clamp is
//! checked from a probe riding the same hooks the engine schedules with.

use std::sync::Arc;

use proptest::prelude::*;
use validity_core::{ProcessId, SystemParams};
use validity_simnet::{
    Duplicate, Env, Jitter, Loss, Machine, Message, NetModel, NodeKind, Probe, SimConfig,
    Simulation, StepSink, Time, UniformModel,
};

#[derive(Clone, Debug)]
struct Ping;
impl Message for Ping {
    fn words(&self) -> usize {
        1
    }
}

/// Broadcasts at init and echoes the first few receptions, so sends land
/// both before GST (the init wave) and after it (echoes of deliveries
/// the clamp pushed to `gst + jitter`).
#[derive(Clone, Debug, Default)]
struct EchoTwice {
    echoed: usize,
}

impl Machine for EchoTwice {
    type Msg = Ping;
    type Output = u64;

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Ping, u64>) {
        sink.broadcast(Ping);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        _m: &Ping,
        _env: &Env,
        sink: &mut StepSink<Ping, u64>,
    ) {
        if self.echoed < 2 {
            self.echoed += 1;
            sink.broadcast(Ping);
        } else {
            sink.output(1);
            sink.halt();
        }
    }
}

/// Audits every scheduled delivery against the DLS window.
struct ArrivalAudit {
    gst: Time,
    delta: Time,
    violations: Vec<String>,
    drops: u64,
    duplicates: u64,
}

impl ArrivalAudit {
    fn new(gst: Time, delta: Time) -> ArrivalAudit {
        ArrivalAudit {
            gst,
            delta,
            violations: Vec::new(),
            drops: 0,
            duplicates: 0,
        }
    }

    fn check(&mut self, what: &str, from: ProcessId, to: ProcessId, sent_at: Time, arrival: Time) {
        if arrival < sent_at + 1 {
            self.violations.push(format!(
                "{what} {from}→{to}: arrival {arrival} < sent {sent_at} + 1"
            ));
        }
        // Self-sends arrive at sent_at + 1; every other delivery obeys the
        // DLS bound max(sent_at, gst) + jitter with jitter ∈ [1, δ].
        let deadline = sent_at.max(self.gst) + self.delta;
        if from != to && arrival > deadline {
            self.violations.push(format!(
                "{what} {from}→{to}: arrival {arrival} past the DLS deadline {deadline} \
                 (sent {sent_at}, gst {}, δ {})",
                self.gst, self.delta
            ));
        }
    }
}

impl Probe for ArrivalAudit {
    const ENABLED: bool = true;

    fn on_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        _words: usize,
        sent_at: Time,
        arrival: Time,
    ) {
        self.check("send", from, to, sent_at, arrival);
    }

    fn on_drop(&mut self, from: ProcessId, to: ProcessId, sent_at: Time, arrival: Time) {
        self.drops += 1;
        self.check("drop", from, to, sent_at, arrival);
        // A withheld message arrives *exactly* at its deadline.
        if arrival < self.gst + 1 {
            self.violations.push(format!(
                "drop {from}→{to}: arrival {arrival} before gst {}",
                self.gst
            ));
        }
    }

    fn on_duplicate(&mut self, from: ProcessId, to: ProcessId, sent_at: Time, arrival: Time) {
        self.duplicates += 1;
        self.check("duplicate", from, to, sent_at, arrival);
    }
}

fn run_audited(
    model: Arc<dyn NetModel>,
    gst: Time,
    delta: Time,
    seed: u64,
) -> (ArrivalAudit, validity_simnet::NetStats) {
    let params = SystemParams::new(4, 1).unwrap();
    let nodes: Vec<NodeKind<EchoTwice>> = (0..4)
        .map(|_| NodeKind::Correct(EchoTwice::default()))
        .collect();
    let cfg = SimConfig::new(params)
        .gst(gst)
        .delta(delta)
        .net(model)
        .seed(seed);
    let mut sim = Simulation::with_probe(cfg, nodes, ArrivalAudit::new(gst, delta));
    sim.run_to_quiescence();
    let stats = sim.stats().clone();
    (sim.into_probe(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Loss at any rate never delivers before `sent_at + 1` nor past the
    /// `gst + post_gst_jitter` deadline — withheld messages arrive, late.
    #[test]
    fn loss_respects_the_dls_window(
        seed in any::<u64>(),
        gst in 1u64..3_000,
        rate in 0u64..=1_000,
    ) {
        let delta = 50;
        let model = Arc::new(Loss::new(Arc::new(UniformModel::new(4 * delta)), rate));
        let (audit, stats) = run_audited(model, gst, delta, seed);
        prop_assert_eq!(audit.violations, Vec::<String>::new());
        prop_assert_eq!(audit.drops, stats.dropped);
        if rate == 1_000 {
            // Every clamped pre-GST delivery was withheld; the init wave
            // alone is 4 × 3 cross-process sends.
            prop_assert!(stats.dropped >= 12);
        }
    }

    /// Duplication never mints new arrival times: every copy passes the
    /// same window check as its original, and the copies are counted
    /// outside the paper's message-complexity measure.
    #[test]
    fn duplication_respects_the_dls_window(
        seed in any::<u64>(),
        gst in 1u64..3_000,
        rate in 0u64..=1_000,
    ) {
        let delta = 50;
        let model = Arc::new(Duplicate::new(Arc::new(UniformModel::new(4 * delta)), rate));
        let (audit, stats) = run_audited(model, gst, delta, seed);
        prop_assert_eq!(audit.violations, Vec::<String>::new());
        prop_assert_eq!(audit.duplicates, stats.duplicated);
        prop_assert_eq!(stats.dropped, 0);
        // Duplicates add deliveries, never sends.
        let sum: u64 = stats.sent_by.iter().sum();
        prop_assert_eq!(sum, stats.messages_total);
    }

    /// The full composition — jitter, duplication, loss stacked on the
    /// uniform base — still cannot escape the window, and replays
    /// identically under the same seed.
    #[test]
    fn composed_chaos_respects_the_window_and_replays(
        seed in any::<u64>(),
        gst in 1u64..2_000,
    ) {
        let delta = 50;
        let mk = || -> Arc<dyn NetModel> {
            let base = Arc::new(UniformModel::new(4 * delta));
            let jittered = Arc::new(Jitter::new(base, 2 * delta));
            let duped = Arc::new(Duplicate::new(jittered, 250));
            Arc::new(Loss::new(duped, 250))
        };
        let (audit, stats) = run_audited(mk(), gst, delta, seed);
        prop_assert_eq!(audit.violations, Vec::<String>::new());
        let (_, replay) = run_audited(mk(), gst, delta, seed);
        prop_assert_eq!(stats, replay);
    }
}
