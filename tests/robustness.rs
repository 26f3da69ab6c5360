//! Failure-injection matrix: Byzantine behaviour × delay policy × seed.
//!
//! Safety (Agreement + validity of the decision) must hold under *every*
//! combination; liveness must hold whenever the network is partially
//! synchronous and at most `t` processes are faulty — which is all of the
//! matrix.

use std::sync::Arc;

use validity_core::{
    check_decision, InputConfig, ProcessId, StrongLambda, StrongValidity, SystemParams,
};
use validity_crypto::{KeyStore, Signer, ThresholdScheme};
use validity_protocols::{proposal_sign_bytes, Universal, VectorAuth, VectorAuthMsg};
use validity_simnet::{
    agreement_holds, ByzSink, ByzStep, Byzantine, Env, FilteredMachine, FixedModel, NetModel,
    NodeKind, PerLinkModel, Silent, SimConfig, Simulation, SyncModel, Time, UniformModel,
};

type Uni = Universal<u64, VectorAuth<u64>, StrongLambda>;
type Msg = VectorAuthMsg<u64>;

/// A Byzantine node that equivocates its (legitimately signed) proposal:
/// value 100 to even processes, 200 to odd ones, then goes silent.
struct EquivocatingProposer {
    signer: Signer,
}

impl Byzantine<Msg> for EquivocatingProposer {
    fn init(&mut self, env: &Env, sink: &mut ByzSink<Msg>) {
        for i in 0..env.n() {
            let v = if i % 2 == 0 { 100u64 } else { 200 };
            sink.push(ByzStep::Send(
                ProcessId::from_index(i),
                VectorAuthMsg::Proposal {
                    value: v,
                    sig: self.signer.sign(proposal_sign_bytes(&v)),
                },
            ));
        }
    }
}

/// A Byzantine node that replays garbage: forwards received messages back
/// to everyone (stress-testing input validation). Budgeted — two
/// reflectors would otherwise amplify each other forever.
struct NoiseReflector {
    budget: usize,
}

impl Byzantine<Msg> for NoiseReflector {
    fn on_message(&mut self, _from: ProcessId, msg: &Msg, _env: &Env, sink: &mut ByzSink<Msg>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        sink.broadcast(msg.clone());
    }
}

fn correct(
    i: usize,
    inputs: &[u64],
    ks: &KeyStore,
    scheme: &ThresholdScheme,
    params: SystemParams,
) -> Uni {
    Universal::new(
        VectorAuth::new(
            inputs[i],
            ks.clone(),
            ks.signer(ProcessId::from_index(i)),
            scheme.clone(),
            params,
        ),
        StrongLambda,
    )
}

fn policies(delta: Time) -> Vec<(&'static str, Arc<dyn NetModel>)> {
    vec![
        ("synchronous", Arc::new(SyncModel)),
        ("uniform-slow", Arc::new(UniformModel::new(10 * delta))),
        ("fixed", Arc::new(FixedModel(3 * delta))),
        (
            "one-link-blocked",
            Arc::new(PerLinkModel::new("one-link-blocked", |from, to, _| {
                if from == ProcessId(0) && to == ProcessId(1) {
                    1_000_000
                } else {
                    7
                }
            })),
        ),
    ]
}

fn byzantine_for(
    kind: &str,
    i: usize,
    inputs: &[u64],
    ks: &KeyStore,
    scheme: &ThresholdScheme,
    params: SystemParams,
) -> Box<dyn Byzantine<Msg>> {
    match kind {
        "silent" => Box::new(Silent),
        "crash-late" => {
            Box::new(FilteredMachine::new(correct(i, inputs, ks, scheme, params)).crash_after(500))
        }
        "deaf" => Box::new(
            FilteredMachine::new(correct(i, inputs, ks, scheme, params)).ignore_first(usize::MAX),
        ),
        "equivocator" => Box::new(EquivocatingProposer {
            signer: ks.signer(ProcessId::from_index(i)),
        }),
        "reflector" => Box::new(NoiseReflector { budget: 60 }),
        other => panic!("unknown behaviour {other}"),
    }
}

#[test]
fn byzantine_times_delay_matrix() {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs: Vec<u64> = vec![5, 5, 5, 5, 5, 6, 6];
    let behaviours = ["silent", "crash-late", "deaf", "equivocator", "reflector"];
    for behaviour in behaviours {
        for (policy_name, policy) in policies(100) {
            for seed in [1u64, 2] {
                let ks = KeyStore::new(7, seed);
                let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
                let nodes: Vec<NodeKind<Uni>> = (0..7)
                    .map(|i| {
                        if i < 5 {
                            NodeKind::Correct(correct(i, &inputs, &ks, &scheme, params))
                        } else {
                            NodeKind::Byzantine(byzantine_for(
                                behaviour, i, &inputs, &ks, &scheme, params,
                            ))
                        }
                    })
                    .collect();
                let cfg = SimConfig::new(params).net(policy.clone()).seed(seed);
                let mut sim = Simulation::new(cfg, nodes);
                sim.run_until_decided();
                let label = format!("behaviour={behaviour}, policy={policy_name}, seed={seed}");
                assert!(sim.all_correct_decided(), "liveness failed: {label}");
                assert!(
                    agreement_holds(sim.decisions()),
                    "agreement failed: {label}"
                );
                // validity: the 5 correct processes propose 5 unanimously
                let actual =
                    InputConfig::from_pairs(params, (0..5).map(|i| (i, inputs[i]))).unwrap();
                let decided = sim.decisions()[0].as_ref().unwrap().1;
                assert!(
                    check_decision(&StrongValidity, &actual, &decided).is_ok(),
                    "validity failed: {label}, decided {decided}"
                );
                assert_eq!(decided, 5, "unanimous correct proposals pin the decision");
            }
        }
    }
}

/// Mixed behaviours in the same run: one equivocator + one crash.
#[test]
fn mixed_byzantine_behaviours() {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs: Vec<u64> = (0..7).map(|i| i * 11).collect();
    let ks = KeyStore::new(7, 9);
    let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
    let nodes: Vec<NodeKind<Uni>> = (0..7)
        .map(|i| match i {
            5 => NodeKind::Byzantine(byzantine_for(
                "equivocator",
                i,
                &inputs,
                &ks,
                &scheme,
                params,
            )),
            6 => NodeKind::Byzantine(byzantine_for(
                "crash-late",
                i,
                &inputs,
                &ks,
                &scheme,
                params,
            )),
            _ => NodeKind::Correct(correct(i, &inputs, &ks, &scheme, params)),
        })
        .collect();
    let mut sim = Simulation::new(SimConfig::new(params).seed(10), nodes);
    sim.run_until_decided();
    assert!(sim.all_correct_decided());
    assert!(agreement_holds(sim.decisions()));
}

/// Determinism across the matrix: identical seeds and configurations give
/// identical executions (decision values, times, message counts).
#[test]
fn determinism_under_failures() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [4u64, 5, 6, 7];
    let run = |seed: u64| {
        let ks = KeyStore::new(4, 42);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let nodes: Vec<NodeKind<Uni>> = (0..4)
            .map(|i| {
                if i < 3 {
                    NodeKind::Correct(correct(i, &inputs, &ks, &scheme, params))
                } else {
                    NodeKind::Byzantine(byzantine_for(
                        "equivocator",
                        i,
                        &inputs,
                        &ks,
                        &scheme,
                        params,
                    ))
                }
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::new(params).seed(seed), nodes);
        sim.run_until_decided();
        (
            sim.stats().messages_total,
            sim.stats().first_decision_at,
            sim.decisions()[0],
        )
    };
    assert_eq!(run(3), run(3), "same seed must replay identically");
}

/// GST position must not affect safety, only liveness timing.
#[test]
fn gst_sweep() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [8u64, 8, 8, 9];
    for gst in [0u64, 100, 1_000, 10_000] {
        let ks = KeyStore::new(4, 21);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let nodes: Vec<NodeKind<Uni>> = (0..4)
            .map(|i| {
                if i < 3 {
                    NodeKind::Correct(correct(i, &inputs, &ks, &scheme, params))
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        let cfg = SimConfig::new(params).gst(gst).seed(22);
        let mut sim = Simulation::new(cfg, nodes);
        sim.run_until_decided();
        assert!(sim.all_correct_decided(), "gst = {gst}");
        assert!(agreement_holds(sim.decisions()), "gst = {gst}");
        assert_eq!(sim.decisions()[0].as_ref().unwrap().1, 8, "gst = {gst}");
    }
}
