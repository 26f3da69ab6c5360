//! Active attacks against binary DBFT: estimate/auxiliary equivocation and
//! fake DONE certificates. The BV-broadcast justification (2t+1 to enter
//! `bin_values`) and the DONE threshold (t+1) must absorb them.

use validity_core::{ProcessId, SystemParams};
use validity_protocols::{DbftBinary, DbftMsg};
use validity_simnet::{
    agreement_holds, ByzSink, ByzStep, Byzantine, Env, Machine, NodeKind, SimConfig, Simulation,
    StepSink,
};

#[derive(Clone, Debug)]
struct DbftNode {
    inner: DbftBinary,
    proposal: bool,
}

impl Machine for DbftNode {
    type Msg = DbftMsg;
    type Output = bool;

    fn init(&mut self, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        self.inner.propose(self.proposal, env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &DbftMsg,
        env: &Env,
        sink: &mut StepSink<DbftMsg, bool>,
    ) {
        self.inner.on_message(from, msg, env, sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        self.inner.on_timer(tag, env, sink);
    }
}

/// Sends contradictory estimates and auxiliary values for the first few
/// rounds, plus a lone fake DONE.
struct DbftEquivocator;

impl Byzantine<DbftMsg> for DbftEquivocator {
    fn init(&mut self, env: &Env, sink: &mut ByzSink<DbftMsg>) {
        for round in 1..=4u32 {
            for i in 0..env.n() {
                let to = ProcessId::from_index(i);
                // opposite estimates to alternating receivers
                sink.push(ByzStep::Send(
                    to,
                    DbftMsg::Est {
                        round,
                        value: i % 2 == 0,
                    },
                ));
                sink.push(ByzStep::Send(
                    to,
                    DbftMsg::Aux {
                        round,
                        value: i % 2 == 1,
                    },
                ));
            }
        }
        // A lone DONE is below the t+1 threshold and must be inert.
        sink.push(ByzStep::Broadcast(DbftMsg::Done { value: true }));
    }
}

fn run(n: usize, t: usize, proposals: &[bool], byz: usize, seed: u64) -> Vec<Option<bool>> {
    let params = SystemParams::new(n, t).unwrap();
    let nodes: Vec<NodeKind<DbftNode>> = (0..n)
        .map(|i| {
            if i < n - byz {
                NodeKind::Correct(DbftNode {
                    inner: DbftBinary::new(),
                    proposal: proposals[i],
                })
            } else {
                NodeKind::Byzantine(Box::new(DbftEquivocator))
            }
        })
        .collect();
    let mut sim = Simulation::new(SimConfig::new(params).seed(seed), nodes);
    let outcome = sim.run_until_decided();
    assert_eq!(
        outcome,
        validity_simnet::RunOutcome::AllDecided,
        "termination lost under equivocation"
    );
    assert!(agreement_holds(sim.decisions()), "agreement lost");
    sim.decisions()
        .iter()
        .map(|d| d.as_ref().map(|x| x.1))
        .collect()
}

#[test]
fn equivocator_cannot_break_agreement() {
    for seed in 0..4 {
        let proposals = [true, false, true, false, true, false, true];
        let d = run(7, 2, &proposals, 2, seed);
        let v = d[0].unwrap();
        assert!(d.iter().take(5).all(|x| *x == Some(v)), "seed {seed}");
    }
}

#[test]
fn equivocator_cannot_override_unanimous_correct() {
    // Strong validity: 5 correct all propose false; 2 equivocators cannot
    // push `true` through BV-broadcast's 2t+1 bar.
    for seed in 0..4 {
        let proposals = [false; 7];
        let d = run(7, 2, &proposals, 2, seed);
        assert!(
            d.iter().take(5).all(|x| *x == Some(false)),
            "seed {seed}: byzantine value decided"
        );
    }
}

#[test]
fn lone_fake_done_is_inert() {
    // n = 4, t = 1: one byzantine DONE(true) is below t+1 = 2; all correct
    // propose false and must decide false.
    for seed in 0..4 {
        let proposals = [false; 4];
        let d = run(4, 1, &proposals, 1, seed);
        assert!(d.iter().take(3).all(|x| *x == Some(false)), "seed {seed}");
    }
}

#[test]
fn simultaneous_echoes_leave_in_round_order() {
    // (n, t) = (7, 2) at P7: one EST(false) each for rounds 1 and 2, then
    // two DONE(false). DONE counts as EST for every round, so the second
    // DONE lifts both rounds over t + 1 in the same delivery. The two
    // echoes reach the wire, so their order must not depend on the instance.
    let env = Env {
        id: ProcessId(6),
        params: SystemParams::new(7, 2).unwrap(),
        now: 0,
        delta: 10,
    };
    let est = |round| DbftMsg::Est {
        round,
        value: false,
    };
    let done = DbftMsg::Done { value: false };
    for _ in 0..200 {
        let mut dbft = DbftBinary::new();
        let mut sink = StepSink::new();
        dbft.propose(true, &env, &mut sink);
        dbft.on_message(ProcessId(0), &est(1), &env, &mut sink);
        dbft.on_message(ProcessId(2), &est(2), &env, &mut sink);
        dbft.on_message(ProcessId(1), &done, &env, &mut sink);
        sink.clear();
        dbft.on_message(ProcessId(3), &done, &env, &mut sink);
        let echoed: Vec<u32> = sink
            .steps()
            .iter()
            .map(|s| match s {
                validity_simnet::Step::Broadcast(DbftMsg::Est {
                    round,
                    value: false,
                }) => *round,
                other => panic!("unexpected step {other:?}"),
            })
            .collect();
        assert_eq!(echoed, [1, 2]);
    }
}
