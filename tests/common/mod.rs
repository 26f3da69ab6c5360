//! Support shared by the root integration tests. A test whose claim does
//! not depend on the proposals runs a lab cell ([`run_cell`]); the lab
//! fixes a cell's proposals, so the others choose theirs ([`decide`]).
#![allow(dead_code)] // each test file uses its own subset

use validity_adversary::BehaviorId;
use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_lab::{execute, CellSpec, Outcome, ProtocolAxis, RunCell, RunRecord};
use validity_lab::{ScheduleSpec, ValiditySpec};
use validity_protocols::{find_vector, ProtocolContext, VectorMachine};
use validity_simnet::{agreement_holds, Machine, NodeKind, Silent};

/// One lab cell at optimal resilience with `byz` silent processes: `engine`
/// raw, or under `Universal` when a validity property is given.
pub fn run_cell(
    engine: &str,
    validity: Option<ValiditySpec>,
    byz: usize,
    schedule: ScheduleSpec,
    n: usize,
    seed: u64,
) -> RunRecord {
    let engine = find_vector(engine).expect("registered engine");
    let cell = RunCell {
        protocol: match validity {
            Some(_) => ProtocolAxis::wrapped(engine),
            None => ProtocolAxis::raw(engine),
        },
        validity,
        behavior: BehaviorId::Silent,
        byz,
        fault: byz,
        schedule,
        n,
        t: (n - 1) / 3,
        seed,
    };
    match execute(&CellSpec::Run(cell)).outcome {
        Outcome::Run(run) => run,
        Outcome::Classify(_) => unreachable!("a run cell yields a run record"),
    }
}

/// The configuration in which the last `byz` processes are faulty.
pub fn all_but_last(params: SystemParams, byz: usize, inputs: &[u64]) -> InputConfig<u64> {
    InputConfig::from_pairs(params, (0..params.n() - byz).map(|i| (i, inputs[i])))
        .expect("correct set within bounds")
}

/// Runs the registry engine `engine` as `wrap` embeds it (`|m| m` raw,
/// `|m| Universal::new(m, Λ)` otherwise): the processes of `actual` are
/// correct on their proposals, the rest silent; `seed` fixes both the PKI
/// setup and the network jitter. Returns the common decision, having
/// asserted Termination and Agreement.
pub fn decide<M: Machine>(
    engine: &str,
    actual: &InputConfig<u64>,
    seed: u64,
    schedule: ScheduleSpec,
    wrap: impl Fn(VectorMachine<u64>) -> M,
) -> M::Output
where
    M::Output: Clone + PartialEq,
{
    let params = actual.params();
    let spec = find_vector::<u64>(engine).expect("registered engine");
    let ctx = ProtocolContext::new(params, seed);
    let nodes = (0..params.n())
        .map(ProcessId::from_index)
        .map(|p| match actual.proposal(p) {
            Some(&v) => NodeKind::Correct(wrap(spec.machine(&ctx, p, v))),
            None => NodeKind::Byzantine(Box::new(Silent)),
        })
        .collect();
    let mut sim = schedule
        .builder(params, seed)
        .build(nodes)
        .expect("a configuration leaves at most t processes out");
    sim.run_until_decided();
    assert!(
        sim.all_correct_decided(),
        "{engine} at {actual:?}: no termination"
    );
    assert!(
        agreement_holds(sim.decisions()),
        "{engine} at {actual:?}: agreement violated"
    );
    let first = sim.decisions().iter().flatten().next();
    first.expect("n − t ≥ 1 correct processes").1.clone()
}
