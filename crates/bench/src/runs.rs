//! The canonical protocol runner used by the experiment binaries: build a
//! simulation for a registry engine (optionally wrapped in `Universal`), run
//! it, and collect the paper's complexity measures.

use validity_adversary::BehaviorId;
use validity_core::{InputConfig, LambdaFn, ProcessId, SystemParams};
use validity_protocols::{find_vector, ProtocolContext, Universal};
use validity_simnet::{agreement_holds, Machine, SimConfig, Simulation, Time};

/// Complexity measures of one run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// System size.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// Number of (silent) Byzantine nodes in the run.
    pub byz: usize,
    /// Messages sent by correct processes in `[GST, ∞)` — the paper's
    /// message complexity (§3.1).
    pub messages_after_gst: u64,
    /// Words sent by correct processes in `[GST, ∞)` — the paper's
    /// communication complexity (footnote 4).
    pub words_after_gst: u64,
    /// Messages over the whole execution.
    pub messages_total: u64,
    /// Words over the whole execution.
    pub words_total: u64,
    /// Time of the last correct decision.
    pub latency: Time,
    /// Whether all correct processes decided.
    pub decided: bool,
    /// Whether Agreement held.
    pub agreement: bool,
    /// Debug rendering of the first correct decision.
    pub decision: String,
}

/// Runs `mk`'s machines (the last `byz` slots silent) to decision and
/// collects the measures.
fn collect<M: Machine + 'static>(
    byz: usize,
    cfg: SimConfig,
    mk: impl Fn(ProcessId) -> M,
) -> RunStats
where
    M::Output: std::fmt::Debug + PartialEq,
{
    let params = cfg.params;
    let nodes = BehaviorId::Silent.populate(params, byz, cfg.gst, &|p, _face| mk(p));
    let mut sim = Simulation::new(cfg, nodes);
    sim.run_until_decided();
    let stats = sim.stats();
    RunStats {
        n: params.n(),
        t: params.t(),
        byz,
        messages_after_gst: stats.messages_after_gst,
        words_after_gst: stats.words_after_gst,
        messages_total: stats.messages_total,
        words_total: stats.words_total,
        latency: stats.last_decision_at.unwrap_or(0),
        decided: sim.all_correct_decided(),
        agreement: agreement_holds(sim.decisions()),
        decision: sim
            .decisions()
            .iter()
            .flatten()
            .next()
            .map(|d| format!("{:?}", d.1))
            .unwrap_or_else(|| "⊥".to_string()),
    }
}

/// Runs the registry engine named `engine` (`alg1-auth`, `alg3-nonauth`,
/// `alg6-fast`) over `inputs` with the last `byz` processes silent — raw
/// (deciding the vector) when `lambda` is `None`, under `Universal` with a
/// fresh `Λ` per process otherwise. `seed` fixes both the PKI setup and
/// the network jitter; `synchronous` selects GST = 0.
///
/// # Panics
///
/// Panics if `engine` is not a registered vector-consensus engine.
pub fn run(
    engine: &str,
    lambda: Option<&dyn Fn() -> Box<dyn LambdaFn<u64, u64>>>,
    params: SystemParams,
    byz: usize,
    inputs: &[u64],
    seed: u64,
    synchronous: bool,
) -> RunStats {
    let spec = find_vector::<u64>(engine).unwrap_or_else(|| panic!("unknown engine '{engine}'"));
    let ctx = ProtocolContext::new(params, seed);
    let cfg = if synchronous {
        SimConfig::synchronous(params)
    } else {
        SimConfig::new(params)
    }
    .seed(seed);
    let machine = |p: ProcessId| spec.machine(&ctx, p, inputs[p.index()]);
    match lambda {
        None => collect(byz, cfg, machine),
        Some(lambda) => collect(byz, cfg, |p| Universal::new(machine(p), lambda())),
    }
}

/// Convenience: run Universal/Algorithm 1 under the Theorem-4 `E_base`
/// adversary and return the lower-bound report.
pub fn universal_e_base(
    params: SystemParams,
    inputs: &[u64],
    lambda: impl Fn() -> Box<dyn LambdaFn<u64, u64>> + Copy,
    seed: u64,
) -> validity_adversary::EBaseReport {
    let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
    let ctx = ProtocolContext::new(params, seed);
    validity_adversary::run_e_base(params, validity_simnet::DEFAULT_DELTA, seed, move |p| {
        Universal::new(alg1.machine(&ctx, p, inputs[p.index()]), lambda())
    })
}

/// Checks a decided value against the actual input configuration (correct
/// processes only) for a validity property.
pub fn actual_config(params: SystemParams, byz: usize, inputs: &[u64]) -> InputConfig<u64> {
    InputConfig::from_pairs(params, (0..params.n() - byz).map(|i| (i, inputs[i])))
        .expect("correct set within bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::StrongLambda;

    #[test]
    fn all_three_vector_runners_agree_on_basics() {
        let params = SystemParams::new(4, 1).unwrap();
        let inputs = [1u64, 2, 3, 4];
        for name in ["alg1-auth", "alg3-nonauth", "alg6-fast"] {
            let stats = run(name, None, params, 1, &inputs, 1, true);
            assert!(stats.decided, "{name} did not decide");
            assert!(stats.agreement, "{name} violated agreement");
            assert!(stats.messages_total > 0);
        }
    }

    #[test]
    fn universal_runners_work() {
        let params = SystemParams::new(4, 1).unwrap();
        let inputs = [7u64, 7, 7, 7];
        let mk = || Box::new(StrongLambda) as Box<dyn LambdaFn<u64, u64>>;
        let s = run("alg1-auth", Some(&mk), params, 1, &inputs, 2, true);
        assert!(s.decided && s.agreement);
        assert_eq!(s.decision, "7");
    }

    #[test]
    fn e_base_runner_reports_quadratic_excess() {
        let params = SystemParams::new(7, 2).unwrap();
        let inputs: Vec<u64> = (0..7).collect();
        let mk = || Box::new(StrongLambda) as Box<dyn LambdaFn<u64, u64>>;
        let report = universal_e_base(params, &inputs, mk, 3);
        assert!(report.decided);
        assert!(report.exceeds_bound, "{report:?}");
    }
}
