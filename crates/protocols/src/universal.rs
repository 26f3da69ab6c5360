//! **Algorithm 2** — `Universal`, the general consensus algorithm for any
//! solvable non-trivial validity property (§5.2.2).
//!
//! `Universal` is vector consensus plus the `Λ` function: when the
//! underlying vector consensus decides a vector `vec ∈ I_{n−t}`, the
//! process decides `Λ(vec)` — a value admissible for *every* input
//! configuration similar to `vec`. Since the decided vector is similar to
//! the execution's actual input configuration (Vector Validity), the
//! decision is admissible (Lemma 8).
//!
//! The implementation is generic over the vector-consensus machine, so one
//! `Universal` serves all three implementations: Algorithm 1
//! (authenticated, `O(n²)` messages), Algorithm 3 (non-authenticated,
//! `O(n⁴)` messages) and Algorithm 6 (`O(n² log n)` words, exponential
//! latency).

use validity_core::{InputConfig, LambdaFn, ProcessId, Value};
use validity_simnet::{Env, Machine, StepSink};

/// The `Universal` machine: vector consensus composed with `Λ`.
///
/// The decision type is `V` (the consensus output space `V_O = V_I` for the
/// classical properties); use the `Λ` matching your validity property from
/// [`validity_core::lambda`].
///
/// # Examples
///
/// ```
/// use validity_core::{ProcessId, StrongLambda, SystemParams};
/// use validity_crypto::{KeyStore, ThresholdScheme};
/// use validity_protocols::{Universal, VectorAuth};
/// use validity_simnet::{agreement_holds, NodeKind, Silent, SimBuilder};
///
/// let params = SystemParams::new(4, 1)?;
/// let ks = KeyStore::new(4, 1);
/// let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
/// let nodes: Vec<NodeKind<_>> = (0..4).map(|i| if i < 3 {
///     NodeKind::Correct(Universal::new(
///         VectorAuth::new(7u64, ks.clone(), ks.signer(ProcessId(i)), scheme.clone(), params),
///         StrongLambda,
///     ))
/// } else {
///     NodeKind::Byzantine(Box::new(Silent))
/// }).collect();
/// let mut sim = SimBuilder::new(params).build(nodes).expect("valid configuration");
/// sim.run_until_decided();
/// assert!(agreement_holds(sim.decisions()));
/// assert_eq!(sim.decisions()[0].as_ref().unwrap().1, 7); // unanimous ⇒ pinned
/// # Ok::<(), validity_core::ParamError>(())
/// ```
pub struct Universal<V, VC, L>
where
    VC: Machine,
{
    vc: VC,
    /// Scratch sink lent to the wrapped vector-consensus machine.
    vc_sink: StepSink<VC::Msg, VC::Output>,
    lambda: L,
    decided: bool,
    _marker: std::marker::PhantomData<V>,
}

impl<V, VC, L> Universal<V, VC, L>
where
    V: Value,
    VC: Machine<Output = InputConfig<V>>,
    L: LambdaFn<V, V>,
{
    /// Wraps a vector-consensus machine with a `Λ` function.
    pub fn new(vc: VC, lambda: L) -> Self {
        Universal {
            vc,
            vc_sink: StepSink::new(),
            lambda,
            decided: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Access to the wrapped vector-consensus machine.
    pub fn inner(&self) -> &VC {
        &self.vc
    }

    /// Drains the scratch sink into the outer sink, applying `Λ` to the
    /// decided vector.
    fn drain_vc(&mut self, out: &mut StepSink<VC::Msg, V>) {
        self.vc_sink.drain_map(
            out,
            |m| m,
            |tag| tag,
            |vector, out| {
                if !self.decided {
                    self.decided = true;
                    // Λ(vector) exists for every solvable property
                    // (Definition 2); failure here means the property
                    // violates C_S and should have been rejected by
                    // classification beforehand.
                    let v = self.lambda.lambda(&vector).unwrap_or_else(|e| {
                        panic!(
                            "Universal mis-configured: {} undefined at decided \
                                 vector ({e}); the validity property violates C_S",
                            self.lambda.name()
                        )
                    });
                    out.output(v);
                }
            },
            |out| out.halt(),
        );
    }
}

impl<V, VC, L> Machine for Universal<V, VC, L>
where
    V: Value,
    VC: Machine<Output = InputConfig<V>>,
    L: LambdaFn<V, V> + 'static,
{
    type Msg = VC::Msg;
    type Output = V;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        self.vc.init(env, &mut self.vc_sink);
        self.drain_vc(sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, V>,
    ) {
        self.vc.on_message(from, msg, env, &mut self.vc_sink);
        self.drain_vc(sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        self.vc.on_timer(tag, env, &mut self.vc_sink);
        self.drain_vc(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector_auth::VectorAuth;
    use validity_core::{
        check_canonical_decision, check_decision, Domain, MedianValidity, RankLambda, StrongLambda,
        StrongValidity, SystemParams,
    };
    use validity_crypto::{KeyStore, ThresholdScheme};
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimBuilder, Simulation};

    type Uni<L> = Universal<u64, VectorAuth<u64>, L>;

    fn build<L: LambdaFn<u64, u64> + Clone + 'static>(
        n: usize,
        t: usize,
        inputs: &[u64],
        byz: usize,
        lambda: L,
        seed: u64,
    ) -> Simulation<Uni<L>> {
        let params = SystemParams::new(n, t).unwrap();
        let ks = KeyStore::new(n, seed);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes: Vec<NodeKind<Uni<L>>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(Universal::new(
                        VectorAuth::new(
                            inputs[i],
                            ks.clone(),
                            ks.signer(ProcessId(i as u32)),
                            scheme.clone(),
                            params,
                        ),
                        lambda.clone(),
                    ))
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        SimBuilder::new(params)
            .seed(seed)
            .build(nodes)
            .expect("valid configuration")
    }

    #[test]
    fn strong_validity_unanimous_decides_that_value() {
        let inputs = [9u64, 9, 9, 9];
        for byz in 0..=1 {
            let mut sim = build(4, 1, &inputs, byz, StrongLambda, 3);
            assert_eq!(
                sim.run_until_decided(),
                validity_simnet::RunOutcome::AllDecided
            );
            assert!(agreement_holds(sim.decisions()));
            assert_eq!(sim.decisions()[0].as_ref().unwrap().1, 9);
        }
    }

    #[test]
    fn strong_validity_decision_is_admissible() {
        let params = SystemParams::new(4, 1).unwrap();
        let inputs = [0u64, 1, 0, 1];
        let mut sim = build(4, 1, &inputs, 1, StrongLambda, 5);
        sim.run_until_decided();
        let decided = sim.decisions()[0].as_ref().unwrap().1;
        let actual =
            validity_core::InputConfig::from_pairs(params, (0..3).map(|i| (i, inputs[i]))).unwrap();
        assert!(check_decision(&StrongValidity, &actual, &decided).is_ok());
        // This is also a canonical execution (faulty process silent), so
        // Lemma 1 applies with the stronger intersection bound.
        assert!(
            check_canonical_decision(&StrongValidity, &actual, &decided, &Domain::binary()).is_ok()
        );
    }

    #[test]
    fn median_validity_end_to_end() {
        let inputs = [10u64, 20, 30, 40, 50, 60, 70];
        let lambda = RankLambda::median(2, 0u64, 100);
        let mut sim = build(7, 2, &inputs, 2, lambda, 8);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        let decided = sim.decisions()[0].as_ref().unwrap().1;
        let params = SystemParams::new(7, 2).unwrap();
        let actual =
            validity_core::InputConfig::from_pairs(params, (0..5).map(|i| (i, inputs[i]))).unwrap();
        assert!(
            check_decision(&MedianValidity::with_slack(2), &actual, &decided).is_ok(),
            "decided {decided} violates median validity for {actual:?}"
        );
    }
}
