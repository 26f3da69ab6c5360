//! The protocol registry: protocol-agnostic registration records
//! ([`ProtocolSpec`]) over the interchangeable consensus engines.
//!
//! A [`ProtocolSpec`] is what a sweep harness needs to run a protocol it
//! has never heard of: a stable name, its trust assumptions
//! (authenticated or not), its asymptotic complexity band, and a
//! type-erased machine factory — a plain function pointer from the shared
//! substrate ([`ProtocolContext`], derived from `SystemParams` + a setup
//! seed) and a `(process, input)` pair to a runnable [`Machine`]. The spec
//! is generic over the machine type a protocol *family* erases to, so new
//! families (e.g. many-valued dynamics) register through the same record
//! shape without touching existing callers.
//!
//! The vector-consensus family (Algorithms 1, 3 and 6) registers as
//! [`VectorSpec`]s: the three engines share the shape
//! `inputs → InputConfig<V>` and erase to one concrete [`VectorMachine`] /
//! [`VectorMsg`] pair, statically dispatched inside the simulator.
//!
//! ```
//! use validity_core::SystemParams;
//! use validity_protocols::registry::{self, ProtocolContext};
//! use validity_simnet::{NodeKind, SimConfig, Simulation};
//!
//! let params = SystemParams::new(4, 1)?;
//! let spec = registry::find_vector::<u64>("alg1-auth").expect("registered");
//! let ctx = ProtocolContext::new(params, 7);
//! let nodes = (0..4)
//!     .map(|i| NodeKind::Correct(spec.machine(&ctx, i.into(), i as u64)))
//!     .collect();
//! let mut sim = Simulation::new(SimConfig::new(params).seed(7), nodes);
//! sim.run_until_decided();
//! assert!(sim.all_correct_decided());
//! # Ok::<(), validity_core::ParamError>(())
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use validity_core::{InputConfig, ProcessId, SystemParams, Value};
use validity_crypto::{KeyStore, ThresholdScheme};
use validity_simnet::{Env, Machine, Message, StepSink};

use crate::codec::{Codec, Words};
use crate::vector_auth::{VectorAuth, VectorAuthMsg};
use crate::vector_fast::{VectorFast, VectorFastMsg};
use crate::vector_nonauth::{VectorNonAuth, VectorNonAuthMsg};

/// The shared substrate every node of a run needs: system parameters plus
/// the simulated PKI and threshold scheme, derived deterministically from
/// `SystemParams` and a setup seed — identical contexts are reproducible,
/// and one context can be built once and shared across many machines (and,
/// in service mode, across many consensus slots).
#[derive(Clone)]
pub struct ProtocolContext {
    /// System parameters `(n, t)`.
    pub params: SystemParams,
    /// The simulated PKI shared by all processes.
    pub keys: KeyStore,
    /// Threshold scheme with `k = n − t` (what Quad expects).
    pub scheme: ThresholdScheme,
}

impl fmt::Debug for ProtocolContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolContext")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl ProtocolContext {
    /// Creates the substrate for `params` from a deterministic setup seed.
    pub fn new(params: SystemParams, setup_seed: u64) -> Self {
        let keys = KeyStore::new(params.n(), setup_seed);
        let scheme = ThresholdScheme::new(keys.clone(), params.quorum());
        ProtocolContext {
            params,
            keys,
            scheme,
        }
    }
}

/// The `(n, t)` operating band a protocol is registered for.
///
/// Every engine in this repo solves the same problem, but not at every
/// system size: the non-authenticated engine's `O(n⁴)` message bill makes
/// it impractical past moderate `n`, and the subcubic engine's latency
/// grows exponentially in `t`. A differential harness needs to know those
/// bands *declaratively* — an engine skipping a cell because it is out of
/// band is *expected divergence*, not a bug — so each [`ProtocolSpec`]
/// carries one of these records.
///
/// The band is inclusive: `applicable_to(n, t)` holds when `n ≤ max_n`
/// and `t ≤ max_t` (and `(n, t)` itself is a valid `SystemParams`
/// configuration). `None` means unbounded on that axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Applicability {
    /// Largest system size the engine is registered to run at, if bounded.
    pub max_n: Option<usize>,
    /// Largest fault budget the engine is registered to run at, if bounded.
    pub max_t: Option<usize>,
}

impl Applicability {
    /// Unbounded on both axes: applicable to every valid `(n, t)`.
    pub const UNBOUNDED: Applicability = Applicability {
        max_n: None,
        max_t: None,
    };

    /// Bounds the band to `n ≤ max_n`.
    pub const fn up_to_n(max_n: usize) -> Applicability {
        Applicability {
            max_n: Some(max_n),
            max_t: None,
        }
    }

    /// Bounds the band to `t ≤ max_t`.
    pub const fn up_to_t(max_t: usize) -> Applicability {
        Applicability {
            max_n: None,
            max_t: Some(max_t),
        }
    }

    /// Whether `(n, t)` falls inside this band. Invalid parameter
    /// combinations (rejected by [`SystemParams::new`]) are never
    /// applicable.
    pub fn contains(&self, n: usize, t: usize) -> bool {
        if SystemParams::new(n, t).is_err() {
            return false;
        }
        self.max_n.is_none_or(|m| n <= m) && self.max_t.is_none_or(|m| t <= m)
    }
}

impl fmt::Display for Applicability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.max_n, self.max_t) {
            (None, None) => f.write_str("any (n, t)"),
            (Some(n), None) => write!(f, "n ≤ {n}"),
            (None, Some(t)) => write!(f, "t ≤ {t}"),
            (Some(n), Some(t)) => write!(f, "n ≤ {n}, t ≤ {t}"),
        }
    }
}

/// A protocol registration record: everything a harness needs to select,
/// describe, and instantiate a protocol by name at runtime.
///
/// Generic over the machine type `M` the protocol family erases to and the
/// value type `V` it proposes; the factory is a plain `fn` pointer, so
/// specs are `Copy` and can live in matrix cells. Identity (equality,
/// ordering, hashing) is by registry name.
pub struct ProtocolSpec<M, V = u64> {
    name: &'static str,
    authenticated: bool,
    complexity: &'static str,
    applicability: Applicability,
    factory: fn(&ProtocolContext, ProcessId, V) -> M,
}

impl<M, V> ProtocolSpec<M, V> {
    /// Registers a protocol: stable `name`, whether it relies on the PKI,
    /// its complexity band, and its machine factory. The spec starts
    /// [`Applicability::UNBOUNDED`]; narrow it with
    /// [`with_applicability`](Self::with_applicability).
    pub const fn new(
        name: &'static str,
        authenticated: bool,
        complexity: &'static str,
        factory: fn(&ProtocolContext, ProcessId, V) -> M,
    ) -> Self {
        ProtocolSpec {
            name,
            authenticated,
            complexity,
            applicability: Applicability::UNBOUNDED,
            factory,
        }
    }

    /// Narrows the spec's registered `(n, t)` operating band.
    pub const fn with_applicability(mut self, applicability: Applicability) -> Self {
        self.applicability = applicability;
        self
    }

    /// The stable registry name (used by CLIs and reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the protocol relies on the PKI (signatures / threshold
    /// signatures).
    pub fn authenticated(&self) -> bool {
        self.authenticated
    }

    /// The paper's asymptotic cost band, for report headers.
    pub fn complexity(&self) -> &'static str {
        self.complexity
    }

    /// The `(n, t)` operating band the engine is registered for.
    pub fn applicability(&self) -> Applicability {
        self.applicability
    }

    /// Whether the engine is registered to run at system size `(n, t)`.
    pub fn applicable_to(&self, n: usize, t: usize) -> bool {
        self.applicability.contains(n, t)
    }

    /// Builds the machine for process `p` proposing `input`.
    pub fn machine(&self, ctx: &ProtocolContext, p: ProcessId, input: V) -> M {
        (self.factory)(ctx, p, input)
    }
}

impl<M, V> Clone for ProtocolSpec<M, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, V> Copy for ProtocolSpec<M, V> {}

impl<M, V> PartialEq for ProtocolSpec<M, V> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl<M, V> Eq for ProtocolSpec<M, V> {}

impl<M, V> PartialOrd for ProtocolSpec<M, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M, V> Ord for ProtocolSpec<M, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name.cmp(other.name)
    }
}

impl<M, V> Hash for ProtocolSpec<M, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
    }
}

impl<M, V> fmt::Debug for ProtocolSpec<M, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.name)
            .field("authenticated", &self.authenticated)
            .field("complexity", &self.complexity)
            .finish()
    }
}

impl<M, V> fmt::Display for ProtocolSpec<M, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// A registration record of the vector-consensus family: proposes `V`,
/// erases to [`VectorMachine<V>`].
pub type VectorSpec<V = u64> = ProtocolSpec<VectorMachine<V>, V>;

fn make_auth<V: Value + Codec + Words>(
    ctx: &ProtocolContext,
    p: ProcessId,
    input: V,
) -> VectorMachine<V> {
    VectorMachine::Auth(
        VectorAuth::new(
            input,
            ctx.keys.clone(),
            ctx.keys.signer(p),
            ctx.scheme.clone(),
            ctx.params,
        ),
        StepSink::new(),
    )
}

fn make_nonauth<V: Value + Codec + Words>(
    ctx: &ProtocolContext,
    _p: ProcessId,
    input: V,
) -> VectorMachine<V> {
    VectorMachine::NonAuth(VectorNonAuth::new(input, ctx.params.n()), StepSink::new())
}

fn make_fast<V: Value + Codec + Words>(
    ctx: &ProtocolContext,
    p: ProcessId,
    input: V,
) -> VectorMachine<V> {
    VectorMachine::Fast(
        VectorFast::new(
            input,
            ctx.keys.clone(),
            ctx.keys.signer(p),
            ctx.scheme.clone(),
            ctx.params,
        ),
        StepSink::new(),
    )
}

/// The registered vector-consensus protocols, in presentation order.
///
/// Operating bands mirror each engine's cost profile (and the sizes the
/// built-in suites actually exercise): the non-authenticated engine's
/// `O(n⁴)` message bill caps it at `n ≤ 13`, and the subcubic engine's
/// latency grows exponentially in `t`, capping it at `t ≤ 4`.
pub fn vector_registry<V: Value + Codec + Words>() -> [VectorSpec<V>; 3] {
    [
        ProtocolSpec::new("alg1-auth", true, "O(n²) msgs, O(n³) words", make_auth::<V>),
        ProtocolSpec::new("alg3-nonauth", false, "O(n⁴) msgs", make_nonauth::<V>)
            .with_applicability(Applicability::up_to_n(13)),
        ProtocolSpec::new("alg6-fast", true, "O(n² log n) words", make_fast::<V>)
            .with_applicability(Applicability::up_to_t(4)),
    ]
}

/// Looks a vector-consensus protocol up by its registry name.
pub fn find_vector<V: Value + Codec + Words>(name: &str) -> Option<VectorSpec<V>> {
    vector_registry::<V>()
        .into_iter()
        .find(|s| s.name() == name)
}

/// Union of the three algorithms' wire messages.
#[derive(Clone, Debug)]
pub enum VectorMsg<V: Value> {
    /// Algorithm 1 traffic.
    Auth(VectorAuthMsg<V>),
    /// Algorithm 3 traffic.
    NonAuth(VectorNonAuthMsg<V>),
    /// Algorithm 6 traffic.
    Fast(VectorFastMsg<V>),
}

impl<V: Value + Words> Message for VectorMsg<V> {
    fn words(&self) -> usize {
        match self {
            VectorMsg::Auth(m) => m.words(),
            VectorMsg::NonAuth(m) => m.words(),
            VectorMsg::Fast(m) => m.words(),
        }
    }
}

/// One of the three vector-consensus machines, selected at runtime but
/// statically dispatched per event.
///
/// The variants differ in size (Algorithm 1 carries a keystore and Quad
/// state); one machine exists per simulated process for the lifetime of a
/// run, so the footprint of the largest variant is the right trade against
/// boxing every event dispatch.
#[allow(clippy::large_enum_variant)]
pub enum VectorMachine<V: Value> {
    /// Algorithm 1, with its reusable scratch sink.
    Auth(VectorAuth<V>, StepSink<VectorAuthMsg<V>, InputConfig<V>>),
    /// Algorithm 3, with its reusable scratch sink.
    NonAuth(
        VectorNonAuth<V>,
        StepSink<VectorNonAuthMsg<V>, InputConfig<V>>,
    ),
    /// Algorithm 6, with its reusable scratch sink.
    Fast(VectorFast<V>, StepSink<VectorFastMsg<V>, InputConfig<V>>),
    /// A registered engine with a planted fault (see [`crate::mutation`]).
    /// Boxed: mutants only exist in fault-injection runs, so clean runs
    /// shouldn't pay for the wrapper's footprint in every variant.
    Mutated(Box<crate::mutation::Mutant<V>>),
}

/// Drains a variant's scratch sink into the outer sink, wrapping messages.
/// Built on [`StepSink::drain_map`], which preserves push order — the
/// erasure stays byte-identical to hand-written draining.
fn wrap<V, M, O>(
    scratch: &mut StepSink<M, O>,
    f: impl Fn(M) -> VectorMsg<V>,
    out: &mut StepSink<VectorMsg<V>, O>,
) where
    V: Value,
{
    scratch.drain_map(out, f, |t| t, |o, out| out.output(o), |out| out.halt());
}

impl<V: Value + Codec + Words> Machine for VectorMachine<V> {
    type Msg = VectorMsg<V>;
    type Output = InputConfig<V>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        match self {
            VectorMachine::Auth(m, scratch) => {
                m.init(env, scratch);
                wrap(scratch, VectorMsg::Auth, sink);
            }
            VectorMachine::NonAuth(m, scratch) => {
                m.init(env, scratch);
                wrap(scratch, VectorMsg::NonAuth, sink);
            }
            VectorMachine::Fast(m, scratch) => {
                m.init(env, scratch);
                wrap(scratch, VectorMsg::Fast, sink);
            }
            VectorMachine::Mutated(m) => m.init(env, sink),
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        // A mismatched variant can only come from a Byzantine sender talking
        // the wrong protocol; correct machines ignore it.
        match (self, msg) {
            (VectorMachine::Auth(m, scratch), VectorMsg::Auth(x)) => {
                m.on_message(from, x, env, scratch);
                wrap(scratch, VectorMsg::Auth, sink);
            }
            (VectorMachine::NonAuth(m, scratch), VectorMsg::NonAuth(x)) => {
                m.on_message(from, x, env, scratch);
                wrap(scratch, VectorMsg::NonAuth, sink);
            }
            (VectorMachine::Fast(m, scratch), VectorMsg::Fast(x)) => {
                m.on_message(from, x, env, scratch);
                wrap(scratch, VectorMsg::Fast, sink);
            }
            // A mutant speaks its base engine's message type; the wrapper
            // itself does the (possibly faulty) variant filtering.
            (VectorMachine::Mutated(m), _) => m.on_message(from, msg, env, sink),
            _ => {}
        }
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        match self {
            VectorMachine::Auth(m, scratch) => {
                m.on_timer(tag, env, scratch);
                wrap(scratch, VectorMsg::Auth, sink);
            }
            VectorMachine::NonAuth(m, scratch) => {
                m.on_timer(tag, env, scratch);
                wrap(scratch, VectorMsg::NonAuth, sink);
            }
            VectorMachine::Fast(m, scratch) => {
                m.on_timer(tag, env, scratch);
                wrap(scratch, VectorMsg::Fast, sink);
            }
            VectorMachine::Mutated(m) => m.on_timer(tag, env, sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimConfig, Simulation};

    #[test]
    fn registry_names_roundtrip() {
        for spec in vector_registry::<u64>() {
            assert_eq!(find_vector::<u64>(spec.name()), Some(spec));
            assert_eq!(spec.to_string(), spec.name());
        }
        assert_eq!(find_vector::<u64>("nope"), None);
    }

    #[test]
    fn registry_lists_the_three_algorithms_in_presentation_order() {
        let listed: Vec<(&str, bool)> = vector_registry::<u64>()
            .iter()
            .map(|spec| (spec.name(), spec.authenticated()))
            .collect();
        assert_eq!(
            listed,
            [
                ("alg1-auth", true),
                ("alg3-nonauth", false),
                ("alg6-fast", true)
            ]
        );
        for spec in vector_registry::<u64>() {
            assert!(!spec.complexity().is_empty(), "{spec} has no cost band");
        }
    }

    #[test]
    fn applicability_bands_match_registered_cost_profiles() {
        let auth = find_vector::<u64>("alg1-auth").unwrap();
        let nonauth = find_vector::<u64>("alg3-nonauth").unwrap();
        let fast = find_vector::<u64>("alg6-fast").unwrap();

        assert_eq!(auth.applicability(), Applicability::UNBOUNDED);
        assert_eq!(nonauth.applicability(), Applicability::up_to_n(13));
        assert_eq!(fast.applicability(), Applicability::up_to_t(4));

        // Every engine covers the small suites…
        for spec in vector_registry::<u64>() {
            assert!(spec.applicable_to(4, 1), "{spec} must cover (4, 1)");
            assert!(spec.applicable_to(13, 4), "{spec} must cover (13, 4)");
        }
        // …but the bands diverge at scale.
        assert!(auth.applicable_to(16, 5));
        assert!(!nonauth.applicable_to(16, 5), "O(n⁴) engine capped at n=13");
        assert!(!fast.applicable_to(16, 5), "subcubic engine capped at t=4");

        // Invalid parameter combinations are never applicable, even for the
        // unbounded engine.
        assert!(!auth.applicable_to(3, 3));
        assert!(!auth.applicable_to(4, 0));

        assert_eq!(Applicability::UNBOUNDED.to_string(), "any (n, t)");
        assert_eq!(Applicability::up_to_n(13).to_string(), "n ≤ 13");
        assert_eq!(Applicability::up_to_t(4).to_string(), "t ≤ 4");
    }

    #[test]
    fn every_registered_engine_reaches_agreement_with_a_silent_byzantine() {
        let params = SystemParams::new(4, 1).unwrap();
        for kind in vector_registry::<u64>() {
            let ctx = ProtocolContext::new(params, 11);
            let nodes: Vec<NodeKind<VectorMachine<u64>>> = (0..4)
                .map(|i| {
                    if i < 3 {
                        NodeKind::Correct(kind.machine(&ctx, ProcessId::from_index(i), i as u64))
                    } else {
                        NodeKind::Byzantine(Box::new(Silent))
                    }
                })
                .collect();
            let mut sim = Simulation::new(SimConfig::new(params).seed(11), nodes);
            sim.run_until_decided();
            assert!(sim.all_correct_decided(), "{kind} did not decide");
            assert!(agreement_holds(sim.decisions()), "{kind} broke agreement");
        }
    }

    #[test]
    fn erased_machine_matches_direct_construction() {
        // The registry path must measure identically to hand-built nodes
        // (modulo the enum wrapper, which adds no words).
        let params = SystemParams::new(4, 1).unwrap();
        let ctx = ProtocolContext::new(params, 3);
        let spec = find_vector::<u64>("alg3-nonauth").unwrap();
        let nodes: Vec<NodeKind<VectorMachine<u64>>> = (0..4)
            .map(|i| NodeKind::Correct(spec.machine(&ctx, i.into(), 5u64)))
            .collect();
        let mut sim = Simulation::new(SimConfig::new(params).seed(3), nodes);
        sim.run_until_decided();

        let direct: Vec<NodeKind<VectorNonAuth<u64>>> = (0..4)
            .map(|_| NodeKind::Correct(VectorNonAuth::new(5u64, 4)))
            .collect();
        let mut dsim = Simulation::new(SimConfig::new(params).seed(3), direct);
        dsim.run_until_decided();

        assert_eq!(
            sim.stats().messages_total,
            dsim.stats().messages_total,
            "enum erasure must not change message accounting"
        );
        assert_eq!(sim.stats().words_total, dsim.stats().words_total);
    }
}
