//! Scenario matrices: the cartesian product of every experiment axis.
//!
//! A [`ScenarioMatrix`] names a family of executions — protocol × validity
//! property × Byzantine behaviour × network schedule × `(n, t)` × seed —
//! plus an optional grid of solvability-classification cells. Enumerating
//! it yields a flat, deterministically ordered list of [`CellSpec`]s that
//! the executor fans out across workers.

use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;

use validity_adversary::BehaviorId;
use validity_core::{
    ConvexHullLambda, ConvexHullValidity, CorrectProposalLambda, CorrectProposalValidity,
    DynValidity, ExactMedianValidity, LambdaFn, MedianValidity, ParityValidity, RankLambda,
    StrongLambda, StrongValidity, SystemParams, TrivialValidity, WeakLambda, WeakValidity,
};
use validity_protocols::registry::{find_vector, VectorSpec};
use validity_simnet::{
    Churn, Duplicate, FixedModel, Jitter, Loss, NetModel, Partition, PerLinkModel, SimBuilder,
    SyncModel, Time, UniformModel, DEFAULT_DELTA, DEFAULT_GST,
};

/// Names a validity property from the paper's catalog, with enough
/// structure to build both the property (for admissibility checks and
/// classification) and, when one exists, its closed-form `Λ` (for running
/// `Universal`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValiditySpec {
    /// Strong Validity.
    Strong,
    /// Weak Validity.
    Weak,
    /// Median Validity with slack `t`.
    Median,
    /// Convex-Hull Validity.
    ConvexHull,
    /// Correct-Proposal Validity (binary domain).
    CorrectProposal,
    /// Exact-Median Validity — violates `C_S`, unsolvable.
    ExactMedian,
    /// Parity Validity — violates `C_S`, unsolvable.
    Parity,
    /// The trivial property with witness 0.
    Trivial,
}

impl ValiditySpec {
    /// Every registered property, in presentation order.
    pub const ALL: [ValiditySpec; 8] = [
        ValiditySpec::Strong,
        ValiditySpec::Weak,
        ValiditySpec::Median,
        ValiditySpec::ConvexHull,
        ValiditySpec::CorrectProposal,
        ValiditySpec::ExactMedian,
        ValiditySpec::Parity,
        ValiditySpec::Trivial,
    ];

    /// The properties `Universal` can actually solve (a closed-form `Λ`
    /// exists and `C_S` holds for `n > 3t`).
    pub const RUNNABLE: [ValiditySpec; 5] = [
        ValiditySpec::Strong,
        ValiditySpec::Weak,
        ValiditySpec::Median,
        ValiditySpec::ConvexHull,
        ValiditySpec::CorrectProposal,
    ];

    /// The stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            ValiditySpec::Strong => "strong",
            ValiditySpec::Weak => "weak",
            ValiditySpec::Median => "median",
            ValiditySpec::ConvexHull => "convex-hull",
            ValiditySpec::CorrectProposal => "correct-proposal",
            ValiditySpec::ExactMedian => "exact-median",
            ValiditySpec::Parity => "parity",
            ValiditySpec::Trivial => "trivial",
        }
    }

    /// Looks a property up by its registry name.
    ///
    /// ```
    /// use validity_lab::ValiditySpec;
    ///
    /// assert_eq!(ValiditySpec::parse("median"), Some(ValiditySpec::Median));
    /// assert_eq!(ValiditySpec::parse("median").unwrap().name(), "median");
    /// assert_eq!(ValiditySpec::parse("nope"), None);
    /// ```
    pub fn parse(name: &str) -> Option<ValiditySpec> {
        ValiditySpec::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Builds the property for fault threshold `t`.
    pub fn property(self, t: usize) -> DynValidity<u64> {
        match self {
            ValiditySpec::Strong => Box::new(StrongValidity),
            ValiditySpec::Weak => Box::new(WeakValidity),
            ValiditySpec::Median => Box::new(MedianValidity::with_slack(t)),
            ValiditySpec::ConvexHull => Box::new(ConvexHullValidity),
            ValiditySpec::CorrectProposal => Box::new(CorrectProposalValidity),
            ValiditySpec::ExactMedian => Box::new(ExactMedianValidity),
            ValiditySpec::Parity => Box::new(ParityValidity),
            ValiditySpec::Trivial => Box::new(TrivialValidity::new(0u64)),
        }
    }

    /// The closed-form `Λ` for `Universal`, if the property has one.
    pub fn lambda(self, params: SystemParams) -> Option<Box<dyn LambdaFn<u64, u64>>> {
        match self {
            ValiditySpec::Strong => Some(Box::new(StrongLambda)),
            ValiditySpec::Weak => Some(Box::new(WeakLambda)),
            ValiditySpec::Median => Some(Box::new(RankLambda::median(params.t(), 0u64, u64::MAX))),
            ValiditySpec::ConvexHull => Some(Box::new(ConvexHullLambda)),
            ValiditySpec::CorrectProposal => Some(Box::new(CorrectProposalLambda)),
            _ => None,
        }
    }

    /// Whether runs of this property must use binary proposals.
    pub fn binary_inputs(self) -> bool {
        matches!(
            self,
            ValiditySpec::CorrectProposal | ValiditySpec::Parity | ValiditySpec::Trivial
        )
    }

    /// The input family runs of this property propose from.
    pub fn inputs(self) -> Inputs {
        if self.binary_inputs() {
            Inputs::Binary
        } else {
            Inputs::Decimal
        }
    }

    /// The proposal of process `i` in an `n`-process run of this property.
    pub fn input_for(self, i: usize) -> u64 {
        self.inputs().proposal(i)
    }

    /// A different but still domain-valid proposal (the second face of the
    /// two-faced adversary).
    pub fn alt_input_for(self, i: usize) -> u64 {
        self.inputs().alternate(i)
    }
}

/// An input family: what process `i` of a run proposes, and what the
/// second face of a two-faced Byzantine slot `i` proposes instead. Two
/// cells of one engine, adversary, schedule, system and seed that share a
/// family are one execution: `Universal` applies its `Λ` only after the
/// vector engine decides.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inputs {
    /// Process `i` proposes `10·i`, its alternate face `10·i + 5`: raw
    /// vector cells and every property over a decimal domain.
    Decimal,
    /// Process `i` proposes `i mod 2`, its alternate face the other bit:
    /// the binary-input properties ([`ValiditySpec::binary_inputs`]).
    Binary,
}

impl Inputs {
    /// Process `i`'s proposal.
    pub fn proposal(self, i: usize) -> u64 {
        match self {
            Inputs::Decimal => (i as u64) * 10,
            Inputs::Binary => (i % 2) as u64,
        }
    }

    /// Slot `i`'s second-face proposal: different from
    /// [`Inputs::proposal`], still in the family's domain.
    pub fn alternate(self, i: usize) -> u64 {
        match self {
            Inputs::Decimal => (i as u64) * 10 + 5,
            Inputs::Binary => ((i + 1) % 2) as u64,
        }
    }
}

impl fmt::Display for ValiditySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn sync(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).gst(0).net(Arc::new(SyncModel))
}

fn partial_sync(params: SystemParams, seed: u64) -> SimBuilder {
    SimBuilder::new(params).seed(seed)
}

fn fixed_slow(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).net(Arc::new(FixedModel(3 * DEFAULT_DELTA)))
}

fn isolate_first(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).net(Arc::new(PerLinkModel::new(
        "isolate-p1",
        |from, to, _at| {
            if from.index() == 0 || to.index() == 0 {
                Time::MAX / 8
            } else {
                3
            }
        },
    )))
}

/// The default uniform pre-GST delay (what `partial-sync` runs), as the
/// base of every chaos composition.
fn base_model() -> Arc<dyn NetModel> {
    Arc::new(UniformModel::new(4 * DEFAULT_DELTA))
}

fn lossy(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).net(Arc::new(Loss::new(base_model(), 200)))
}

fn dup_storm(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).net(Arc::new(Duplicate::new(base_model(), 250)))
}

fn partitioned(params: SystemParams, seed: u64) -> SimBuilder {
    partial_sync(params, seed).net(Arc::new(Partition::new(
        base_model(),
        params.n() / 2,
        DEFAULT_GST / 2,
    )))
}

fn churn(params: SystemParams, seed: u64) -> SimBuilder {
    // Two staggered outages, both healed well before GST.
    let outages = vec![
        (1, DEFAULT_DELTA, DEFAULT_GST / 2),
        (2, DEFAULT_GST / 4, 3 * DEFAULT_GST / 4),
    ];
    partial_sync(params, seed).net(Arc::new(Churn::new(base_model(), outages)))
}

fn flaky(params: SystemParams, seed: u64) -> SimBuilder {
    // Everything at once: extra jitter, duplication, loss — composed
    // inside-out, so the draw order is jitter, then dup, then loss.
    let jittered = Arc::new(Jitter::new(base_model(), 2 * DEFAULT_DELTA));
    let duped = Arc::new(Duplicate::new(jittered, 125));
    partial_sync(params, seed).net(Arc::new(Loss::new(duped, 125)))
}

/// Names a network schedule: GST placement plus the pre-GST network model.
/// Declaration order is presentation order and the `Ord`: the four clean
/// legacy schedules first, then the chaos catalogue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ScheduleSpec {
    /// GST = 0 — synchrony from the start.
    Synchronous,
    /// The default partially synchronous setup (GST = 1000, uniform jitter
    /// before it).
    PartialSync,
    /// Every pre-GST message takes `3δ`.
    FixedSlow,
    /// All links touching `P1` are stalled until GST; everything else is
    /// fast.
    IsolateFirst,
    /// 20% pre-GST loss over the default uniform delays.
    Lossy,
    /// 25% pre-GST duplication over the default uniform delays.
    DupStorm,
    /// A two-sided partition healing at GST/2.
    Partitioned,
    /// Crash-recovery churn: staggered per-node outages before GST.
    Churning,
    /// Jitter + duplication + loss composed.
    Flaky,
}

impl ScheduleSpec {
    /// The four clean legacy schedules (every committed fingerprint runs
    /// over these).
    pub const LEGACY: [ScheduleSpec; 4] = [
        ScheduleSpec::Synchronous,
        ScheduleSpec::PartialSync,
        ScheduleSpec::FixedSlow,
        ScheduleSpec::IsolateFirst,
    ];

    /// The faulty-network catalogue (what the `netchaos` suite sweeps).
    pub const CHAOS: [ScheduleSpec; 5] = [
        ScheduleSpec::Lossy,
        ScheduleSpec::DupStorm,
        ScheduleSpec::Partitioned,
        ScheduleSpec::Churning,
        ScheduleSpec::Flaky,
    ];

    /// Every schedule, in presentation order (legacy first, then chaos).
    pub const ALL: [ScheduleSpec; 9] = [
        ScheduleSpec::Synchronous,
        ScheduleSpec::PartialSync,
        ScheduleSpec::FixedSlow,
        ScheduleSpec::IsolateFirst,
        ScheduleSpec::Lossy,
        ScheduleSpec::DupStorm,
        ScheduleSpec::Partitioned,
        ScheduleSpec::Churning,
        ScheduleSpec::Flaky,
    ];

    /// The stable registry name (`lab run --schedules <name>`).
    pub fn name(self) -> &'static str {
        match self {
            ScheduleSpec::Synchronous => "sync",
            ScheduleSpec::PartialSync => "partial-sync",
            ScheduleSpec::FixedSlow => "fixed-slow",
            ScheduleSpec::IsolateFirst => "isolate-p1",
            ScheduleSpec::Lossy => "lossy",
            ScheduleSpec::DupStorm => "dup-storm",
            ScheduleSpec::Partitioned => "partitioned",
            ScheduleSpec::Churning => "churn",
            ScheduleSpec::Flaky => "flaky",
        }
    }

    /// One-line description for `lab list`.
    pub fn describe(self) -> &'static str {
        match self {
            ScheduleSpec::Synchronous => "GST = 0 — synchrony from the start",
            ScheduleSpec::PartialSync => {
                "default partial synchrony (GST = 1000, uniform pre-GST jitter)"
            }
            ScheduleSpec::FixedSlow => "every pre-GST message takes 3δ",
            ScheduleSpec::IsolateFirst => "all links touching P1 stalled until GST",
            ScheduleSpec::Lossy => "20% of pre-GST sends withheld to their DLS deadline",
            ScheduleSpec::DupStorm => "25% of pre-GST deliveries duplicated",
            ScheduleSpec::Partitioned => "two halves cut from each other, healing at GST/2",
            ScheduleSpec::Churning => "two nodes crash-recover over staggered pre-GST outages",
            ScheduleSpec::Flaky => "jitter + duplication + loss composed on one link model",
        }
    }

    /// Whether the schedule runs a faulty network model (loss,
    /// duplication, partition, churn) rather than a clean delay policy.
    pub fn is_chaos(self) -> bool {
        ScheduleSpec::CHAOS.contains(&self)
    }

    /// Looks a schedule up by its registry name.
    pub fn parse(name: &str) -> Option<ScheduleSpec> {
        ScheduleSpec::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Like [`ScheduleSpec::parse`], but a failure names every valid
    /// schedule — the error surface for CLI flags and suite configs.
    pub fn parse_or_err(name: &str) -> Result<ScheduleSpec, String> {
        ScheduleSpec::parse(name).ok_or_else(|| {
            format!(
                "unknown schedule: '{name}' (valid: {})",
                ScheduleSpec::ALL.map(|s| s.name()).join(", ")
            )
        })
    }

    /// The validating simulation builder for one run of this schedule.
    pub fn builder(self, params: SystemParams, seed: u64) -> SimBuilder {
        let build = match self {
            ScheduleSpec::Synchronous => sync,
            ScheduleSpec::PartialSync => partial_sync,
            ScheduleSpec::FixedSlow => fixed_slow,
            ScheduleSpec::IsolateFirst => isolate_first,
            ScheduleSpec::Lossy => lossy,
            ScheduleSpec::DupStorm => dup_storm,
            ScheduleSpec::Partitioned => partitioned,
            ScheduleSpec::Churning => churn,
            ScheduleSpec::Flaky => flaky,
        };
        build(params, seed)
    }
}

impl fmt::Display for ScheduleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol column of the matrix: a vector-consensus engine (a
/// registry [`VectorSpec`]), run either raw (deciding whole vectors) or
/// under `Universal` (deciding values via the cell's `Λ`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProtocolAxis {
    /// Which vector-consensus engine (by registration record).
    pub engine: VectorSpec,
    /// Whether to wrap it in `Universal` (Algorithm 2).
    pub universal: bool,
}

impl ProtocolAxis {
    /// A raw engine column (deciding whole vectors).
    pub fn raw(engine: VectorSpec) -> ProtocolAxis {
        ProtocolAxis {
            engine,
            universal: false,
        }
    }

    /// A `Universal`-wrapped engine column (deciding values via `Λ`).
    pub fn wrapped(engine: VectorSpec) -> ProtocolAxis {
        ProtocolAxis {
            engine,
            universal: true,
        }
    }

    /// The registry name: `alg1-auth` raw, `universal/alg1-auth` wrapped.
    /// Keys write it through [`fmt::Display`], which allocates nothing.
    pub fn name(self) -> String {
        self.to_string()
    }

    /// Parses `alg1-auth` or `universal/alg1-auth` against the registry.
    ///
    /// ```
    /// use validity_lab::ProtocolAxis;
    ///
    /// let p = ProtocolAxis::parse("universal/alg1-auth").unwrap();
    /// assert!(p.universal);
    /// assert_eq!(p.name(), "universal/alg1-auth");
    /// assert!(ProtocolAxis::parse("universal/nope").is_none());
    /// ```
    pub fn parse(name: &str) -> Option<ProtocolAxis> {
        if let Some(rest) = name.strip_prefix("universal/") {
            Some(ProtocolAxis::wrapped(find_vector(rest)?))
        } else {
            Some(ProtocolAxis::raw(find_vector(name)?))
        }
    }
}

impl fmt::Display for ProtocolAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.universal {
            f.write_str("universal/")?;
        }
        f.write_str(self.engine.name())
    }
}

/// The x-axis a power-law fit runs along. It is a property of the fitted
/// [`FitMeasure`], not a setting: the paper's cost claims are exponents
/// in the system size `n` (Theorems 4 and 5, Appendix B), and the
/// classifier's cost grows with the domain size `|V|`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FitAxis {
    /// System size `n`: the axis of every run measure.
    N,
    /// Domain size `|V|`: the axis of the classifier's cost.
    Domain,
}

impl FitAxis {
    /// Every fit axis, in presentation order.
    pub const ALL: [FitAxis; 2] = [FitAxis::N, FitAxis::Domain];

    /// The stable name reports label their fits with.
    pub fn name(self) -> &'static str {
        match self {
            FitAxis::N => "n",
            FitAxis::Domain => "domain",
        }
    }

    /// Looks an axis up by its name.
    ///
    /// ```
    /// use validity_lab::FitAxis;
    ///
    /// assert_eq!(FitAxis::parse("domain"), Some(FitAxis::Domain));
    /// assert_eq!(FitAxis::parse("t"), None);
    /// ```
    pub fn parse(name: &str) -> Option<FitAxis> {
        FitAxis::ALL.into_iter().find(|a| a.name() == name)
    }
}

impl fmt::Display for FitAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A measure a matrix can ask the report to power-law-fit along the
/// measure's own [`FitAxis`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FitMeasure {
    /// Messages sent by correct processes in `[GST, ∞)`.
    Messages,
    /// Words sent by correct processes in `[GST, ∞)`.
    Words,
    /// Decision latency (time of the last correct decision).
    Latency,
    /// Admissibility evaluations performed by the solvability classifier —
    /// the cost of a classification cell, fitted along [`FitAxis::Domain`].
    ClassifyCost,
}

impl FitMeasure {
    /// Every fittable measure, in presentation order.
    pub const ALL: [FitMeasure; 4] = [
        FitMeasure::Messages,
        FitMeasure::Words,
        FitMeasure::Latency,
        FitMeasure::ClassifyCost,
    ];

    /// The stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            FitMeasure::Messages => "messages",
            FitMeasure::Words => "words",
            FitMeasure::Latency => "latency",
            FitMeasure::ClassifyCost => "classify-cost",
        }
    }

    /// The axis this measure is fitted along: run measures along `n`,
    /// the classifier's cost along `|V|`.
    pub fn axis(self) -> FitAxis {
        match self {
            FitMeasure::ClassifyCost => FitAxis::Domain,
            _ => FitAxis::N,
        }
    }

    /// Looks a measure up by its registry name.
    pub fn parse(name: &str) -> Option<FitMeasure> {
        FitMeasure::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl fmt::Display for FitMeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An expected band for a fitted exponent — the regression check a suite
/// ships with its measurements (e.g. "universal messages must grow ≈ n²:
/// exponent in [1.7, 2.3]").
#[derive(Clone, Debug, PartialEq)]
pub struct FitBand {
    /// Which measure's fit the band constrains.
    pub measure: FitMeasure,
    /// Inclusive lower bound on the fitted exponent.
    pub lo: f64,
    /// Inclusive upper bound on the fitted exponent.
    pub hi: f64,
    /// Substring filter on the fit-group key; the band applies to every
    /// fit group whose key contains it (empty = all groups).
    pub filter: String,
}

impl FitBand {
    /// Whether this band constrains the given fit group.
    ///
    /// ```
    /// use validity_lab::{FitBand, FitMeasure};
    ///
    /// let band = FitBand {
    ///     measure: FitMeasure::Messages,
    ///     lo: 1.7,
    ///     hi: 2.3,
    ///     filter: "alg1-auth".into(),
    /// };
    /// assert!(band.applies_to(FitMeasure::Messages, "fit/alg1-auth/vector/silentx0/sync"));
    /// assert!(!band.applies_to(FitMeasure::Words, "fit/alg1-auth/vector/silentx0/sync"));
    /// assert!(!band.applies_to(FitMeasure::Messages, "fit/alg6-fast/vector/silentx0/sync"));
    /// ```
    pub fn applies_to(&self, measure: FitMeasure, fit_key: &str) -> bool {
        self.measure == measure && fit_key.contains(self.filter.as_str())
    }
}

/// One classification cell: classify `validity` at `(n, t)` over the
/// domain `{0, .., domain - 1}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassifyCell {
    /// The property to classify.
    pub validity: ValiditySpec,
    /// System size.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// Domain size `|V_I|`.
    pub domain: u64,
}

impl ClassifyCell {
    /// The cell's stable key.
    pub fn key(&self) -> String {
        format!(
            "classify/{}/n{}t{}/d{}",
            self.validity, self.n, self.t, self.domain
        )
    }

    /// The key all domain sizes of this configuration share — the
    /// classifier-cost fit-group bucket (the domain becomes the fit's
    /// x-axis).
    pub fn fit_key(&self) -> String {
        format!("fit/classify/{}/n{}t{}", self.validity, self.n, self.t)
    }
}

/// One simulation cell, fully determined by its fields (plus the engine's
/// deterministic substrate derivation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RunCell {
    /// Protocol engine + mode.
    pub protocol: ProtocolAxis,
    /// Validity property; `None` for raw vector-consensus cells (their
    /// specification *is* Vector Validity).
    pub validity: Option<ValiditySpec>,
    /// Byzantine behaviour filling the faulty slots.
    pub behavior: BehaviorId,
    /// Number of faulty slots (`≤ t`).
    pub byz: usize,
    /// The declared fault-axis load `byz` was clamped from (`usize::MAX`
    /// = "maximum load"). Size-invariant where `byz` scales with `t`, so
    /// fit grouping uses it: a literal load that happens to equal `t` at
    /// one size must not migrate to a different fit group there.
    pub fault: usize,
    /// Network schedule.
    pub schedule: ScheduleSpec,
    /// System size.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// Simulation seed (also derives the PKI).
    pub seed: u64,
}

/// Room for a run cell's key: the longest group key over the registry's
/// axes (`run/universal/alg3-nonauth/correct-proposal/adaptive-floodx42/
/// partial-sync/n128t42`) is 82 bytes and `/s` plus a `u64` seed at most
/// 22, so a key is written with one allocation.
const KEY_CAPACITY: usize = 104;

impl RunCell {
    /// The key all seeds of this configuration share — the aggregation
    /// bucket.
    pub fn group_key(&self) -> String {
        let mut key = String::with_capacity(KEY_CAPACITY);
        let _ = write!(
            key,
            "run/{}/{}/{}x{}/{}/n{}t{}",
            self.protocol,
            self.validity.map_or("vector", |v| v.name()),
            self.behavior,
            self.byz,
            self.schedule,
            self.n,
            self.t,
        );
        key
    }

    /// The full per-cell key (group key + seed).
    pub fn key(&self) -> String {
        let mut key = self.group_key();
        let _ = write!(key, "/s{}", self.seed);
        key
    }

    /// The cell's key and group key, the group key formatted once: what a
    /// record is tagged with.
    pub(crate) fn keys(&self) -> (String, String) {
        let group = self.group_key();
        let mut key = String::with_capacity(KEY_CAPACITY);
        key.push_str(&group);
        let _ = write!(key, "/s{}", self.seed);
        (key, group)
    }

    /// The fault-load tag used by fit grouping: `(n, t)` varies along the
    /// fit's x-axis, so the clamped Byzantine count cannot name the group —
    /// the *declared* load (zero / literal / "maximum") is what means the
    /// same thing at every size.
    pub fn fault_tag(&self) -> String {
        if self.fault == usize::MAX {
            "max".into()
        } else {
            self.fault.to_string()
        }
    }

    /// The key all sizes and seeds of this configuration share — the
    /// run-measure fit-group bucket. Everything from
    /// [`RunCell::group_key`] except `(n, t)` (which becomes the fit's
    /// x-axis) and the raw Byzantine count (which scales with `t`; the
    /// [`RunCell::fault_tag`] stands in).
    pub fn fit_key(&self) -> String {
        format!(
            "fit/{}/{}/{}x{}/{}",
            self.protocol.name(),
            self.validity.map_or("vector", |v| v.name()),
            self.behavior,
            self.fault_tag(),
            self.schedule,
        )
    }

    /// The same cell at a different seed.
    pub fn with_seed(&self, seed: u64) -> RunCell {
        RunCell { seed, ..*self }
    }

    /// The input family the cell's processes propose from: the
    /// property's own for a `Universal` cell, [`Inputs::Decimal`] for a
    /// raw vector cell.
    pub fn inputs(&self) -> Inputs {
        match self.validity {
            Some(v) if self.protocol.universal => v.inputs(),
            _ => Inputs::Decimal,
        }
    }
}

/// A single unit of work for the executor.
#[derive(Clone, Debug)]
pub enum CellSpec {
    /// Run the simulator.
    Run(RunCell),
    /// Run the solvability classifier.
    Classify(ClassifyCell),
}

impl CellSpec {
    /// The cell's stable key.
    pub fn key(&self) -> String {
        match self {
            CellSpec::Run(c) => c.key(),
            CellSpec::Classify(c) => c.key(),
        }
    }
}

/// The cartesian product of every axis, plus a classification grid.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// Matrix name (suite name or "custom").
    pub name: String,
    /// Protocol axis.
    pub protocols: Vec<ProtocolAxis>,
    /// Validity axis (applies to `universal` protocols; raw vector cells
    /// ignore it).
    pub validities: Vec<ValiditySpec>,
    /// Byzantine-behaviour axis.
    pub behaviors: Vec<BehaviorId>,
    /// Fault-load axis: how many faulty slots to fill (each clamped to the
    /// cell's `t`).
    pub faults: Vec<usize>,
    /// Schedule axis.
    pub schedules: Vec<ScheduleSpec>,
    /// `(n, t)` axis.
    pub systems: Vec<(usize, usize)>,
    /// Seed axis.
    pub seeds: Range<u64>,
    /// Additional classification cells (not a product axis).
    pub classifications: Vec<ClassifyCell>,
    /// Measures to power-law-fit in the report, each along its own
    /// [`FitMeasure::axis`], grouped by [`RunCell::fit_key`] (or
    /// [`ClassifyCell::fit_key`] for the classifier's cost). Empty = no
    /// fit section.
    pub fit_measures: Vec<FitMeasure>,
    /// Expected exponent bands checked against the fitted measures.
    pub fit_bands: Vec<FitBand>,
    /// Per-cell step budget: a run cell processing more than this many
    /// simulator events is aborted and reported as *quarantined* instead of
    /// hanging the sweep. `None` = the simulator's own (very large) limit.
    pub max_steps: Option<u64>,
}

impl ScenarioMatrix {
    /// An empty matrix with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioMatrix {
            name: name.into(),
            protocols: Vec::new(),
            validities: Vec::new(),
            behaviors: Vec::new(),
            faults: vec![0],
            schedules: Vec::new(),
            systems: Vec::new(),
            seeds: 0..1,
            classifications: Vec::new(),
            fit_measures: Vec::new(),
            fit_bands: Vec::new(),
            max_steps: None,
        }
    }

    /// Enumerates the run-group templates in deterministic axis order
    /// (protocol, validity, behavior, fault load, schedule, system), one
    /// [`RunCell`] per group with `seed = seeds.start`: the seed-free
    /// skeleton [`ScenarioMatrix::run_cells`] crosses with the seed range,
    /// and the group metadata the report's fits read.
    ///
    /// Incompatible combinations are skipped rather than failed:
    /// `universal` requires a property with a closed-form `Λ`; raw vector
    /// cells collapse the validity axis; a zero fault load collapses the
    /// behaviour axis (no faulty slot to fill). Several axis combinations
    /// can collapse onto the same group — raw protocols ignore the
    /// validity axis, and distinct fault loads can clamp to the same byz
    /// count (e.g. `1` and `max` at t = 1) — so templates are
    /// deduplicated by group key.
    pub fn run_templates(&self) -> Vec<RunCell> {
        let mut out: Vec<RunCell> = Vec::new();
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for &protocol in &self.protocols {
            let validity_axis: Vec<Option<ValiditySpec>> = if protocol.universal {
                self.validities.iter().map(|&v| Some(v)).collect()
            } else {
                vec![None]
            };
            for &validity in &validity_axis {
                for &behavior in &self.behaviors {
                    for &fault in &self.faults {
                        if fault == 0 && behavior != self.behaviors[0] {
                            continue; // behaviour is moot with no faulty slot
                        }
                        for &schedule in &self.schedules {
                            for &(n, t) in &self.systems {
                                let Ok(params) = SystemParams::new(n, t) else {
                                    continue; // invalid (n, t): not a scenario
                                };
                                if let Some(v) = validity {
                                    if v.lambda(params).is_none() {
                                        continue; // no Λ — Universal cannot run it
                                    }
                                }
                                let cell = RunCell {
                                    protocol,
                                    validity,
                                    behavior,
                                    byz: fault.min(t),
                                    fault,
                                    schedule,
                                    n,
                                    t,
                                    seed: self.seeds.start,
                                };
                                if seen.insert(cell.group_key()) {
                                    out.push(cell);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The run product in axis order (protocol, validity, behavior, fault
    /// load, schedule, system, seed): every [`ScenarioMatrix::run_templates`]
    /// group crossed with the seed range.
    pub fn run_cells(&self) -> impl Iterator<Item = RunCell> + '_ {
        self.run_templates()
            .into_iter()
            .flat_map(|template| self.seeds.clone().map(move |seed| template.with_seed(seed)))
    }

    /// Enumerates the matrix into a deterministically ordered cell list:
    /// classification cells first, then [`ScenarioMatrix::run_cells`].
    pub fn cells(&self) -> Vec<CellSpec> {
        let classify = self.classifications.iter().map(|c| CellSpec::Classify(*c));
        classify
            .chain(self.run_cells().map(CellSpec::Run))
            .collect()
    }

    /// Total cell count (what [`ScenarioMatrix::cells`] will produce).
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether the matrix enumerates no cells.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }

    /// The axis the report labels its fits with: `domain` exactly when
    /// the declared measures are all the classifier's cost, `n` otherwise
    /// (no measures included).
    pub fn fit_axis(&self) -> FitAxis {
        let classifier_only = !self.fit_measures.is_empty()
            && self
                .fit_measures
                .iter()
                .all(|m| m.axis() == FitAxis::Domain);
        if classifier_only {
            FitAxis::Domain
        } else {
            FitAxis::N
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auth() -> VectorSpec {
        find_vector("alg1-auth").unwrap()
    }

    fn small_matrix() -> ScenarioMatrix {
        let mut m = ScenarioMatrix::new("test");
        m.protocols = vec![ProtocolAxis::wrapped(auth()), ProtocolAxis::raw(auth())];
        m.validities = vec![ValiditySpec::Strong, ValiditySpec::Parity];
        m.behaviors = vec![BehaviorId::Silent, BehaviorId::Crash];
        m.faults = vec![0, 1];
        m.schedules = vec![ScheduleSpec::Synchronous];
        m.systems = vec![(4, 1)];
        m.seeds = 0..2;
        m
    }

    #[test]
    fn enumeration_is_deterministic_and_dedupes() {
        let m = small_matrix();
        let a: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        let b: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "duplicate cells in {a:?}");
    }

    #[test]
    fn incompatible_combinations_are_skipped() {
        let m = small_matrix();
        for cell in m.cells() {
            if let CellSpec::Run(c) = cell {
                // Parity has no Λ: it must never appear under Universal.
                assert_ne!(c.validity, Some(ValiditySpec::Parity));
                // Raw cells have no validity axis.
                if !c.protocol.universal {
                    assert_eq!(c.validity, None);
                }
            }
        }
    }

    #[test]
    fn invalid_systems_are_skipped_for_raw_and_universal_cells() {
        let mut m = small_matrix();
        m.systems = vec![(3, 0), (4, 4), (4, 1)];
        for cell in m.cells() {
            if let CellSpec::Run(c) = cell {
                assert_eq!((c.n, c.t), (4, 1), "invalid (n, t) leaked into {c:?}");
            }
        }
    }

    #[test]
    fn zero_fault_load_collapses_behavior_axis() {
        let m = small_matrix();
        let fault_free: Vec<RunCell> = m
            .cells()
            .into_iter()
            .filter_map(|c| match c {
                CellSpec::Run(r) if r.byz == 0 => Some(r),
                _ => None,
            })
            .collect();
        assert!(!fault_free.is_empty());
        assert!(
            fault_free.iter().all(|c| c.behavior == BehaviorId::Silent),
            "fault-free cells must not multiply across behaviours"
        );
    }

    #[test]
    fn registry_names_roundtrip() {
        for v in ValiditySpec::ALL {
            assert_eq!(ValiditySpec::parse(v.name()), Some(v));
        }
        for s in ScheduleSpec::ALL {
            assert_eq!(ScheduleSpec::parse(s.name()), Some(s));
        }
        for m in FitMeasure::ALL {
            assert_eq!(FitMeasure::parse(m.name()), Some(m));
        }
        for a in FitAxis::ALL {
            assert_eq!(FitAxis::parse(a.name()), Some(a));
        }
        let p = ProtocolAxis::wrapped(find_vector("alg6-fast").unwrap());
        assert_eq!(ProtocolAxis::parse(&p.name()), Some(p));
    }

    #[test]
    fn cells_are_templates_crossed_with_seeds() {
        // The template refactor must not change the enumeration: cells =
        // classifications, then template-major × seed-minor.
        let m = small_matrix();
        let templates = m.run_templates();
        assert!(!templates.is_empty());
        let mut expected: Vec<String> = Vec::new();
        for t in &templates {
            for seed in m.seeds.clone() {
                expected.push(t.with_seed(seed).key());
            }
        }
        let got: Vec<String> = m
            .cells()
            .iter()
            .filter(|c| matches!(c, CellSpec::Run(_)))
            .map(|c| c.key())
            .collect();
        assert_eq!(got, expected);
        // Templates are deduplicated by group key.
        let mut keys: Vec<String> = templates.iter().map(|t| t.group_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), templates.len());
    }

    #[test]
    fn fit_key_collapses_size_and_scales_fault_load() {
        let mut cell = RunCell {
            protocol: ProtocolAxis::wrapped(auth()),
            validity: Some(ValiditySpec::Strong),
            behavior: BehaviorId::Silent,
            byz: 1,
            fault: usize::MAX,
            schedule: ScheduleSpec::Synchronous,
            n: 4,
            t: 1,
            seed: 0,
        };
        let small = cell.fit_key();
        // Same configuration at a larger size with byz = t: same fit group.
        cell.n = 13;
        cell.t = 4;
        cell.byz = 4;
        cell.seed = 2;
        assert_eq!(small, cell.fit_key());
        assert_eq!(small, "fit/universal/alg1-auth/strong/silentxmax/sync");
        // Fault-free is a different group.
        cell.byz = 0;
        cell.fault = 0;
        assert_eq!(cell.fault_tag(), "0");
        assert_ne!(small, cell.fit_key());
        // A literal load keeps its declared count — even where the clamp
        // happens to coincide with t at one size, the group must not split.
        cell.fault = 2;
        cell.byz = 2;
        assert_eq!(cell.fault_tag(), "2");
        let two_faults = cell.fit_key();
        cell.n = 7;
        cell.t = 2; // byz == t here, but the declared load is still 2
        assert_eq!(cell.fit_key(), two_faults);
    }

    #[test]
    fn fit_bands_filter_by_substring() {
        let band = FitBand {
            measure: FitMeasure::Messages,
            lo: 1.7,
            hi: 2.3,
            filter: "silentx0".into(),
        };
        assert!(band.applies_to(
            FitMeasure::Messages,
            "fit/universal/alg1-auth/strong/silentx0/sync"
        ));
        assert!(!band.applies_to(
            FitMeasure::Messages,
            "fit/universal/alg1-auth/strong/silentxmax/sync"
        ));
        assert!(!band.applies_to(
            FitMeasure::Words,
            "fit/universal/alg1-auth/strong/silentx0/sync"
        ));
    }
}
