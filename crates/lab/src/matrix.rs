//! Scenario matrices: the cartesian product of every experiment axis.
//!
//! A [`ScenarioMatrix`] names a family of executions — protocol × validity
//! property × Byzantine behaviour × network schedule × `(n, t)` × seed —
//! plus an optional grid of solvability-classification cells. Enumerating
//! it yields a flat, deterministically ordered list of [`CellSpec`]s that
//! the executor fans out across workers.

use std::fmt;
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

/// One shard of an `m`-way partition of a matrix — `--shard i/m` on the
/// CLI, with `index` 1-based.
///
/// Cells are assigned round-robin over the matrix enumeration index:
/// shard `i` owns every cell whose index `≡ i − 1 (mod m)`. The
/// assignment is a pure function of the matrix and `(i, m)` — it does not
/// depend on worker counts, hostnames, or anything else about the process
/// executing the shard — so `m` processes on `m` machines enumerate
/// identical partitions.
///
/// ```
/// use validity_lab::ShardSpec;
///
/// let s = ShardSpec::parse("2/4").unwrap();
/// assert_eq!((s.index, s.count), (2, 4));
/// assert!(s.owns(1) && s.owns(5) && !s.owns(0));
/// assert!(ShardSpec::parse("0/4").is_err()); // 1-based
/// assert!(ShardSpec::parse("5/4").is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardSpec {
    /// Which shard this is, in `1..=count`.
    pub index: usize,
    /// Total number of shards in the partition.
    pub count: usize,
}

impl ShardSpec {
    /// The trivial partition: one shard owning every cell.
    pub fn full() -> ShardSpec {
        ShardSpec { index: 1, count: 1 }
    }

    /// Whether this is the trivial (unsharded) partition.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Parses `i/m` with `1 ≤ i ≤ m`.
    pub fn parse(text: &str) -> Result<ShardSpec, String> {
        let (i, m) = text
            .split_once('/')
            .ok_or_else(|| format!("bad shard '{text}' (want i/m, e.g. 2/4)"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index '{i}'"))?;
        let count: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count '{m}'"))?;
        if count == 0 || index == 0 || index > count {
            return Err(format!("shard '{text}' out of range (want 1 ≤ i ≤ m)"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this shard owns the cell at the given matrix-enumeration
    /// index.
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index - 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

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

    /// The proposal of process `i` in an `n`-process run of this property.
    pub fn input_for(self, i: usize) -> u64 {
        if self.binary_inputs() {
            (i % 2) as u64
        } else {
            (i as u64) * 10
        }
    }

    /// A different but still domain-valid proposal (the second face of the
    /// two-faced adversary).
    pub fn alt_input_for(self, i: usize) -> u64 {
        if self.binary_inputs() {
            ((i + 1) % 2) as u64
        } else {
            (i as u64) * 10 + 5
        }
    }
}

impl fmt::Display for ValiditySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The registration record behind one [`ScheduleSpec`] handle (the same
/// registry shape as `validity_protocols::ProtocolSpec`): a stable name,
/// a one-line description, whether the schedule injects network faults,
/// and the factory producing its [`SimBuilder`].
#[derive(Debug)]
pub struct ScheduleRecord {
    /// Presentation / ordering index within the registry.
    ord: usize,
    /// The stable registry name (`lab run --schedules <name>`).
    name: &'static str,
    /// One-line description for `lab list`.
    describe: &'static str,
    /// Whether the schedule runs a faulty network model (loss,
    /// duplication, partition, churn) rather than a clean delay policy.
    chaos: bool,
    /// The builder factory.
    build: fn(SystemParams, u64) -> SimBuilder,
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

/// The schedule registry: the four legacy (clean) schedules first, then
/// the chaos catalogue. Order is presentation order and the `Ord` of the
/// handles.
static SCHEDULE_REGISTRY: [ScheduleRecord; 9] = [
    ScheduleRecord {
        ord: 0,
        name: "sync",
        describe: "GST = 0 — synchrony from the start",
        chaos: false,
        build: sync,
    },
    ScheduleRecord {
        ord: 1,
        name: "partial-sync",
        describe: "default partial synchrony (GST = 1000, uniform pre-GST jitter)",
        chaos: false,
        build: partial_sync,
    },
    ScheduleRecord {
        ord: 2,
        name: "fixed-slow",
        describe: "every pre-GST message takes 3δ",
        chaos: false,
        build: fixed_slow,
    },
    ScheduleRecord {
        ord: 3,
        name: "isolate-p1",
        describe: "all links touching P1 stalled until GST",
        chaos: false,
        build: isolate_first,
    },
    ScheduleRecord {
        ord: 4,
        name: "lossy",
        describe: "20% of pre-GST sends withheld to their DLS deadline",
        chaos: true,
        build: lossy,
    },
    ScheduleRecord {
        ord: 5,
        name: "dup-storm",
        describe: "25% of pre-GST deliveries duplicated",
        chaos: true,
        build: dup_storm,
    },
    ScheduleRecord {
        ord: 6,
        name: "partitioned",
        describe: "two halves cut from each other, healing at GST/2",
        chaos: true,
        build: partitioned,
    },
    ScheduleRecord {
        ord: 7,
        name: "churn",
        describe: "two nodes crash-recover over staggered pre-GST outages",
        chaos: true,
        build: churn,
    },
    ScheduleRecord {
        ord: 8,
        name: "flaky",
        describe: "jitter + duplication + loss composed on one link model",
        chaos: true,
        build: flaky,
    },
];

/// Names a network schedule: GST placement plus the pre-GST network model.
///
/// A `ScheduleSpec` is a `Copy` handle onto a [`ScheduleRecord`] in the
/// static schedule registry — the same shape as the protocol registry —
/// so the catalogue is open: adding a schedule is adding a record, not
/// growing a closed enum. The legacy handles keep their historical
/// constructor names ([`ScheduleSpec::Synchronous`] etc.), so existing
/// call sites read unchanged.
#[derive(Clone, Copy)]
pub struct ScheduleSpec {
    rec: &'static ScheduleRecord,
}

#[allow(non_upper_case_globals)] // legacy enum-variant spelling, kept for call-site compatibility
impl ScheduleSpec {
    /// GST = 0 — synchrony from the start.
    pub const Synchronous: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[0],
    };
    /// The default partially synchronous setup (GST = 1000, uniform jitter
    /// before it).
    pub const PartialSync: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[1],
    };
    /// Every pre-GST message takes `3δ`.
    pub const FixedSlow: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[2],
    };
    /// All links touching `P1` are stalled until GST; everything else is
    /// fast.
    pub const IsolateFirst: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[3],
    };
    /// 20% pre-GST loss over the default uniform delays.
    pub const Lossy: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[4],
    };
    /// 25% pre-GST duplication over the default uniform delays.
    pub const DupStorm: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[5],
    };
    /// A two-sided partition healing at GST/2.
    pub const Partitioned: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[6],
    };
    /// Crash-recovery churn: staggered per-node outages before GST.
    pub const Churning: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[7],
    };
    /// Jitter + duplication + loss composed.
    pub const Flaky: ScheduleSpec = ScheduleSpec {
        rec: &SCHEDULE_REGISTRY[8],
    };
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

    /// Every registered schedule, in presentation order (legacy first,
    /// then chaos).
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

    /// The stable registry name.
    pub fn name(self) -> &'static str {
        self.rec.name
    }

    /// One-line description for `lab list`.
    pub fn describe(self) -> &'static str {
        self.rec.describe
    }

    /// Whether the schedule runs a faulty network model (loss,
    /// duplication, partition, churn) rather than a clean delay policy.
    pub fn is_chaos(self) -> bool {
        self.rec.chaos
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
        (self.rec.build)(params, seed)
    }
}

impl PartialEq for ScheduleSpec {
    fn eq(&self, other: &ScheduleSpec) -> bool {
        std::ptr::eq(self.rec, other.rec)
    }
}

impl Eq for ScheduleSpec {}

impl PartialOrd for ScheduleSpec {
    fn partial_cmp(&self, other: &ScheduleSpec) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduleSpec {
    /// Registry order — identical to the declaration order of the old
    /// closed enum for the legacy schedules, so nothing that sorted by
    /// the derived variant order changes.
    fn cmp(&self, other: &ScheduleSpec) -> std::cmp::Ordering {
        self.rec.ord.cmp(&other.rec.ord)
    }
}

impl std::hash::Hash for ScheduleSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rec.name.hash(state);
    }
}

impl fmt::Debug for ScheduleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScheduleSpec({})", self.rec.name)
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
    pub fn name(self) -> String {
        if self.universal {
            format!("universal/{}", self.engine.name())
        } else {
            self.engine.name().to_string()
        }
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
        f.write_str(&self.name())
    }
}

/// The x-axis a matrix's power-law fits run along.
///
/// The paper's complexity claims are parameterized three ways: by the
/// system size `n` (Theorem 5, Appendix B), by the fault count `t`
/// (resilience trade-offs), and — for the classifier — by the domain size
/// `|V|` (the proposition space). A matrix declares which axis its fit
/// groups vary over; everything held fixed lands in the fit key, and the
/// declared axis supplies each group's x-coordinates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum FitAxis {
    /// System size `n` (the default, and the paper's usual axis).
    #[default]
    N,
    /// Fault count: the number of Byzantine slots actually filled.
    /// Fault-free cells (x = 0) cannot sit on a log–log line and are
    /// excluded from the fit's points.
    T,
    /// Domain size `|V|` — classification cells only (run cells have no
    /// domain axis and produce no fit rows under it).
    Domain,
}

impl FitAxis {
    /// Every fit axis, in presentation order.
    pub const ALL: [FitAxis; 3] = [FitAxis::N, FitAxis::T, FitAxis::Domain];

    /// The stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            FitAxis::N => "n",
            FitAxis::T => "t",
            FitAxis::Domain => "domain",
        }
    }

    /// Looks an axis up by its registry name.
    ///
    /// ```
    /// use validity_lab::FitAxis;
    ///
    /// assert_eq!(FitAxis::parse("domain"), Some(FitAxis::Domain));
    /// assert_eq!(FitAxis::parse("nope"), None);
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

/// Adaptive-sampling parameters: how precisely each run group's fitted
/// measures must be estimated, and what budget the estimation may spend.
///
/// With a `SamplingSpec`, the engine runs each group's seeds in
/// deterministic batches and stops as soon as every fitted measure's 95%
/// confidence interval is tight enough — *relative half-width*
/// `1.96·s/(√k·mean) ≤ precision` — or the seed cap is reached. Stable
/// groups stop early; noisy groups get more budget; and because the
/// decision is a pure function of the group's own records, adaptive
/// sweeps stay byte-identical across worker counts and shard layouts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SamplingSpec {
    /// Target relative half-width of the 95% CI on each fitted measure's
    /// mean.
    pub precision: f64,
    /// Seeds per batch (the pilot batch and every extension).
    pub batch: u64,
    /// Hard cap on seeds per group; a group still unstable here is
    /// reported as *capped* in the `sampling` section.
    pub max_seeds: u64,
}

impl Default for SamplingSpec {
    /// The CLI's `--adaptive` defaults: 5% relative half-width, batches of
    /// 2 seeds, at most 16 seeds per group.
    fn default() -> Self {
        SamplingSpec {
            precision: 0.05,
            batch: 2,
            max_seeds: 16,
        }
    }
}

impl SamplingSpec {
    /// Seeds per batch, defended against a zero batch (the adaptive loop
    /// always runs whole batches, so a batch must make progress).
    pub fn batch_size(&self) -> u64 {
        self.batch.max(1)
    }
}

/// A per-run measure a matrix can ask the report to power-law-fit against
/// its declared [`FitAxis`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FitMeasure {
    /// Messages sent by correct processes in `[GST, ∞)`.
    Messages,
    /// Words sent by correct processes in `[GST, ∞)`.
    Words,
    /// Decision latency (time of the last correct decision).
    Latency,
    /// Admissibility evaluations performed by the solvability classifier —
    /// the cost of a classification cell. Pairs with [`FitAxis::Domain`].
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

    /// Whether this measure is observed on run cells (vs classification
    /// cells).
    pub fn is_run_measure(self) -> bool {
        self != FitMeasure::ClassifyCost
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
    /// fit-group bucket under [`FitAxis::Domain`] (the domain becomes the
    /// fit's x-axis).
    pub fn fit_key(&self) -> String {
        format!("fit/classify/{}/n{}t{}", self.validity, self.n, self.t)
    }
}

/// One simulation cell, fully determined by its fields (plus the engine's
/// deterministic substrate derivation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

impl RunCell {
    /// The key all seeds of this configuration share — the aggregation
    /// bucket.
    pub fn group_key(&self) -> String {
        format!(
            "run/{}/{}/{}x{}/{}/n{}t{}",
            self.protocol.name(),
            self.validity.map_or("vector", |v| v.name()),
            self.behavior,
            self.byz,
            self.schedule,
            self.n,
            self.t,
        )
    }

    /// The full per-cell key (group key + seed).
    pub fn key(&self) -> String {
        format!("{}/s{}", self.group_key(), self.seed)
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
    /// fit-group bucket under the default [`FitAxis::N`]. Everything from
    /// [`RunCell::group_key`] except `(n, t)` (which becomes the fit's
    /// x-axis) and the raw Byzantine count (which scales with `t`; the
    /// [`RunCell::fault_tag`] stands in).
    pub fn fit_key(&self) -> String {
        self.fit_key_on(FitAxis::N)
    }

    /// The fit-group bucket for an arbitrary axis: the axis coordinate is
    /// dropped from the key (it becomes the x-axis), everything else
    /// stays.
    ///
    /// * [`FitAxis::N`] — drops `(n, t)`, keeps the declared fault tag.
    /// * [`FitAxis::T`] — drops the fault load (x = the Byzantine count
    ///   actually filled), keeps `(n, t)`.
    /// * [`FitAxis::Domain`] — run cells have no domain; they form no fit
    ///   group (the key is empty).
    pub fn fit_key_on(&self, axis: FitAxis) -> String {
        match axis {
            FitAxis::N => format!(
                "fit/{}/{}/{}x{}/{}",
                self.protocol.name(),
                self.validity.map_or("vector", |v| v.name()),
                self.behavior,
                self.fault_tag(),
                self.schedule,
            ),
            FitAxis::T => format!(
                "fit/{}/{}/{}/{}/n{}t{}",
                self.protocol.name(),
                self.validity.map_or("vector", |v| v.name()),
                self.behavior,
                self.schedule,
                self.n,
                self.t,
            ),
            FitAxis::Domain => String::new(),
        }
    }

    /// The group's x-coordinate on the given fit axis.
    pub fn fit_x(&self, axis: FitAxis) -> u64 {
        match axis {
            FitAxis::N => self.n as u64,
            FitAxis::T => self.byz as u64,
            FitAxis::Domain => 0,
        }
    }

    /// The same cell at a different seed.
    pub fn with_seed(&self, seed: u64) -> RunCell {
        RunCell { seed, ..*self }
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

/// A unit of adaptive work: one classification cell, or one run group
/// whose seed count the engine decides as it goes.
#[derive(Clone, Debug)]
pub enum WorkUnit {
    /// Run the solvability classifier once.
    Classify(ClassifyCell),
    /// Run the group's adaptive seed ladder (the [`RunCell`] is the
    /// group's template, carrying the first seed).
    Group(RunCell),
}

impl WorkUnit {
    /// The unit's stable key: the cell key for a classification, the
    /// group key for a run group.
    pub fn key(&self) -> String {
        match self {
            WorkUnit::Classify(c) => c.key(),
            WorkUnit::Group(g) => g.group_key(),
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
    /// Measures to power-law-fit against the declared [`FitAxis`] in the
    /// report, grouped by [`RunCell::fit_key_on`] (or
    /// [`ClassifyCell::fit_key`] for the domain axis). Empty = no fit
    /// section.
    pub fit_measures: Vec<FitMeasure>,
    /// The x-axis the fit groups vary over (default: system size `n`).
    pub fit_axis: FitAxis,
    /// Expected exponent bands checked against the fitted measures.
    pub fit_bands: Vec<FitBand>,
    /// Per-cell step budget: a run cell processing more than this many
    /// simulator events is aborted and reported as *quarantined* instead of
    /// hanging the sweep. `None` = the simulator's own (very large) limit.
    pub max_steps: Option<u64>,
    /// Adaptive sampling: when set, the seed axis is no longer a fixed
    /// range — each run group starts at `seeds.start` and consumes
    /// deterministic batches until its fitted measures stabilize at the
    /// target precision or the per-group cap is hit (`seeds.end` is
    /// ignored). `None` = the classic fixed-seed sweep.
    pub sampling: Option<SamplingSpec>,
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
            fit_axis: FitAxis::N,
            fit_bands: Vec::new(),
            max_steps: None,
            sampling: None,
        }
    }

    /// Enumerates the run-group templates in deterministic axis order
    /// (protocol, validity, behavior, fault load, schedule, system), one
    /// [`RunCell`] per group with `seed = seeds.start`. This is the seed-
    /// free skeleton both enumerations build on: [`ScenarioMatrix::cells`]
    /// crosses it with the seed range, the adaptive engine crosses it with
    /// as many seeds as each group turns out to need.
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

    /// Enumerates the matrix into a deterministically ordered cell list:
    /// classification cells first, then the run product in axis order
    /// (protocol, validity, behavior, fault load, schedule, system, seed).
    ///
    /// For an adaptive matrix this is the *static* enumeration over the
    /// declared seed range; the engine's realized cell list depends on
    /// each group's stopping decision (see [`ScenarioMatrix::work_units`]).
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out: Vec<CellSpec> = self
            .classifications
            .iter()
            .map(|c| CellSpec::Classify(*c))
            .collect();
        for template in self.run_templates() {
            for seed in self.seeds.clone() {
                out.push(CellSpec::Run(template.with_seed(seed)));
            }
        }
        out
    }

    /// Enumerates the matrix's *work units* — the granularity adaptive
    /// execution and adaptive sharding operate on: each classification
    /// cell is one unit, and each run group is one unit (the unit owns the
    /// group's entire adaptive seed ladder, so the stopping decision is a
    /// pure function of the unit's own records and shards never have to
    /// coordinate mid-sweep).
    pub fn work_units(&self) -> Vec<WorkUnit> {
        let mut out: Vec<WorkUnit> = self
            .classifications
            .iter()
            .map(|c| WorkUnit::Classify(*c))
            .collect();
        out.extend(self.run_templates().into_iter().map(WorkUnit::Group));
        out
    }

    /// The sub-list of [`ScenarioMatrix::work_units`] owned by one shard
    /// of an `m`-way partition (round-robin over the unit index, exactly
    /// like [`ScenarioMatrix::shard_cells`] over cells).
    pub fn shard_units(&self, shard: ShardSpec) -> Vec<WorkUnit> {
        self.work_units()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| shard.owns(i))
            .map(|(_, u)| u)
            .collect()
    }

    /// The sub-list of [`ScenarioMatrix::cells`] owned by one shard of an
    /// `m`-way partition, in matrix order.
    ///
    /// Shards are assigned round-robin over the enumeration index (see
    /// [`ShardSpec::owns`]), so for any `m` the shards are pairwise
    /// disjoint, their union is exactly [`ScenarioMatrix::cells`], and the
    /// partition is stable across processes: every participant that can
    /// build the matrix computes the same sub-lists.
    ///
    /// ```
    /// use validity_lab::{suites, ShardSpec};
    ///
    /// let m = suites::build("quick").unwrap();
    /// let all = m.cells();
    /// let mut merged: Vec<_> = (1..=3)
    ///     .flat_map(|i| m.shard_cells(ShardSpec { index: i, count: 3 }))
    ///     .map(|c| c.key())
    ///     .collect();
    /// merged.sort();
    /// let mut keys: Vec<_> = all.iter().map(|c| c.key()).collect();
    /// keys.sort();
    /// assert_eq!(merged, keys);
    /// ```
    pub fn shard_cells(&self, shard: ShardSpec) -> Vec<CellSpec> {
        self.cells()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| shard.owns(i))
            .map(|(_, c)| c)
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
    fn work_units_partition_like_cells() {
        let mut m = small_matrix();
        m.classifications = vec![ClassifyCell {
            validity: ValiditySpec::Parity,
            n: 4,
            t: 1,
            domain: 2,
        }];
        let units = m.work_units();
        // Classifications first, then one unit per run group.
        assert_eq!(units.len(), 1 + m.run_templates().len());
        assert!(matches!(units[0], WorkUnit::Classify(_)));
        // Shard units are disjoint and covering, like shard_cells.
        for count in 1..=4usize {
            let mut covered: Vec<String> = (1..=count)
                .flat_map(|index| m.shard_units(ShardSpec { index, count }))
                .map(|u| u.key())
                .collect();
            covered.sort();
            let mut all: Vec<String> = units.iter().map(|u| u.key()).collect();
            all.sort();
            assert_eq!(covered, all, "unit partition broken at m={count}");
        }
    }

    #[test]
    fn fit_key_on_t_axis_keeps_size_and_drops_the_fault_load() {
        let mut cell = RunCell {
            protocol: ProtocolAxis::raw(auth()),
            validity: None,
            behavior: BehaviorId::Silent,
            byz: 1,
            fault: 1,
            schedule: ScheduleSpec::Synchronous,
            n: 7,
            t: 2,
            seed: 0,
        };
        let one = cell.fit_key_on(FitAxis::T);
        assert_eq!(one, "fit/alg1-auth/vector/silent/sync/n7t2");
        assert_eq!(cell.fit_x(FitAxis::T), 1);
        // A different fault count lands in the same group (it is the
        // x-axis), a different size does not.
        cell.byz = 2;
        cell.fault = 2;
        assert_eq!(cell.fit_key_on(FitAxis::T), one);
        assert_eq!(cell.fit_x(FitAxis::T), 2);
        cell.n = 10;
        cell.t = 3;
        assert_ne!(cell.fit_key_on(FitAxis::T), one);
        // Run cells form no group on the domain axis.
        assert!(cell.fit_key_on(FitAxis::Domain).is_empty());
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
    fn shard_parse_rejects_malformed_and_out_of_range() {
        assert_eq!(
            ShardSpec::parse("1/1"),
            Ok(ShardSpec { index: 1, count: 1 })
        );
        assert_eq!(
            ShardSpec::parse("4/8"),
            Ok(ShardSpec { index: 4, count: 8 })
        );
        for bad in ["", "3", "0/4", "5/4", "1/0", "a/b", "1//2"] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted '{bad}'");
        }
        assert!(ShardSpec::full().is_full());
        assert!(!ShardSpec { index: 1, count: 2 }.is_full());
    }

    #[test]
    fn shards_partition_the_matrix_in_order() {
        let m = small_matrix();
        let all: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        for count in 1..=8 {
            let mut covered: Vec<String> = Vec::new();
            for index in 1..=count {
                let shard = m.shard_cells(ShardSpec { index, count });
                // Each shard is a subsequence of the full enumeration.
                let mut cursor = 0usize;
                for cell in &shard {
                    let key = cell.key();
                    let pos = all[cursor..]
                        .iter()
                        .position(|k| *k == key)
                        .unwrap_or_else(|| panic!("{key} out of order at m={count}"));
                    cursor += pos + 1;
                    covered.push(key);
                }
            }
            // Disjoint and covering: the union (sorted) is exactly the
            // matrix.
            covered.sort();
            let mut expected = all.clone();
            expected.sort();
            assert_eq!(covered, expected, "partition broken at m={count}");
        }
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
