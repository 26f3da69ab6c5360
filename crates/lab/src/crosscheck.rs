//! Differential cross-validation: every applicable engine, both report
//! emitters, and both verdict paths cross-checked on identical cells.
//!
//! The paper's central claim is that a validity property admits (or
//! refuses) the *same* verdicts regardless of which algorithm decides it —
//! which makes every protocol in this repo an independent oracle for every
//! other one, and the static classifier an oracle for all of them at once.
//! A [`CrosscheckMatrix`] enumerates scenario cells `(property, behavior,
//! fault, schedule, (n, t), seed)` through the same skeleton as
//! [`ScenarioMatrix`], runs every registered engine (wrapped in
//! `Universal`) plus the solvability classifier on each cell, and grades
//! the outcome with an [`AgreementLevel`]:
//!
//! * **full** — every engine ran, told the same story (decided, Agreement
//!   held, decisions admissible), and the story matches the classifier's
//!   verdict;
//! * **expected-divergence** — a column sat out for a *declared* reason:
//!   the engine's registered [`Applicability`] band excludes this `(n, t)`,
//!   the classifier's enumeration is out of its tractability band, or a
//!   run was quarantined by its step budget;
//! * **DISAGREEMENT** — the oracles split with no declared reason: a
//!   safety violation, engines reporting different outcomes, or a
//!   solvable classification contradicted by the simulation
//!   ([`Classification::consistent_with_run`]). Every such cell is a
//!   potential bug and is named individually in the report.
//!
//! The executor is the same deterministic worker-pool shape as
//! [`crate::service::run_service`]: cells fan out over threads, results
//! collect in matrix order, and the `crosscheck@1` artifact is
//! byte-identical across worker counts. On top of the engine columns, the
//! two *emitters* are cross-checked too: [`compare_emitted`] re-parses the
//! JSON and Markdown renderings of the same report and diffs the agreement
//! levels they claim, so a drifting emitter fails the `lab crosscheck`
//! gate just like a drifting engine.
//!
//! [`Applicability`]: validity_protocols::registry::Applicability

use std::ops::Range;
use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_core::{classify, Classification, Domain, SystemParams};
use validity_protocols::registry::{vector_registry, VectorSpec};

use crate::executor::CellTiming;
use crate::json::Json;
use crate::matrix::{CellSpec, ProtocolAxis, RunCell, ScenarioMatrix, ScheduleSpec, ValiditySpec};
use crate::pool;
use crate::report::json_str;
use crate::runner::{execute_with_budget, Outcome, RunRecord};

/// Schema tag of the crosscheck report artifact.
pub const CROSSCHECK_SCHEMA: &str = "validity-lab/crosscheck@1";

/// The classifier's tractability band: the decision procedure enumerates
/// input configurations over the reference domain, so its cost grows as
/// `|V|ⁿ`. Cells whose configuration space exceeds this budget skip the
/// classifier column — an *expected* divergence, mirroring the engines'
/// registered applicability bands.
pub const CLASSIFIER_CONFIG_BUDGET: u64 = 16_384;

/// Whether the classifier column is in band at system size `n` over a
/// reference domain of `domain` values (`domainⁿ ≤` the budget).
pub fn classifier_in_band(n: usize, domain: u64) -> bool {
    u32::try_from(n)
        .ok()
        .and_then(|n| domain.checked_pow(n))
        .is_some_and(|configs| configs <= CLASSIFIER_CONFIG_BUDGET)
}

/// One crosscheck cell: a scenario with the protocol axis *removed* —
/// every engine column runs this same cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrosscheckCell {
    /// The validity property every column solves (or classifies).
    pub validity: ValiditySpec,
    /// Byzantine behaviour filling the faulty slots.
    pub behavior: BehaviorId,
    /// Number of faulty slots (`≤ t`).
    pub byz: usize,
    /// The declared fault-axis load `byz` was clamped from.
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

impl CrosscheckCell {
    /// The cell's stable key.
    pub fn key(&self) -> String {
        format!(
            "crosscheck/{}/{}x{}/{}/n{}t{}/s{}",
            self.validity, self.behavior, self.byz, self.schedule, self.n, self.t, self.seed,
        )
    }

    /// The classifier column over a reference domain of `domain` values;
    /// `None` when the configuration space is out of its band.
    pub fn classify(&self, domain: u64) -> Option<Classification<u64>> {
        classifier_in_band(self.n, domain).then(|| {
            let params =
                SystemParams::new(self.n, self.t).expect("matrix enumerated an invalid (n, t)");
            classify(
                &self.validity.property(self.t),
                params,
                &Domain::range(domain),
            )
        })
    }

    /// One engine column: runs `engine`, `Universal`-wrapped, on this cell
    /// under the step budget. `None` when the cell's `(n, t)` is outside
    /// the engine's registered band.
    pub fn run_engine(&self, engine: VectorSpec, max_steps: Option<u64>) -> Option<RunRecord> {
        engine.applicable_to(self.n, self.t).then(|| {
            let spec = CellSpec::Run(RunCell {
                protocol: ProtocolAxis::wrapped(engine),
                validity: Some(self.validity),
                behavior: self.behavior,
                byz: self.byz,
                fault: self.fault,
                schedule: self.schedule,
                n: self.n,
                t: self.t,
                seed: self.seed,
            });
            let Outcome::Run(r) = execute_with_budget(&spec, max_steps).outcome else {
                unreachable!("run cells produce run outcomes")
            };
            r
        })
    }
}

/// The crosscheck axes: a scenario grid crossed against an engine list
/// instead of a protocol axis.
#[derive(Clone, Debug)]
pub struct CrosscheckMatrix {
    /// Matrix name.
    pub name: String,
    /// The engine columns (normally the whole registry; tests may inject
    /// extra in-test engines to prove the oracle bites).
    pub engines: Vec<VectorSpec>,
    /// Validity axis (must have a closed-form `Λ`; others are skipped by
    /// the scenario skeleton).
    pub validities: Vec<ValiditySpec>,
    /// Byzantine-behaviour axis.
    pub behaviors: Vec<BehaviorId>,
    /// Fault-load axis (each clamped to the cell's `t`).
    pub faults: Vec<usize>,
    /// Schedule axis.
    pub schedules: Vec<ScheduleSpec>,
    /// `(n, t)` axis.
    pub systems: Vec<(usize, usize)>,
    /// Seed axis.
    pub seeds: Range<u64>,
    /// Reference domain size for the classifier column.
    pub domain: u64,
    /// Per-run step budget (quarantine beyond it); `None` = simulator
    /// defaults.
    pub max_steps: Option<u64>,
}

impl CrosscheckMatrix {
    /// An empty matrix with the given name over the registered engines.
    pub fn new(name: impl Into<String>) -> CrosscheckMatrix {
        CrosscheckMatrix {
            name: name.into(),
            engines: vector_registry().to_vec(),
            validities: Vec::new(),
            behaviors: vec![BehaviorId::Silent],
            faults: vec![0],
            schedules: Vec::new(),
            systems: Vec::new(),
            seeds: 0..1,
            domain: 2,
            max_steps: None,
        }
    }

    /// The built-in `crosscheck` suite: three Λ-bearing properties, clean
    /// and two-faced adversaries at zero and maximum load, two schedules,
    /// and three system sizes — `(16, 5)` chosen so the registered
    /// applicability bands actually diverge (only Algorithm 1 covers it,
    /// and the classifier is out of its tractability band there).
    pub fn suite() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::new("crosscheck");
        m.validities = vec![
            ValiditySpec::Strong,
            ValiditySpec::Median,
            ValiditySpec::ConvexHull,
        ];
        m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        m.faults = vec![0, usize::MAX];
        m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        m.systems = vec![(4, 1), (7, 2), (16, 5)];
        m.seeds = 0..1;
        m
    }

    /// The chaos extension grid (`lab crosscheck --chaos`): the same
    /// oracle ensemble swept over every faulty-network schedule in
    /// [`ScheduleSpec::CHAOS`]. A separate grid rather than extra rows in
    /// [`CrosscheckMatrix::suite`], because the committed `crosscheck`
    /// fingerprints pin the clean suite's bytes — but the grading bar is
    /// identical: pre-GST loss, duplication, partitions, and churn may
    /// slow a column down, never split the oracles, so any cell above
    /// expected-divergence is a bug.
    pub fn chaos() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::new("crosscheck-chaos");
        m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
        m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        m.faults = vec![0, usize::MAX];
        m.schedules = ScheduleSpec::CHAOS.to_vec();
        m.systems = vec![(4, 1), (7, 2)];
        m.seeds = 0..1;
        // Chaos cells can legitimately run long (loss withholds messages
        // until GST); the budget quarantines divergence instead of
        // hanging the gate.
        m.max_steps = Some(5_000_000);
        m
    }

    /// The adaptive extension grid (`lab crosscheck --adaptive`): the same
    /// oracle ensemble with every *observing* behaviour in the faulty
    /// slots. A separate grid rather than extra rows in
    /// [`CrosscheckMatrix::suite`], because the committed `crosscheck`
    /// fingerprints pin the clean suite's bytes — but the grading bar is
    /// identical: an adversary that picks its victims from the execution
    /// may cost liveness or complexity, never split the oracles, so any
    /// cell above expected-divergence is a bug.
    pub fn adaptive() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::new("crosscheck-adaptive");
        m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
        m.behaviors = BehaviorId::ADAPTIVE.to_vec();
        m.faults = vec![usize::MAX];
        m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        m.systems = vec![(4, 1), (7, 2)];
        m.seeds = 0..2;
        // adaptive-flood starves its victim indefinitely; the budget turns
        // those cells into quarantines instead of a hung gate.
        m.max_steps = Some(5_000_000);
        m
    }

    /// The scenario skeleton, enumerated through
    /// [`ScenarioMatrix::run_templates`] so the crosscheck grid inherits
    /// exactly the sweep engine's axis order, collapse rules (zero fault
    /// load collapses the behaviour axis, `Λ`-less properties are
    /// skipped, invalid `(n, t)` pairs are dropped), and group dedup. The
    /// protocol column of the skeleton is a placeholder — crosscheck fans
    /// every cell out over [`CrosscheckMatrix::engines`] instead.
    fn templates(&self) -> Vec<RunCell> {
        let Some(&placeholder) = self.engines.first() else {
            return Vec::new();
        };
        let mut skeleton = ScenarioMatrix::new(self.name.clone());
        skeleton.protocols = vec![ProtocolAxis::wrapped(placeholder)];
        skeleton.validities = self.validities.clone();
        skeleton.behaviors = self.behaviors.clone();
        skeleton.faults = self.faults.clone();
        skeleton.schedules = self.schedules.clone();
        skeleton.systems = self.systems.clone();
        skeleton.seeds = self.seeds.clone();
        skeleton.run_templates()
    }

    /// Enumerates the matrix into a deterministically ordered cell list
    /// (scenario skeleton × seed).
    pub fn cells(&self) -> Vec<CrosscheckCell> {
        let mut out = Vec::new();
        for template in self.templates() {
            for seed in self.seeds.clone() {
                out.push(CrosscheckCell {
                    validity: template
                        .validity
                        .expect("wrapped skeleton cells always carry a validity"),
                    behavior: template.behavior,
                    byz: template.byz,
                    fault: template.fault,
                    schedule: template.schedule,
                    n: template.n,
                    t: template.t,
                    seed,
                });
            }
        }
        out
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether the matrix enumerates no cells.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }
}

/// What one engine column reported for one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineVerdict {
    /// Whether every correct process decided.
    pub decided: bool,
    /// Whether Agreement held among correct decisions.
    pub agreement: bool,
    /// Whether every correct decision was admissible (`None` when the run
    /// never decided).
    pub validity_ok: Option<bool>,
    /// Whether the run blew its step budget.
    pub quarantined: bool,
}

impl EngineVerdict {
    /// One-phrase description for divergence details.
    pub fn summary(&self) -> &'static str {
        if self.quarantined {
            "quarantined"
        } else if !self.agreement {
            "violated Agreement"
        } else {
            match (self.decided, self.validity_ok) {
                (true, Some(true)) => "decided admissibly",
                (_, Some(false)) => "decided inadmissibly",
                (true, _) => "decided, admissibility unchecked",
                (false, _) => "undecided",
            }
        }
    }
}

/// One engine column of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineColumn {
    /// The engine's registry name.
    pub engine: &'static str,
    /// Skipped (out of the registered applicability band) or ran.
    pub outcome: EngineOutcome,
}

/// Whether an engine column ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineOutcome {
    /// The cell's `(n, t)` is outside the engine's registered band.
    Skipped,
    /// The engine ran and reported a verdict.
    Ran(EngineVerdict),
}

impl EngineOutcome {
    /// Condenses what [`CrosscheckCell::run_engine`] returned.
    pub fn of(run: Option<&RunRecord>) -> EngineOutcome {
        run.map_or(EngineOutcome::Skipped, |r| {
            EngineOutcome::Ran(EngineVerdict {
                decided: r.decided,
                agreement: r.agreement,
                validity_ok: r.validity_ok,
                quarantined: r.quarantined,
            })
        })
    }
}

/// The agreement grade of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AgreementLevel {
    /// Every column ran and told the same, classifier-consistent story.
    Full,
    /// A column diverged for a *declared* reason (applicability band,
    /// classifier tractability, step-budget quarantine).
    ExpectedDivergence,
    /// The oracles split with no declared reason — a potential bug.
    Disagreement,
}

impl AgreementLevel {
    /// The stable report label.
    pub fn label(self) -> &'static str {
        match self {
            AgreementLevel::Full => "full",
            AgreementLevel::ExpectedDivergence => "expected-divergence",
            AgreementLevel::Disagreement => "DISAGREEMENT",
        }
    }

    /// Parses a report label back into a level.
    pub fn parse(label: &str) -> Option<AgreementLevel> {
        [
            AgreementLevel::Full,
            AgreementLevel::ExpectedDivergence,
            AgreementLevel::Disagreement,
        ]
        .into_iter()
        .find(|l| l.label() == label)
    }
}

/// One graded cell of the agreement matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrosscheckRecord {
    /// The cell key.
    pub key: String,
    /// The classifier's verdict label (`None` when out of band).
    pub verdict: Option<String>,
    /// Per-engine columns, in matrix engine order.
    pub columns: Vec<EngineColumn>,
    /// The agreement grade.
    pub level: AgreementLevel,
    /// Why the cell diverged (empty for full agreement).
    pub detail: String,
}

/// Grades one cell: the classifier's verdict (when in band) against every
/// engine column. Pure function of its inputs — the planted-fault
/// self-test feeds it real runs of a deliberately wrong machine and
/// checks it flips to [`AgreementLevel::Disagreement`].
pub fn grade(
    classifier: Option<&Classification<u64>>,
    columns: &[EngineColumn],
) -> (AgreementLevel, String) {
    let ran: Vec<(&'static str, EngineVerdict)> = columns
        .iter()
        .filter_map(|c| match c.outcome {
            EngineOutcome::Ran(v) => Some((c.engine, v)),
            EngineOutcome::Skipped => None,
        })
        .collect();
    let skipped: Vec<&'static str> = columns
        .iter()
        .filter(|c| matches!(c.outcome, EngineOutcome::Skipped))
        .map(|c| c.engine)
        .collect();

    // Safety violations are bugs no matter what any other column says.
    for &(name, v) in &ran {
        if !v.agreement {
            return (
                AgreementLevel::Disagreement,
                format!("{name} violated Agreement"),
            );
        }
        if v.validity_ok == Some(false) {
            return (
                AgreementLevel::Disagreement,
                format!("{name} decided an inadmissible value"),
            );
        }
    }

    // A quarantined run diverged for a budget reason, not a correctness
    // one; it is out of band the same way a skipped engine is.
    let quarantined: Vec<&str> = ran
        .iter()
        .filter(|(_, v)| v.quarantined)
        .map(|&(name, _)| name)
        .collect();
    if !quarantined.is_empty() {
        return (
            AgreementLevel::ExpectedDivergence,
            format!("quarantined: {}", quarantined.join(", ")),
        );
    }

    // Engines that ran must tell the same story...
    if let Some((&(first_name, first), rest)) = ran.split_first() {
        for &(name, v) in rest {
            if v != first {
                return (
                    AgreementLevel::Disagreement,
                    format!(
                        "engines split: {first_name} {} vs {name} {}",
                        first.summary(),
                        v.summary()
                    ),
                );
            }
        }
        // ...and the story must match the classifier's verdict: a solvable
        // classification promises every correct engine decides admissibly.
        if let Some(c) = classifier {
            if !c.consistent_with_run(first.decided, first.validity_ok) {
                return (
                    AgreementLevel::Disagreement,
                    format!(
                        "classifier says '{}' but engines {}",
                        c.label(),
                        first.summary()
                    ),
                );
            }
        }
    }

    if ran.is_empty() {
        return (
            AgreementLevel::ExpectedDivergence,
            "no engine applicable at this (n, t)".to_string(),
        );
    }
    let mut reasons = Vec::new();
    if !skipped.is_empty() {
        reasons.push(format!("out of band: {}", skipped.join(", ")));
    }
    if classifier.is_none() {
        reasons.push("classifier out of band".to_string());
    }
    if !reasons.is_empty() {
        return (AgreementLevel::ExpectedDivergence, reasons.join("; "));
    }
    (AgreementLevel::Full, String::new())
}

/// Executes one crosscheck cell: the classifier column (when in band)
/// plus every engine column, graded. Pure function of the cell, so the
/// worker pool can fan cells out in any order.
pub fn execute_crosscheck(
    cell: &CrosscheckCell,
    engines: &[VectorSpec],
    domain: u64,
    max_steps: Option<u64>,
) -> CrosscheckRecord {
    let classifier = cell.classify(domain);
    let columns: Vec<EngineColumn> = engines
        .iter()
        .map(|&engine| EngineColumn {
            engine: engine.name(),
            outcome: EngineOutcome::of(cell.run_engine(engine, max_steps).as_ref()),
        })
        .collect();
    let (level, detail) = grade(classifier.as_ref(), &columns);
    CrosscheckRecord {
        key: cell.key(),
        verdict: classifier.map(|c| c.label().to_string()),
        columns,
        level,
        detail,
    }
}

/// The aggregated, deterministic crosscheck report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrosscheckReport {
    /// Matrix name.
    pub name: String,
    /// Engine column names, in matrix order.
    pub engines: Vec<&'static str>,
    /// Graded cells, in matrix order.
    pub cells: Vec<CrosscheckRecord>,
}

impl CrosscheckReport {
    /// Cells at the given agreement level.
    pub fn count(&self, level: AgreementLevel) -> usize {
        self.cells.iter().filter(|c| c.level == level).count()
    }

    /// The disagreement cells — each one a potential bug.
    pub fn disagreements(&self) -> Vec<&CrosscheckRecord> {
        self.cells
            .iter()
            .filter(|c| c.level == AgreementLevel::Disagreement)
            .collect()
    }

    /// Deterministic JSON rendering (schema [`CROSSCHECK_SCHEMA`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(CROSSCHECK_SCHEMA));
        let _ = writeln!(out, "  \"matrix\": {},", json_str(&self.name));
        let _ = writeln!(
            out,
            "  \"engines\": [{}],",
            self.engines
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"summary\": {{\"cells\": {}, \"full\": {}, \"expected_divergence\": {}, \
             \"disagreement\": {}}},",
            self.cells.len(),
            self.count(AgreementLevel::Full),
            self.count(AgreementLevel::ExpectedDivergence),
            self.count(AgreementLevel::Disagreement),
        );
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let verdict = match &cell.verdict {
                Some(v) => json_str(v),
                None => "null".to_string(),
            };
            let columns = cell
                .columns
                .iter()
                .map(|c| match c.outcome {
                    EngineOutcome::Skipped => {
                        format!("{{\"name\": {}, \"ran\": false}}", json_str(c.engine))
                    }
                    EngineOutcome::Ran(v) => format!(
                        "{{\"name\": {}, \"ran\": true, \"decided\": {}, \"agreement\": {}, \
                         \"validity_ok\": {}, \"quarantined\": {}}}",
                        json_str(c.engine),
                        v.decided,
                        v.agreement,
                        v.validity_ok
                            .map_or("null".to_string(), |ok| ok.to_string()),
                        v.quarantined,
                    ),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "    {{\"key\": {}, \"verdict\": {verdict}, \"level\": {}, \"detail\": {}, \
                 \"engines\": [{columns}]}}{comma}",
                json_str(&cell.key),
                json_str(cell.level.label()),
                json_str(&cell.detail),
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Deterministic Markdown rendering: the agreement matrix, with every
    /// disagreement cell named individually below it.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# Crosscheck agreement matrix `{}`\n", self.name);
        let _ = writeln!(
            out,
            "{} cell(s) × {} engine column(s) + classifier: {} full, {} expected-divergence, \
             {} DISAGREEMENT.\n",
            self.cells.len(),
            self.engines.len(),
            self.count(AgreementLevel::Full),
            self.count(AgreementLevel::ExpectedDivergence),
            self.count(AgreementLevel::Disagreement),
        );
        let _ = writeln!(
            out,
            "| cell | classifier | {} | level |",
            self.engines.join(" | ")
        );
        let _ = writeln!(out, "|---{}|", "|---".repeat(self.engines.len() + 2));
        for cell in &self.cells {
            let verdict = cell.verdict.as_deref().unwrap_or("—");
            let columns = cell
                .columns
                .iter()
                .map(|c| match c.outcome {
                    EngineOutcome::Skipped => "—",
                    EngineOutcome::Ran(v) => {
                        if v.quarantined {
                            "q!"
                        } else if v.decided && v.agreement && v.validity_ok == Some(true) {
                            "✓"
                        } else {
                            "✗"
                        }
                    }
                })
                .collect::<Vec<_>>()
                .join(" | ");
            let _ = writeln!(
                out,
                "| {} | {verdict} | {columns} | {} |",
                cell.key,
                cell.level.label()
            );
        }
        out.push_str("\n## Disagreements\n\n");
        let disagreements = self.disagreements();
        if disagreements.is_empty() {
            out.push_str("None — every divergence is explained by a declared band.\n");
        } else {
            for cell in disagreements {
                let _ = writeln!(out, "- `{}`: {}", cell.key, cell.detail);
            }
        }
        out
    }
}

/// Cross-checks the two emitters: re-parses the JSON and Markdown
/// renderings of one report and diffs the agreement levels they claim,
/// in both directions. Returns the mismatches (empty = the emitters
/// round-trip).
pub fn compare_emitted(json: &str, md: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let parsed = match Json::parse(json) {
        Ok(p) => p,
        Err(e) => return vec![format!("JSON does not parse: {e}")],
    };
    let mut json_levels: Vec<(String, String)> = Vec::new();
    for cell in parsed
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let (Some(key), Some(level)) = (
            cell.get("key").and_then(Json::as_str),
            cell.get("level").and_then(Json::as_str),
        ) else {
            problems.push("JSON cell missing key/level".to_string());
            continue;
        };
        json_levels.push((key.to_string(), level.to_string()));
    }
    let mut md_levels: Vec<(String, String)> = Vec::new();
    for line in md.lines() {
        let cells: Vec<&str> = line
            .split('|')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        let (Some(first), Some(last)) = (cells.first(), cells.last()) else {
            continue;
        };
        if first.starts_with("crosscheck/") {
            md_levels.push((first.to_string(), last.to_string()));
        }
    }
    for (key, level) in &json_levels {
        match md_levels.iter().find(|(k, _)| k == key) {
            None => problems.push(format!("{key}: in JSON but not in Markdown")),
            Some((_, md_level)) if md_level != level => problems.push(format!(
                "{key}: JSON says '{level}', Markdown says '{md_level}'"
            )),
            Some(_) => {}
        }
    }
    for (key, _) in &md_levels {
        if !json_levels.iter().any(|(k, _)| k == key) {
            problems.push(format!("{key}: in Markdown but not in JSON"));
        }
    }
    problems
}

/// Runs a crosscheck matrix on `threads` workers (0 = one per core) and
/// collects in matrix order — report bytes are independent of the worker
/// count, exactly like every other lab artifact. The timings are per-cell
/// wall clock (all of a cell's columns) in matrix order — diagnostic only,
/// never part of the report.
pub fn run_crosscheck(
    matrix: &CrosscheckMatrix,
    threads: usize,
) -> (CrosscheckReport, Duration, Vec<CellTiming>) {
    let started = Instant::now();
    let cells = matrix.cells();
    let results = pool::ordered_map(threads, cells.len(), |i| {
        execute_crosscheck(&cells[i], &matrix.engines, matrix.domain, matrix.max_steps)
    });
    let mut records = Vec::with_capacity(cells.len());
    let mut timings = Vec::with_capacity(cells.len());
    for (record, wall) in results {
        timings.push(CellTiming {
            label: record.key.clone(),
            events: 0,
            wall,
        });
        records.push(record);
    }
    let report = CrosscheckReport {
        name: matrix.name.clone(),
        engines: matrix.engines.iter().map(|e| e.name()).collect(),
        cells: records,
    };
    (report, started.elapsed(), timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::ProcessId;
    use validity_protocols::registry::{find_vector, ProtocolContext, ProtocolSpec, VectorMachine};

    fn tiny() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::suite();
        m.name = "crosscheck-tiny".into();
        m.validities = vec![ValiditySpec::Median];
        m.behaviors = vec![BehaviorId::Silent];
        m.faults = vec![usize::MAX];
        m.schedules = vec![ScheduleSpec::Synchronous];
        m.systems = vec![(4, 1)];
        m.seeds = 0..1;
        m
    }

    fn ran(engine: &'static str, v: EngineVerdict) -> EngineColumn {
        EngineColumn {
            engine,
            outcome: EngineOutcome::Ran(v),
        }
    }

    const HEALTHY: EngineVerdict = EngineVerdict {
        decided: true,
        agreement: true,
        validity_ok: Some(true),
        quarantined: false,
    };

    fn solvable() -> Classification<u64> {
        let params = SystemParams::new(4, 1).unwrap();
        let c = classify(&ValiditySpec::Median.property(1), params, &Domain::range(2));
        assert!(c.is_solvable());
        c
    }

    #[test]
    fn grading_rules_cover_every_level() {
        let c = solvable();
        // Full: all columns ran, healthy, classifier consistent.
        let (level, _) = grade(Some(&c), &[ran("a", HEALTHY), ran("b", HEALTHY)]);
        assert_eq!(level, AgreementLevel::Full);

        // A skipped engine is expected divergence, not a bug.
        let skipped = EngineColumn {
            engine: "b",
            outcome: EngineOutcome::Skipped,
        };
        let (level, detail) = grade(Some(&c), &[ran("a", HEALTHY), skipped.clone()]);
        assert_eq!(level, AgreementLevel::ExpectedDivergence);
        assert!(detail.contains("out of band: b"), "{detail}");

        // A missing classifier column likewise.
        let (level, detail) = grade(None, &[ran("a", HEALTHY)]);
        assert_eq!(level, AgreementLevel::ExpectedDivergence);
        assert!(detail.contains("classifier out of band"), "{detail}");

        // No applicable engine at all.
        let (level, detail) = grade(Some(&c), std::slice::from_ref(&skipped));
        assert_eq!(level, AgreementLevel::ExpectedDivergence);
        assert!(detail.contains("no engine applicable"), "{detail}");

        // Quarantine is a budget band, not a correctness split.
        let quarantined = EngineVerdict {
            decided: false,
            validity_ok: None,
            quarantined: true,
            ..HEALTHY
        };
        let (level, detail) = grade(Some(&c), &[ran("a", HEALTHY), ran("b", quarantined)]);
        assert_eq!(level, AgreementLevel::ExpectedDivergence);
        assert!(detail.contains("quarantined: b"), "{detail}");

        // Engines telling different stories is a disagreement.
        let undecided = EngineVerdict {
            decided: false,
            validity_ok: None,
            ..HEALTHY
        };
        let (level, detail) = grade(Some(&c), &[ran("a", HEALTHY), ran("b", undecided)]);
        assert_eq!(level, AgreementLevel::Disagreement);
        assert!(detail.contains("engines split"), "{detail}");

        // Safety violations are disagreements even when every engine
        // reports the same (wrong) story.
        let inadmissible = EngineVerdict {
            validity_ok: Some(false),
            ..HEALTHY
        };
        let (level, detail) = grade(Some(&c), &[ran("a", inadmissible), ran("b", inadmissible)]);
        assert_eq!(level, AgreementLevel::Disagreement);
        assert!(detail.contains("inadmissible"), "{detail}");
        let split_brain = EngineVerdict {
            agreement: false,
            ..HEALTHY
        };
        let (level, detail) = grade(None, &[ran("a", split_brain)]);
        assert_eq!(level, AgreementLevel::Disagreement);
        assert!(detail.contains("violated Agreement"), "{detail}");

        // Classification vs simulation: a solvable verdict contradicted
        // by a unanimous undecided ensemble is a disagreement.
        let (level, detail) = grade(Some(&c), &[ran("a", undecided), ran("b", undecided)]);
        assert_eq!(level, AgreementLevel::Disagreement);
        assert!(detail.contains("classifier says"), "{detail}");
    }

    #[test]
    fn suite_enumerates_deterministically_and_exercises_bands() {
        let m = CrosscheckMatrix::suite();
        let cells = m.cells();
        assert!(!cells.is_empty());
        let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate cells");
        assert_eq!(keys, m.cells().iter().map(|c| c.key()).collect::<Vec<_>>());
        // The suite must actually exercise applicability divergence: at
        // (16, 5) only the unbounded engine is in band, and the
        // classifier's 2¹⁶-configuration space is out of its budget.
        assert!(cells.iter().any(|c| c.n == 16 && c.t == 5));
        assert!(!classifier_in_band(16, m.domain));
        assert!(classifier_in_band(7, m.domain));
        let in_band = m.engines.iter().filter(|e| e.applicable_to(16, 5)).count();
        assert_eq!(in_band, 1, "exactly one engine covers (16, 5)");
    }

    #[test]
    fn chaos_grid_is_clean_on_every_chaos_schedule() {
        // A trimmed slice of the --chaos grid (the full grid is the CI
        // smoke's job): every faulty-network schedule, one validity, one
        // behavior, smallest system — the oracles must never split.
        let mut m = CrosscheckMatrix::chaos();
        m.validities = vec![ValiditySpec::Median];
        m.behaviors = vec![BehaviorId::Silent];
        m.faults = vec![usize::MAX];
        m.systems = vec![(4, 1)];
        assert!(m.schedules.iter().all(|s| s.is_chaos()));
        let (report, _, _) = run_crosscheck(&m, 0);
        assert!(
            report.disagreements().is_empty(),
            "chaos split the oracles: {report:?}"
        );
        for s in ScheduleSpec::CHAOS {
            let tag = format!("/{}/", s.name());
            assert!(
                report.cells.iter().any(|c| c.key.contains(&tag)),
                "schedule {s} missing from the chaos grid"
            );
        }
    }

    #[test]
    fn tiny_grid_fully_agrees() {
        let (report, _, _) = run_crosscheck(&tiny(), 0);
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.count(AgreementLevel::Full), 1, "{report:?}");
        assert!(report.disagreements().is_empty());
        let cell = &report.cells[0];
        assert_eq!(cell.verdict.as_deref(), Some("solvable, non-trivial"));
        assert_eq!(cell.columns.len(), 3);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let mut m = tiny();
        m.systems = vec![(4, 1), (7, 2)];
        m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        let (one, _, _) = run_crosscheck(&m, 1);
        let (many, _, _) = run_crosscheck(&m, 0);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_markdown(), many.to_markdown());
    }

    #[test]
    fn timings_name_every_cell_in_matrix_order() {
        let mut m = tiny();
        m.seeds = 0..3;
        let (report, _, timings) = run_crosscheck(&m, 2);
        let keys: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        let timed: Vec<&str> = timings.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(timed, keys);
        assert_eq!(report.cells.len(), keys.len());
    }

    #[test]
    fn emitters_round_trip_and_tampering_is_detected() {
        let (report, _, _) = run_crosscheck(&tiny(), 0);
        let json = report.to_json();
        let md = report.to_markdown();
        assert_eq!(compare_emitted(&json, &md), Vec::<String>::new());

        // A Markdown emitter that silently drops or regrades a cell must
        // be caught by the round-trip, in either direction.
        let regraded = md.replace("| full |", "| DISAGREEMENT |");
        assert!(!compare_emitted(&json, &regraded).is_empty());
        let dropped: String = md
            .lines()
            .filter(|l| !l.contains("crosscheck/"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!compare_emitted(&json, &dropped).is_empty());
    }

    /// A deliberately wrong engine: a real Algorithm 1 machine whose
    /// proposal is shifted far outside the correct processes' inputs, so
    /// its decisions are inadmissible for any input-bracketing property.
    fn broken_factory(ctx: &ProtocolContext, p: ProcessId, input: u64) -> VectorMachine<u64> {
        find_vector::<u64>("alg1-auth")
            .unwrap()
            .machine(ctx, p, input.wrapping_add(1_000_000))
    }

    #[test]
    fn planted_fault_flips_to_disagreement() {
        // The oracle must not be vacuous: the same grid with only real
        // engines is clean...
        let clean = tiny();
        let (report, _, _) = run_crosscheck(&clean, 0);
        assert_eq!(report.count(AgreementLevel::Disagreement), 0);

        // ...and flips to DISAGREEMENT the moment a deliberately wrong
        // machine joins the ensemble.
        let mut seeded = tiny();
        seeded.engines.push(ProtocolSpec::new(
            "planted-broken",
            true,
            "test-only",
            broken_factory,
        ));
        let (report, _, _) = run_crosscheck(&seeded, 0);
        let disagreements = report.disagreements();
        assert!(
            !disagreements.is_empty(),
            "planted fault not flagged: {report:?}"
        );
        assert!(
            disagreements
                .iter()
                .all(|c| c.detail.contains("planted-broken")),
            "disagreement must name the wrong engine: {disagreements:?}"
        );
        // The report names the cells individually in both emitters.
        assert!(report.to_markdown().contains("planted-broken"));
        assert!(report.to_json().contains("planted-broken"));
    }
}
