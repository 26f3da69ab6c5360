//! Differential cross-validation: every applicable engine, both report
//! emitters, and both verdict paths cross-checked on identical cells.
//!
//! The paper's central claim is that a validity property admits (or
//! refuses) the *same* verdicts regardless of which algorithm decides it —
//! which makes every protocol in this repo an independent oracle for every
//! other one, and the static classifier an oracle for all of them at once.
//! A [`CrosscheckMatrix`] wraps a [`ScenarioMatrix`]: on each of its
//! [`RunCell`]s `(property, behavior, fault, schedule, (n, t), seed)` it
//! runs every registered engine (wrapped in `Universal`) plus the
//! solvability classifier, and grades the outcome with an
//! [`AgreementLevel`]:
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
//! Every cell short of full agreement carries the typed [`Finding`] that
//! graded it: the rule that fired, its witnesses, and its [`ViolationKind`].
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

use std::fmt;

use validity_adversary::BehaviorId;
use validity_core::{classify, Classification, Domain, InputConfig, ProcessId, SystemParams};
use validity_protocols::registry::{vector_registry, ProtocolContext, VectorSpec};
use validity_simnet::{Machine, NoProbe};

use crate::json::{Fields, Json};
use crate::matrix::{ProtocolAxis, RunCell, ScenarioMatrix, ScheduleSpec, ValiditySpec};
use crate::pool;
use crate::report::json_str;
use crate::runner::{lens, simulate, RunRecord, Verdict, ViolationKind};

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

/// The crosscheck cell's stable key: the scenario without its protocol,
/// because every engine column runs the same cell.
pub fn key(cell: &RunCell) -> String {
    format!(
        "crosscheck/{}/{}x{}/{}/n{}t{}/s{}",
        validity_of(cell),
        cell.behavior,
        cell.byz,
        cell.schedule,
        cell.n,
        cell.t,
        cell.seed,
    )
}

fn validity_of(cell: &RunCell) -> ValiditySpec {
    cell.validity
        .expect("crosscheck cells run under Universal, so they carry a validity")
}

/// The crosscheck grid: a [`ScenarioMatrix`] whose run cells every engine
/// column and the classifier are crossed against.
///
/// Of the scenario matrix the crosscheck reads the axes, `seeds` and
/// `max_steps`. Its protocol axis is one `Universal`-wrapped placeholder,
/// so the enumeration keeps the sweep engine's validity axis, collapse
/// rules (zero fault load collapses the behaviour axis, `Λ`-less
/// properties are skipped, invalid `(n, t)` pairs are dropped) and group
/// dedup; each engine column then runs its own machines in its place
/// ([`CrosscheckMatrix::run_engine`]).
#[derive(Clone, Debug)]
pub struct CrosscheckMatrix {
    /// The scenario grid (its name names the report).
    pub scenarios: ScenarioMatrix,
    /// The engine columns (normally the whole registry; tests may inject
    /// extra in-test engines to prove the oracle bites).
    pub engines: Vec<VectorSpec>,
    /// Reference domain size for the classifier column.
    pub domain: u64,
}

impl CrosscheckMatrix {
    /// An empty matrix with the given name over the registered engines.
    pub fn new(name: impl Into<String>) -> CrosscheckMatrix {
        let engines = vector_registry().to_vec();
        let mut scenarios = ScenarioMatrix::new(name);
        scenarios.protocols = vec![ProtocolAxis::wrapped(engines[0])];
        scenarios.behaviors = vec![BehaviorId::Silent];
        CrosscheckMatrix {
            scenarios,
            engines,
            domain: 2,
        }
    }

    /// The built-in `crosscheck` suite: three Λ-bearing properties, clean
    /// and two-faced adversaries at zero and maximum load, two schedules,
    /// and three system sizes — `(16, 5)` chosen so the registered
    /// applicability bands actually diverge (only Algorithm 1 covers it,
    /// and the classifier is out of its tractability band there).
    pub fn suite() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::new("crosscheck");
        let s = &mut m.scenarios;
        s.validities = vec![
            ValiditySpec::Strong,
            ValiditySpec::Median,
            ValiditySpec::ConvexHull,
        ];
        s.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        s.faults = vec![0, usize::MAX];
        s.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        s.systems = vec![(4, 1), (7, 2), (16, 5)];
        m
    }

    /// The scenario matrix's run cells, in its template × seed order.
    pub fn cells(&self) -> Vec<RunCell> {
        self.scenarios.run_cells().collect()
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether the matrix enumerates no cells.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }

    /// The classifier column of `cell` over the reference domain; `None`
    /// when the configuration space is out of its band.
    pub fn classify(&self, cell: &RunCell) -> Option<Classification<u64>> {
        classifier_in_band(cell.n, self.domain).then(|| {
            let params =
                SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
            let property = validity_of(cell).property(cell.t);
            classify(&property, params, &Domain::range(self.domain))
        })
    }

    /// One engine column: runs the machines `make` builds on `cell` under
    /// the step budget and reads the execution as the cell's `Universal`
    /// record (the runner's one lens). `None` when the cell's `(n, t)` is
    /// outside `engine`'s registered band.
    pub fn run_engine<M>(
        &self,
        cell: &RunCell,
        engine: VectorSpec,
        make: impl Fn(&ProtocolContext, ProcessId, u64) -> M,
    ) -> Option<RunRecord>
    where
        M: Machine<Output = InputConfig<u64>> + 'static,
    {
        engine.applicable_to(cell.n, cell.t).then(|| {
            lens(
                cell,
                &simulate(cell, self.scenarios.max_steps, |_| NoProbe, make).0,
            )
        })
    }
}

/// One engine column of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineColumn {
    /// The engine's registry name.
    pub engine: &'static str,
    /// What the engine's run reported; `None` when the cell's `(n, t)` is
    /// outside the engine's registered band.
    pub verdict: Option<Verdict>,
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
}

/// What an oracle rule found in a cell: why it is not in full agreement,
/// or why a mutant died. One variant per rule, each carrying its
/// witnesses; only [`fmt::Display`] and the report emitters turn a finding
/// into text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// This engine's correct processes decided different values.
    ViolatedAgreement(&'static str),
    /// This engine decided a value the property does not admit.
    Inadmissible(&'static str),
    /// These engines blew their step budget.
    Quarantined(Vec<&'static str>),
    /// The first engine that ran and the first whose verdict differs.
    EnginesSplit([(&'static str, Verdict); 2]),
    /// The classifier's label, contradicted by the engines' common verdict.
    ClassifierSays(&'static str, Verdict),
    /// No engine's registered band covers the cell's `(n, t)`.
    NoEngineApplicable,
    /// These engines sat out of band, and the classifier too when `true`.
    OutOfBand(Vec<&'static str>, bool),
    /// A mutant's verdict differs from its base engine's: the base, then
    /// `[mutant's, base's]` verdicts.
    Diverged(&'static str, [Verdict; 2]),
    /// A mutant decided another value than its base engine on the same
    /// verdict: the base, then `[mutant's, base's]` decisions.
    DecidedOther(&'static str, [String; 2]),
}

impl Finding {
    /// The agreement grade this finding gives its cell.
    pub fn level(&self) -> AgreementLevel {
        match self {
            Finding::Quarantined(_) | Finding::NoEngineApplicable | Finding::OutOfBand(..) => {
                AgreementLevel::ExpectedDivergence
            }
            _ => AgreementLevel::Disagreement,
        }
    }

    /// The most severe property the finding's witnesses broke; `None` for
    /// a column that merely sat out.
    pub fn kind(&self) -> Option<ViolationKind> {
        match self {
            Finding::ViolatedAgreement(_) => Some(ViolationKind::Safety),
            Finding::Inadmissible(_) => Some(ViolationKind::Validity),
            Finding::DecidedOther(..) => Some(ViolationKind::Value),
            Finding::Quarantined(_) => Some(ViolationKind::Liveness),
            Finding::EnginesSplit([(_, a), (_, b)]) | Finding::Diverged(_, [a, b]) => {
                a.kind().into_iter().chain(b.kind()).min()
            }
            Finding::ClassifierSays(_, v) => v.kind(),
            Finding::NoEngineApplicable | Finding::OutOfBand(..) => None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::ViolatedAgreement(e) => write!(f, "{e} violated Agreement"),
            Finding::Inadmissible(e) => write!(f, "{e} decided an inadmissible value"),
            Finding::Quarantined(es) => write!(f, "quarantined: {}", es.join(", ")),
            Finding::EnginesSplit([(a, va), (b, vb)]) => {
                write!(f, "engines split: {a} {va} vs {b} {vb}")
            }
            Finding::ClassifierSays(label, v) => {
                write!(f, "classifier says '{label}' but engines {v}")
            }
            Finding::NoEngineApplicable => f.write_str("no engine applicable at this (n, t)"),
            Finding::OutOfBand(engines, classifier) => match (engines.join(", "), classifier) {
                (engines, _) if engines.is_empty() => f.write_str("classifier out of band"),
                (engines, false) => write!(f, "out of band: {engines}"),
                (engines, true) => write!(f, "out of band: {engines}; classifier out of band"),
            },
            Finding::Diverged(base, [m, b]) => write!(f, "diverged from {base}: {m} vs {b}"),
            Finding::DecidedOther(base, [m, b]) => {
                write!(f, "decided {m} where {base} decided {b}")
            }
        }
    }
}

/// One graded cell of the agreement matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrosscheckRecord {
    /// The cell key.
    pub key: String,
    /// The classifier's verdict label (`None` when out of band).
    pub verdict: Option<&'static str>,
    /// Per-engine columns, in matrix engine order.
    pub columns: Vec<EngineColumn>,
    /// Why the cell diverged (`None` for full agreement).
    pub detail: Option<Finding>,
}

impl CrosscheckRecord {
    /// The agreement grade.
    pub fn level(&self) -> AgreementLevel {
        self.detail
            .as_ref()
            .map_or(AgreementLevel::Full, Finding::level)
    }
}

/// Grades one cell: the classifier's verdict (when in band) against every
/// engine column, `None` for full agreement. Pure function of its inputs —
/// the planted-fault self-test feeds it real runs of a deliberately wrong
/// machine and checks it flips to [`AgreementLevel::Disagreement`].
pub fn grade(
    classifier: Option<&Classification<u64>>,
    columns: &[EngineColumn],
) -> Option<Finding> {
    let ran: Vec<(&'static str, Verdict)> = columns
        .iter()
        .filter_map(|c| Some((c.engine, c.verdict?)))
        .collect();

    // Safety violations are bugs no matter what any other column says.
    for &(name, v) in &ran {
        match v.kind() {
            Some(ViolationKind::Safety) => return Some(Finding::ViolatedAgreement(name)),
            Some(ViolationKind::Validity) => return Some(Finding::Inadmissible(name)),
            _ => {}
        }
    }

    // A quarantined run diverged for a budget reason, not a correctness
    // one; it is out of band the same way a skipped engine is.
    let quarantined: Vec<&'static str> = ran
        .iter()
        .filter_map(|&(name, v)| v.quarantined.then_some(name))
        .collect();
    if !quarantined.is_empty() {
        return Some(Finding::Quarantined(quarantined));
    }

    // Engines that ran must tell the same story...
    let Some(&(_, v)) = ran.first() else {
        return Some(Finding::NoEngineApplicable);
    };
    if let Some(&split) = ran.iter().find(|&&(_, other)| other != v) {
        return Some(Finding::EnginesSplit([ran[0], split]));
    }
    // ...and the story must match the classifier's verdict: a solvable
    // classification promises every correct engine decides admissibly.
    if let Some(c) = classifier.filter(|c| !c.consistent_with_run(v.decided, v.validity_ok)) {
        return Some(Finding::ClassifierSays(c.label(), v));
    }

    let skipped: Vec<&'static str> = columns
        .iter()
        .filter_map(|c| c.verdict.is_none().then_some(c.engine))
        .collect();
    (!skipped.is_empty() || classifier.is_none())
        .then(|| Finding::OutOfBand(skipped, classifier.is_none()))
}

/// Builds one cell's engine columns from each engine's run verdict
/// (`None` when out of band) and grades them — the one path from runs to
/// a [`Finding`], shared by [`execute_crosscheck`] and `lab mutate`.
pub(crate) fn grade_runs(
    classifier: Option<&Classification<u64>>,
    runs: impl IntoIterator<Item = (&'static str, Option<Verdict>)>,
) -> (Vec<EngineColumn>, Option<Finding>) {
    let columns: Vec<EngineColumn> = runs
        .into_iter()
        .map(|(engine, verdict)| EngineColumn { engine, verdict })
        .collect();
    let finding = grade(classifier, &columns);
    (columns, finding)
}

/// Executes one crosscheck cell of `matrix`: the classifier column (when
/// in band) plus every engine column, graded. Pure function of the cell,
/// so the worker pool can fan cells out in any order.
pub fn execute_crosscheck(matrix: &CrosscheckMatrix, cell: &RunCell) -> CrosscheckRecord {
    let classifier = matrix.classify(cell);
    let runs = matrix.engines.iter().map(|&engine| {
        let run = matrix.run_engine(cell, engine, |ctx, p, input| engine.machine(ctx, p, input));
        (engine.name(), run.as_ref().map(RunRecord::verdict))
    });
    let (columns, detail) = grade_runs(classifier.as_ref(), runs);
    CrosscheckRecord {
        key: key(cell),
        verdict: classifier.map(|c| c.label()),
        columns,
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
        self.cells.iter().filter(|c| c.level() == level).count()
    }

    /// The disagreement cells — each one a potential bug — by key, with
    /// what was found there.
    pub fn disagreements(&self) -> Vec<(&str, &Finding)> {
        self.cells
            .iter()
            .filter_map(|c| Some((c.key.as_str(), c.detail.as_ref()?)))
            .filter(|(_, f)| f.level() == AgreementLevel::Disagreement)
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
            let verdict = cell.verdict.map_or("null".to_string(), json_str);
            let columns = cell
                .columns
                .iter()
                .map(|c| match c.verdict {
                    None => format!("{{\"name\": {}, \"ran\": false}}", json_str(c.engine)),
                    Some(v) => format!(
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
                json_str(cell.level().label()),
                json_str(
                    &cell
                        .detail
                        .as_ref()
                        .map_or(String::new(), Finding::to_string)
                ),
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
            let verdict = cell.verdict.unwrap_or("—");
            let columns = cell
                .columns
                .iter()
                .map(|c| match c.verdict {
                    None => "—",
                    Some(v) if v.quarantined => "q!",
                    Some(v) if v.kind().is_none() => "✓",
                    Some(_) => "✗",
                })
                .collect::<Vec<_>>()
                .join(" | ");
            let _ = writeln!(
                out,
                "| {} | {verdict} | {columns} | {} |",
                cell.key,
                cell.level().label()
            );
        }
        out.push_str("\n## Disagreements\n\n");
        let disagreements = self.disagreements();
        if disagreements.is_empty() {
            out.push_str("None — every divergence is explained by a declared band.\n");
        }
        for (key, finding) in disagreements {
            let _ = writeln!(out, "- `{key}`: {finding}");
        }
        out
    }
}

/// Cross-checks the two emitters: re-parses the JSON and Markdown
/// renderings of one report and diffs the agreement levels they claim,
/// in both directions. Returns the mismatches (empty = the emitters
/// round-trip); JSON that does not read as a `crosscheck@1` report is one.
pub fn compare_emitted(json: &str, md: &str) -> Vec<String> {
    let read = |json: &str| -> Result<Vec<(String, String)>, String> {
        let doc = Json::parse(json)?;
        Fields::tagged(&doc, CROSSCHECK_SCHEMA, "crosscheck report")?
            .objs("cells")?
            .iter()
            .map(|cell| Ok((cell.get("key")?, cell.get("level")?)))
            .collect()
    };
    let json_levels = match read(json) {
        Ok(levels) => levels,
        Err(e) => return vec![format!("JSON does not read: {e}")],
    };
    let mut problems = Vec::new();
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
/// count, exactly like every other lab artifact.
pub fn run_crosscheck(matrix: &CrosscheckMatrix, threads: usize) -> CrosscheckReport {
    let cells = matrix.cells();
    let records = pool::ordered_map(threads, cells.len(), |i| {
        execute_crosscheck(matrix, &cells[i])
    })
    .map(|(record, _wall)| record)
    .collect();
    CrosscheckReport {
        name: matrix.scenarios.name.clone(),
        engines: matrix.engines.iter().map(|e| e.name()).collect(),
        cells: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_protocols::registry::{find_vector, ProtocolSpec, VectorMachine};

    fn tiny() -> CrosscheckMatrix {
        let mut m = CrosscheckMatrix::suite();
        let s = &mut m.scenarios;
        s.name = "crosscheck-tiny".into();
        s.validities = vec![ValiditySpec::Median];
        s.behaviors = vec![BehaviorId::Silent];
        s.faults = vec![usize::MAX];
        s.schedules = vec![ScheduleSpec::Synchronous];
        s.systems = vec![(4, 1)];
        m
    }

    fn ran(engine: &'static str, v: Verdict) -> EngineColumn {
        EngineColumn {
            engine,
            verdict: Some(v),
        }
    }

    fn skipped(engine: &'static str) -> EngineColumn {
        EngineColumn {
            engine,
            verdict: None,
        }
    }

    const HEALTHY: Verdict = Verdict {
        decided: true,
        agreement: true,
        validity_ok: Some(true),
        quarantined: false,
    };
    const UNDECIDED: Verdict = Verdict {
        decided: false,
        validity_ok: None,
        ..HEALTHY
    };
    const QUARANTINED: Verdict = Verdict {
        quarantined: true,
        ..UNDECIDED
    };
    const INADMISSIBLE: Verdict = Verdict {
        validity_ok: Some(false),
        ..HEALTHY
    };
    const SPLIT_BRAIN: Verdict = Verdict {
        agreement: false,
        ..HEALTHY
    };

    fn solvable() -> Classification<u64> {
        let params = SystemParams::new(4, 1).unwrap();
        let c = classify(&ValiditySpec::Median.property(1), params, &Domain::range(2));
        assert!(c.is_solvable());
        c
    }

    /// Asserts a grade's finding, and the level and kind it carries.
    fn graded(
        got: Option<Finding>,
        want: Option<Finding>,
        level: AgreementLevel,
        kind: Option<ViolationKind>,
    ) {
        assert_eq!(got, want);
        let record = CrosscheckRecord {
            key: String::new(),
            verdict: None,
            columns: Vec::new(),
            detail: got,
        };
        assert_eq!(record.level(), level, "{want:?}");
        assert_eq!(record.detail.and_then(|f| f.kind()), kind, "{want:?}");
    }

    #[test]
    fn grading_rules_cover_every_level() {
        use AgreementLevel::{Disagreement, ExpectedDivergence, Full};
        use ViolationKind::{Liveness, Safety, Validity};
        let c = solvable();
        // Full: all columns ran, healthy, classifier consistent.
        let got = grade(Some(&c), &[ran("a", HEALTHY), ran("b", HEALTHY)]);
        graded(got, None, Full, None);

        // A skipped engine is expected divergence, not a bug.
        let got = grade(Some(&c), &[ran("a", HEALTHY), skipped("b")]);
        let want = Finding::OutOfBand(vec!["b"], false);
        graded(got, Some(want), ExpectedDivergence, None);

        // A missing classifier column likewise.
        let got = grade(None, &[ran("a", HEALTHY)]);
        let want = Finding::OutOfBand(Vec::new(), true);
        graded(got, Some(want), ExpectedDivergence, None);

        // No applicable engine at all.
        let got = grade(Some(&c), &[skipped("b")]);
        graded(
            got,
            Some(Finding::NoEngineApplicable),
            ExpectedDivergence,
            None,
        );

        // Quarantine is a budget band, not a correctness split.
        let got = grade(Some(&c), &[ran("a", HEALTHY), ran("b", QUARANTINED)]);
        let want = Finding::Quarantined(vec!["b"]);
        graded(got, Some(want), ExpectedDivergence, Some(Liveness));

        // Engines telling different stories is a disagreement.
        let got = grade(Some(&c), &[ran("a", HEALTHY), ran("b", UNDECIDED)]);
        let want = Finding::EnginesSplit([("a", HEALTHY), ("b", UNDECIDED)]);
        graded(got, Some(want), Disagreement, Some(Liveness));

        // Safety violations are disagreements even when every engine
        // reports the same (wrong) story.
        let got = grade(Some(&c), &[ran("a", INADMISSIBLE), ran("b", INADMISSIBLE)]);
        graded(
            got,
            Some(Finding::Inadmissible("a")),
            Disagreement,
            Some(Validity),
        );
        let got = grade(None, &[ran("a", SPLIT_BRAIN)]);
        let want = Finding::ViolatedAgreement("a");
        graded(got, Some(want), Disagreement, Some(Safety));

        // Classification vs simulation: a solvable verdict contradicted
        // by a unanimous undecided ensemble is a disagreement.
        let got = grade(Some(&c), &[ran("a", UNDECIDED), ran("b", UNDECIDED)]);
        let want = Finding::ClassifierSays("solvable, non-trivial", UNDECIDED);
        graded(got, Some(want), Disagreement, Some(Liveness));
    }

    #[test]
    fn every_finding_and_verdict_renders_its_report_text() {
        // The report bytes: each phrase exactly as the emitters have always
        // written it. The built-in grids reach only some of them, so the
        // committed fingerprints cannot pin the rest.
        let decided_unchecked = Verdict {
            validity_ok: None,
            ..HEALTHY
        };
        let verdicts = [
            (HEALTHY, "decided admissibly", None),
            (UNDECIDED, "undecided", Some(ViolationKind::Liveness)),
            (QUARANTINED, "quarantined", Some(ViolationKind::Liveness)),
            (
                INADMISSIBLE,
                "decided inadmissibly",
                Some(ViolationKind::Validity),
            ),
            (
                SPLIT_BRAIN,
                "violated Agreement",
                Some(ViolationKind::Safety),
            ),
            (
                decided_unchecked,
                "decided, admissibility unchecked",
                Some(ViolationKind::Liveness),
            ),
        ];
        for (v, text, kind) in verdicts {
            assert_eq!(v.to_string(), text);
            assert_eq!(v.kind(), kind, "{text}");
        }

        let findings = [
            (
                Finding::ViolatedAgreement("alg1-auth"),
                "alg1-auth violated Agreement",
            ),
            (
                Finding::Inadmissible("planted-broken"),
                "planted-broken decided an inadmissible value",
            ),
            (Finding::Quarantined(vec!["a", "b"]), "quarantined: a, b"),
            (
                Finding::EnginesSplit([("alg1-auth", HEALTHY), ("mutant", UNDECIDED)]),
                "engines split: alg1-auth decided admissibly vs mutant undecided",
            ),
            (
                Finding::ClassifierSays("solvable, non-trivial", QUARANTINED),
                "classifier says 'solvable, non-trivial' but engines quarantined",
            ),
            (
                Finding::NoEngineApplicable,
                "no engine applicable at this (n, t)",
            ),
            (
                Finding::OutOfBand(vec!["alg3-nonauth", "alg6-fast"], true),
                "out of band: alg3-nonauth, alg6-fast; classifier out of band",
            ),
            (Finding::OutOfBand(vec!["b"], false), "out of band: b"),
            (
                Finding::OutOfBand(Vec::new(), true),
                "classifier out of band",
            ),
            (
                Finding::Diverged("alg6-fast", [QUARANTINED, HEALTHY]),
                "diverged from alg6-fast: quarantined vs decided admissibly",
            ),
            (
                Finding::DecidedOther("alg1-auth", ["1000000".into(), "0".into()]),
                "decided 1000000 where alg1-auth decided 0",
            ),
        ];
        for (finding, text) in findings {
            assert_eq!(finding.to_string(), text);
        }
        // Mutate's value kill is the one kind no single run shows.
        let value = Finding::DecidedOther("e", ["1".into(), "0".into()]);
        assert_eq!(value.kind(), Some(ViolationKind::Value));
        let stall = Finding::Diverged("e", [QUARANTINED, HEALTHY]);
        assert_eq!(stall.kind(), Some(ViolationKind::Liveness));
    }

    #[test]
    fn suite_enumerates_deterministically_and_exercises_bands() {
        let m = CrosscheckMatrix::suite();
        let cells = m.cells();
        assert!(!cells.is_empty());
        let keys: Vec<String> = cells.iter().map(key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate cells");
        assert_eq!(keys, m.cells().iter().map(key).collect::<Vec<_>>());
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
    fn tiny_grid_fully_agrees() {
        let report = run_crosscheck(&tiny(), 0);
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.count(AgreementLevel::Full), 1, "{report:?}");
        assert!(report.disagreements().is_empty());
        let cell = &report.cells[0];
        assert_eq!(cell.verdict, Some("solvable, non-trivial"));
        assert_eq!(cell.columns.len(), 3);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let mut m = tiny();
        m.scenarios.systems = vec![(4, 1), (7, 2)];
        m.scenarios.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        let one = run_crosscheck(&m, 1);
        let many = run_crosscheck(&m, 0);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_markdown(), many.to_markdown());
    }

    #[test]
    fn emitters_round_trip_and_tampering_is_detected() {
        let report = run_crosscheck(&tiny(), 0);
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
        let report = run_crosscheck(&clean, 0);
        assert_eq!(report.count(AgreementLevel::Disagreement), 0);

        // ...and flips to DISAGREEMENT the moment a deliberately wrong
        // machine joins the ensemble.
        let mut seeded = tiny();
        seeded.engines.push(ProtocolSpec::new(
            "planted-broken",
            "test-only",
            broken_factory,
        ));
        let report = run_crosscheck(&seeded, 0);
        let disagreements = report.disagreements();
        assert!(
            !disagreements.is_empty(),
            "planted fault not flagged: {report:?}"
        );
        assert!(
            disagreements
                .iter()
                .all(|(_, f)| **f == Finding::Inadmissible("planted-broken")),
            "disagreement must name the wrong engine: {disagreements:?}"
        );
        // The report names the cells individually in both emitters.
        assert!(report.to_markdown().contains("planted-broken"));
        assert!(report.to_json().contains("planted-broken"));
    }
}
