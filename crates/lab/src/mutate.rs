//! Systematic fault injection (`lab mutate`): prove the differential
//! oracle would notice a broken engine, one planted fault at a time.
//!
//! [`crate::crosscheck`] argues the engines, the classifier, and the
//! emitters keep each other honest — but that argument is only as strong
//! as the oracle's ability to *detect* a wrong engine. This module turns
//! the crosscheck's single planted-fault self-test into a corpus: every
//! registered engine crossed with every [`MutationOp`] yields a *mutant*
//! — the engine's machine inside a [`Mutant`] wrapper — and each mutant is
//! run over a scenario grid next to the clean registry columns, through
//! the runner seam ([`CrosscheckMatrix::run_engine`] is the same
//! `simulate` + `lens` pair). A mutant is **killed** when the oracle
//! distinguishes it from its base engine:
//!
//! 1. a cell grades [`AgreementLevel::Disagreement`] (safety violation,
//!    inadmissible decision, verdict split, classifier contradiction);
//! 2. [`Finding::Diverged`]: the mutant's verdict differs from its base
//!    engine's on some cell (e.g. it stalls into a quarantine, which
//!    `grade` files under *expected* divergence);
//! 3. [`Finding::DecidedOther`]: same verdicts, but some decided *value*
//!    differs — the one distinction a [`crate::runner::Verdict`] cannot see.
//!
//! Every kill and false kill is the [`Finding`] that convicted it, and
//! [`Finding::kind`] tells a value kill from a liveness or safety one.
//!
//! A mutant the oracle cannot distinguish **survives**, and any survivor
//! fails the gate: every mutant must die. The clean baseline must grade
//! with zero disagreements: a *false kill* would mean the harness convicts
//! healthy engines, which voids the whole matrix.
//!
//! The executor makes two passes over the lab's worker pool. The clean
//! columns run once per cell and are shared by every mutant's grading;
//! then each mutant walks the cells in matrix order and stops at its
//! first conviction, since the report keeps only that one. A mutant run
//! is capped at [`MUTANT_BUDGET_FACTOR`] times its base run's events on
//! the same cell: a mutant that stalls is quarantined (and convicted by
//! rule 2) long before it could hang the gate, and one that decides
//! never comes near the cap. Both passes collect in index order, so the
//! `mutate@1` artifact is byte-identical across worker counts.
//! Mutants are deterministic: each operator is a pure, stateful rewrite of
//! the hook stream, so mutated runs are exactly as replayable as clean
//! ones.

use validity_core::ProcessId;
use validity_protocols::{ProtocolContext, VectorMachine, VectorSpec};
use validity_simnet::{Env, Machine, NoProbe, Step, StepSink};

use crate::crosscheck::{self, grade_runs, AgreementLevel, CrosscheckMatrix, Finding};
use crate::matrix::{RunCell, ScheduleSpec, ValiditySpec};
use crate::pool;
use crate::report::json_str;
use crate::runner::{lens, simulate, RunRecord, Verdict};

/// Schema tag of the mutate report artifact.
pub const MUTATE_SCHEMA: &str = "validity-lab/mutate@1";

/// A small, realistic implementation mistake to plant into an engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MutationOp {
    /// Proposes `input + 1_000_000` instead of `input` — the classic
    /// planted fault: decisions drift outside the admissible bracket.
    ShiftProposal,
    /// Models a dropped origin-authentication check: every incoming
    /// message is attributed to the *next* process id, as if the receiver
    /// never verified who signed/sent it.
    DropSigCheck,
    /// Models an off-by-one quorum threshold: the machine never counts its
    /// successor's contributions, so every `≥ k` wait needs one message
    /// more than the protocol budgeted for — unsatisfiable at maximum
    /// fault load. (Crediting *extra* phantom messages would not do: the
    /// engines collect distinct validated per-sender contributions, so
    /// surplus credit only accelerates them — the chaos `duplication`
    /// schedule already proves duplicates are absorbed.)
    OffByOneThreshold,
    /// Swallows the engine's first broadcast — one protocol-critical
    /// `send-to-all` that simply never happens.
    SkipBroadcast,
    /// Replaces each broadcast's payload with the *previous* broadcast's
    /// payload (the first goes out unchanged): a stale-buffer reuse bug.
    StaleEcho,
}

impl MutationOp {
    /// Every operator, in presentation (and kill-matrix column) order.
    pub const ALL: [MutationOp; 5] = [
        MutationOp::ShiftProposal,
        MutationOp::DropSigCheck,
        MutationOp::OffByOneThreshold,
        MutationOp::SkipBroadcast,
        MutationOp::StaleEcho,
    ];

    /// The stable name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::ShiftProposal => "shift-proposal",
            MutationOp::DropSigCheck => "drop-sig-check",
            MutationOp::OffByOneThreshold => "off-by-one-threshold",
            MutationOp::SkipBroadcast => "skip-broadcast",
            MutationOp::StaleEcho => "stale-echo",
        }
    }

    /// Looks an operator up by its name.
    pub fn parse(name: &str) -> Option<MutationOp> {
        MutationOp::ALL.into_iter().find(|o| o.name() == name)
    }

    /// One-line description for `lab list`-style output.
    pub fn describe(self) -> &'static str {
        match self {
            MutationOp::ShiftProposal => "proposes input + 1_000_000 (inadmissible decisions)",
            MutationOp::DropSigCheck => "attributes every delivery to the next process id",
            MutationOp::OffByOneThreshold => {
                "never counts its successor's messages (every quorum waits for one extra)"
            }
            MutationOp::SkipBroadcast => "silently drops the engine's first broadcast",
            MutationOp::StaleEcho => "each broadcast carries the previous broadcast's payload",
        }
    }
}

impl std::fmt::Display for MutationOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A machine with one [`MutationOp`] planted into it.
///
/// The wrapper sits between the simulator and the unmodified inner
/// machine: input-side operators rewrite deliveries before the engine
/// sees them, output-side operators rewrite the effect stream the engine
/// emits. Everything else — outputs, timers, halts — passes through
/// untouched, so a mutant differs from its base engine by exactly the
/// planted fault. (`shift-proposal` is planted in the proposal itself,
/// before the engine is built.)
pub struct Mutant<M: Machine> {
    inner: M,
    op: MutationOp,
    /// Whether a one-shot operator (skip-broadcast) has fired.
    fired: bool,
    /// The previous broadcast payload (stale-echo).
    stale: Option<M::Msg>,
    /// Scratch buffer the inner machine writes into; reused across events.
    scratch: StepSink<M::Msg, M::Output>,
}

impl<M: Machine> Mutant<M> {
    /// Wraps `inner` with the planted fault `op`.
    pub fn new(inner: M, op: MutationOp) -> Self {
        Mutant {
            inner,
            op,
            fired: false,
            stale: None,
            scratch: StepSink::new(),
        }
    }

    /// Drains the inner machine's steps into `sink`, applying the
    /// output-side operators.
    fn relay(&mut self, sink: &mut StepSink<M::Msg, M::Output>) {
        for step in self.scratch.drain() {
            match step {
                Step::Broadcast(m) => match self.op {
                    MutationOp::SkipBroadcast if !self.fired => {
                        self.fired = true; // exactly one broadcast vanishes
                    }
                    MutationOp::StaleEcho => {
                        let prev = self.stale.replace(m.clone());
                        sink.broadcast(prev.unwrap_or(m));
                    }
                    _ => sink.broadcast(m),
                },
                Step::Send(to, m) => sink.send(to, m),
                Step::Timer(d, tag) => sink.timer(d, tag),
                Step::Output(o) => sink.output(o),
                Step::Halt => sink.halt(),
            }
        }
    }
}

impl<M: Machine> Machine for Mutant<M> {
    type Msg = M::Msg;
    type Output = M::Output;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.inner.init(env, &mut self.scratch);
        self.relay(sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        match self.op {
            MutationOp::DropSigCheck => {
                let forged = ProcessId::from_index((from.index() + 1) % env.n());
                self.inner.on_message(forged, msg, env, &mut self.scratch);
            }
            MutationOp::OffByOneThreshold => {
                // Discount one contributor: with its successor never
                // counted, every `>= quorum` wait needs one message more
                // than the protocol budgeted for.
                let ignored = ProcessId::from_index((env.id.index() + 1) % env.n());
                if from != ignored {
                    self.inner.on_message(from, msg, env, &mut self.scratch);
                }
            }
            _ => self.inner.on_message(from, msg, env, &mut self.scratch),
        }
        self.relay(sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.inner.on_timer(tag, env, &mut self.scratch);
        self.relay(sink);
    }
}

/// `base`'s machine for process `p` proposing `input`, with `op` planted:
/// the factory a mutant column hands the runner.
fn mutant(
    base: VectorSpec,
    op: MutationOp,
    ctx: &ProtocolContext,
    p: ProcessId,
    input: u64,
) -> Mutant<VectorMachine<u64>> {
    let input = if op == MutationOp::ShiftProposal {
        input.wrapping_add(1_000_000)
    } else {
        input
    };
    Mutant::new(base.machine(ctx, p, input), op)
}

/// The mutate axes: a crosscheck-shaped scenario grid (whose engine list
/// is the clean baseline) crossed with a mutation-operator corpus.
#[derive(Clone, Debug)]
pub struct MutateMatrix {
    /// The scenario grid; `grid.engines` are the clean base columns.
    pub grid: CrosscheckMatrix,
    /// The operator corpus applied to every base engine.
    pub operators: Vec<MutationOp>,
}

impl MutateMatrix {
    /// The built-in `mutate` suite: the full registry × the full operator
    /// corpus over a small grid that still exercises both schedules, both
    /// fault loads, and two system sizes. Sized for CI — the matrix runs
    /// each engine once per cell and each mutant up to its first
    /// conviction, at most `cells × (engines + mutants)` simulations.
    pub fn suite() -> MutateMatrix {
        let mut grid = CrosscheckMatrix::new("mutate");
        let s = &mut grid.scenarios;
        s.validities = vec![ValiditySpec::Strong];
        s.faults = vec![0, usize::MAX];
        s.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        s.systems = vec![(4, 1), (7, 2)];
        MutateMatrix {
            grid,
            operators: MutationOp::ALL.to_vec(),
        }
    }

    /// The mutant corpus, engine-major in registry/operator order:
    /// `(base engine index, operator)`.
    pub fn mutants(&self) -> Vec<(usize, MutationOp)> {
        (0..self.grid.engines.len())
            .flat_map(|e| self.operators.iter().map(move |&op| (e, op)))
            .collect()
    }

    /// The most simulations the matrix can run, `cells × (bases +
    /// mutants)`: a mutant stops at its first conviction.
    pub fn len(&self) -> usize {
        self.grid.len() * (self.grid.engines.len() + self.mutants().len())
    }

    /// Whether the matrix enumerates no work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What became of one mutant after the grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// The oracle distinguished the mutant from its base engine.
    Killed {
        /// Key of the first cell that convicted it.
        cell: String,
        /// What the oracle saw there.
        evidence: Finding,
    },
    /// The oracle could not tell the mutant from its base engine on any
    /// cell of the grid.
    Survived,
}

/// One row-entry of the kill matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutantFate {
    /// The base engine's registry name.
    pub base: &'static str,
    /// The planted operator.
    pub operator: MutationOp,
    /// Killed or survived.
    pub fate: Fate,
}

impl MutantFate {
    /// The mutant's name in the reports: `<engine>+<operator>`.
    pub fn name(&self) -> String {
        format!("{}+{}", self.base, self.operator)
    }

    /// Whether the oracle killed this mutant.
    pub fn killed(&self) -> bool {
        matches!(self.fate, Fate::Killed { .. })
    }
}

/// The aggregated, deterministic kill matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateReport {
    /// Matrix name.
    pub name: String,
    /// Clean base-engine column names, in registry order.
    pub engines: Vec<&'static str>,
    /// Operator corpus, in presentation order.
    pub operators: Vec<MutationOp>,
    /// Scenario cells in the grid: each clean column ran all of them, and
    /// each mutant the ones up to its first conviction.
    pub cells: usize,
    /// Baseline disagreements, by cell key: cells where the *clean*
    /// registry already splits. Any entry is a false kill and voids the
    /// matrix.
    pub false_kills: Vec<(String, Finding)>,
    /// One fate per mutant, engine-major in corpus order.
    pub fates: Vec<MutantFate>,
}

impl MutateReport {
    /// Number of killed mutants.
    pub fn killed(&self) -> usize {
        self.fates.iter().filter(|f| f.killed()).count()
    }

    /// The surviving mutants.
    pub fn survivors(&self) -> Vec<&MutantFate> {
        self.fates.iter().filter(|f| !f.killed()).collect()
    }

    /// The CI gate. Passes only when the baseline shows zero false kills
    /// and every mutant is killed.
    pub fn gate(&self) -> Result<(), String> {
        if !self.false_kills.is_empty() {
            return Err(format!(
                "clean baseline disagrees with itself ({} false kill(s)): {}",
                self.false_kills.len(),
                self.false_kills
                    .iter()
                    .map(|(key, finding)| format!("{key}: {finding}"))
                    .collect::<Vec<_>>()
                    .join("; "),
            ));
        }
        let survivors: Vec<String> = self.survivors().iter().map(|f| f.name()).collect();
        if !survivors.is_empty() {
            return Err(format!(
                "{} mutant(s) survived: {}",
                survivors.len(),
                survivors.join(", "),
            ));
        }
        Ok(())
    }

    /// Deterministic JSON rendering (schema [`MUTATE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(MUTATE_SCHEMA));
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
            "  \"operators\": [{}],",
            self.operators
                .iter()
                .map(|o| json_str(o.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"summary\": {{\"cells\": {}, \"mutants\": {}, \"killed\": {}, \"survived\": {}, \
             \"false_kills\": {}}},",
            self.cells,
            self.fates.len(),
            self.killed(),
            self.fates.len() - self.killed(),
            self.false_kills.len(),
        );
        let _ = writeln!(
            out,
            "  \"baseline\": [{}],",
            self.false_kills
                .iter()
                .map(|(key, finding)| json_str(&format!("{key}: {finding}")))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"mutants\": [\n");
        for (i, f) in self.fates.iter().enumerate() {
            let comma = if i + 1 < self.fates.len() { "," } else { "" };
            let fate = match &f.fate {
                Fate::Killed { cell, evidence } => format!(
                    "\"killed\": true, \"cell\": {}, \"evidence\": {}",
                    json_str(cell),
                    json_str(&evidence.to_string())
                ),
                Fate::Survived => "\"killed\": false".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"engine\": {}, \"operator\": {}, {}}}{}",
                json_str(&f.name()),
                json_str(f.base),
                json_str(f.operator.name()),
                fate,
                comma,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The Markdown kill matrix (engines × operators), with per-mutant
    /// evidence below the table.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# Mutation kill matrix `{}`", self.name);
        out.push('\n');
        let _ = writeln!(
            out,
            "- scenario cells per column: **{}** (schema `{}`)",
            self.cells, MUTATE_SCHEMA
        );
        let _ = writeln!(
            out,
            "- mutants: **{}** — {} killed, {} survived",
            self.fates.len(),
            self.killed(),
            self.fates.len() - self.killed(),
        );
        let _ = writeln!(
            out,
            "- baseline false kills: **{}**",
            self.false_kills.len()
        );
        out.push('\n');
        let mut header = String::from("| engine |");
        let mut rule = String::from("|---|");
        for op in &self.operators {
            let _ = write!(header, " {op} |");
            rule.push_str("---|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for &engine in &self.engines {
            let mut row = format!("| `{engine}` |");
            for &op in &self.operators {
                let fate = self
                    .fates
                    .iter()
                    .find(|f| f.base == engine && f.operator == op);
                let label = match fate.map(|f| f.killed()) {
                    Some(true) => "killed",
                    Some(false) => "**SURVIVED**",
                    None => "—",
                };
                let _ = write!(row, " {label} |");
            }
            let _ = writeln!(out, "{row}");
        }
        out.push('\n');
        out.push_str("## Evidence\n\n");
        for f in &self.fates {
            match &f.fate {
                Fate::Killed { cell, evidence } => {
                    let _ = writeln!(out, "- `{}` — killed at `{cell}`: {evidence}", f.name());
                }
                Fate::Survived => {
                    let _ = writeln!(out, "- `{}` — **survived**", f.name());
                }
            }
        }
        if !self.false_kills.is_empty() {
            out.push('\n');
            out.push_str("## Baseline false kills\n\n");
            for (key, finding) in &self.false_kills {
                let _ = writeln!(out, "- {key}: {finding}");
            }
        }
        out
    }
}

/// Rules 2 and 3: a mutant's run against its base engine's on the same
/// cell. Catches the divergence `grade` files as *expected* (quarantine)
/// or cannot see (verdict vs verdict when another column diverged first),
/// and the same verdict on a different decided value.
fn judge(base: &'static str, b: &RunRecord, m: &RunRecord) -> Option<Finding> {
    let verdicts = [m.verdict(), b.verdict()];
    if verdicts[0] != verdicts[1] {
        return Some(Finding::Diverged(base, verdicts));
    }
    let values = [m.decision.clone(), b.decision.clone()];
    (m.decided && values[0] != values[1]).then_some(Finding::DecidedOther(base, values))
}

/// Each mutant run's step budget, in multiples of its base engine's
/// events on the same cell. A mutant that decides or halts does so within
/// about its base run's events; one that stalls runs on undecided, and the
/// budget turns that into a quarantine that rule 2 convicts.
pub const MUTANT_BUDGET_FACTOR: u64 = 20;

/// `base` with `op` planted, run on `cell` under [`MUTANT_BUDGET_FACTOR`]
/// times the events of `base_run`, its base engine's run of that cell.
fn run_mutant(cell: &RunCell, base: VectorSpec, op: MutationOp, base_run: &RunRecord) -> RunRecord {
    let budget = MUTANT_BUDGET_FACTOR * base_run.events;
    let make = |ctx: &ProtocolContext, p, input| mutant(base, op, ctx, p, input);
    lens(cell, &simulate(cell, Some(budget), |_| NoProbe, make).0)
}

/// Runs the kill matrix over `threads` workers (0 = all cores).
///
/// Two passes over the lab's worker pool: the clean columns and the
/// classifier once per cell, then each mutant walked over the cells in
/// matrix order up to its first conviction. The pool hands both back in
/// index order, so the report bytes never depend on the worker count.
pub fn run_mutate(matrix: &MutateMatrix, threads: usize) -> MutateReport {
    let grid = &matrix.grid;
    let cells = grid.cells();
    let mutants = matrix.mutants();
    let engines: Vec<&'static str> = grid.engines.iter().map(|e| e.name()).collect();
    // The classifier and the clean columns of each cell.
    let clean: Vec<(_, Vec<_>)> = pool::ordered_map(threads, cells.len(), |i| {
        let cell = &cells[i];
        let runs = grid
            .engines
            .iter()
            .map(|&base| grid.run_engine(cell, base, |ctx, p, input| base.machine(ctx, p, input)));
        (grid.classify(cell), runs.collect())
    })
    .map(|(row, _wall)| row)
    .collect();
    // Rule 1: the oracle ensemble's disagreement on cell `i` — the clean
    // columns, plus the mutant's verdict when given.
    let disagreement = |i: usize, mutant: Option<Option<Verdict>>| {
        let (classifier, row) = &clean[i];
        let verdicts = row.iter().map(|run| run.as_ref().map(RunRecord::verdict));
        let extra = mutant.map(|verdict| ("mutant", verdict));
        let (_, finding) = grade_runs(
            classifier.as_ref(),
            engines.iter().copied().zip(verdicts).chain(extra),
        );
        finding.filter(|f| f.level() == AgreementLevel::Disagreement)
    };
    // Baseline: the clean registry must not disagree with itself.
    let false_kills = (0..cells.len())
        .filter_map(|i| Some((crosscheck::key(&cells[i]), disagreement(i, None)?)))
        .collect();
    // Each mutant dies at its first conviction in cell order.
    let fates = pool::ordered_map(threads, mutants.len(), |m| {
        let (e, op) = mutants[m];
        let kill = cells.iter().enumerate().find_map(|(i, cell)| {
            let base = clean[i].1[e].as_ref();
            let run = base.map(|b| run_mutant(cell, grid.engines[e], op, b));
            let evidence = disagreement(i, Some(run.as_ref().map(RunRecord::verdict)))
                .or_else(|| judge(engines[e], base?, run.as_ref()?))?;
            Some(Fate::Killed {
                cell: crosscheck::key(cell),
                evidence,
            })
        });
        MutantFate {
            base: engines[e],
            operator: op,
            fate: kill.unwrap_or(Fate::Survived),
        }
    })
    .map(|(fate, _wall)| fate)
    .collect();
    MutateReport {
        name: grid.scenarios.name.clone(),
        engines,
        operators: matrix.operators.clone(),
        cells: cells.len(),
        false_kills,
        fates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::{InputConfig, SystemParams};
    use validity_protocols::{find_vector, vector_registry};
    use validity_simnet::{agreement_holds, NodeKind, SimBuilder};

    /// A one-cell matrix over a trimmed corpus, for fast unit tests.
    fn tiny(operators: Vec<MutationOp>) -> MutateMatrix {
        let mut m = MutateMatrix::suite();
        m.grid.scenarios.schedules = vec![ScheduleSpec::Synchronous];
        m.grid.scenarios.systems = vec![(4, 1)];
        m.grid.scenarios.faults = vec![0];
        m.operators = operators;
        m
    }

    #[test]
    fn operator_names_roundtrip() {
        for op in MutationOp::ALL {
            assert_eq!(MutationOp::parse(op.name()), Some(op));
            assert!(!op.describe().is_empty());
        }
        assert_eq!(MutationOp::parse("?"), None);
    }

    #[test]
    fn suite_crosses_every_engine_with_every_operator() {
        let m = MutateMatrix::suite();
        assert_eq!(
            m.mutants().len(),
            m.grid.engines.len() * MutationOp::ALL.len()
        );
        assert!(!m.is_empty());
    }

    #[test]
    fn mutants_cover_every_pair_with_unique_names() {
        let m = MutateMatrix::suite();
        // Named `base+op`, engine-major, operator-minor: stable report
        // order, and no two mutants share a name.
        let names: Vec<String> = m
            .mutants()
            .into_iter()
            .map(|(e, operator)| {
                let base = m.grid.engines[e].name();
                MutantFate {
                    base,
                    operator,
                    fate: Fate::Survived,
                }
                .name()
            })
            .collect();
        let expected: Vec<String> = vector_registry::<u64>()
            .iter()
            .flat_map(|spec| MutationOp::ALL.map(|op| format!("{}+{}", spec.name(), op.name())))
            .collect();
        assert_eq!(names, expected);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate mutant names");
    }

    /// Runs 4 correct nodes built by `make` under `budget` events (the
    /// simulator's own limit when `None`) and returns (all decided,
    /// agreement, decision debug strings, events).
    fn run_nodes<M>(
        make: impl Fn(&ProtocolContext, ProcessId, u64) -> M,
        seed: u64,
        budget: Option<u64>,
    ) -> (bool, bool, Vec<String>, u64)
    where
        M: Machine<Output = InputConfig<u64>> + 'static,
    {
        let params = SystemParams::new(4, 1).unwrap();
        let ctx = ProtocolContext::new(params, seed);
        let nodes: Vec<NodeKind<M>> = (0..4)
            .map(|i| NodeKind::Correct(make(&ctx, ProcessId::from_index(i), i as u64 % 2)))
            .collect();
        let mut builder = SimBuilder::new(params).seed(seed);
        if let Some(budget) = budget {
            builder = builder.max_events(budget);
        }
        let mut sim = builder.build(nodes).expect("valid configuration");
        sim.run_until_decided();
        (
            sim.all_correct_decided(),
            agreement_holds(sim.decisions()),
            sim.decisions()
                .iter()
                .flatten()
                .map(|(_, o)| format!("{o:?}"))
                .collect(),
            sim.events_processed(),
        )
    }

    #[test]
    fn every_mutant_builds_and_runs_deterministically() {
        let m = MutateMatrix::suite();
        for (e, op) in m.mutants() {
            let base = m.grid.engines[e];
            // The same budget `run_mutate` derives from the base run.
            let events = run_nodes(|ctx, p, input| base.machine(ctx, p, input), 7, None).3;
            let budget = Some(MUTANT_BUDGET_FACTOR * events);
            let run = || run_nodes(|ctx, p, input| mutant(base, op, ctx, p, input), 7, budget);
            assert_eq!(run(), run(), "{base}+{op} is not replayable");
        }
    }

    #[test]
    fn a_mutant_run_is_budgeted_off_its_base_run() {
        let m = tiny(vec![MutationOp::SkipBroadcast]);
        let cell = &m.grid.cells()[0];
        let base = find_vector::<u64>("alg1-auth").unwrap();
        let clean = m
            .grid
            .run_engine(cell, base, |ctx, p, input| base.machine(ctx, p, input))
            .unwrap();
        assert!(clean.decided && !clean.quarantined);
        assert_eq!(clean.events, 50);
        // skip-broadcast stalls Algorithm 1: it runs to 20 × 50 events,
        // and the one after trips the limit.
        let run = run_mutant(cell, base, MutationOp::SkipBroadcast, &clean);
        assert!(run.quarantined && !run.decided);
        assert_eq!(run.events, 1_001);
        // `lab mutate --max-steps` is refused with the factor in use.
        let why = crate::flags::find("--max-steps")
            .and_then(|f| f.refusal(crate::flags::Command::Mutate))
            .unwrap();
        assert!(why.contains(&format!("{MUTANT_BUDGET_FACTOR}×")), "{why}");
    }

    #[test]
    fn shift_proposal_mutant_decides_outside_the_input_bracket() {
        let base = vector_registry::<u64>()[0];
        let clean = run_nodes(|ctx, p, input| base.machine(ctx, p, input), 7, None);
        assert!(clean.0 && clean.1);
        let (decided, agreement, decisions, _) = run_nodes(
            |ctx, p, input| mutant(base, MutationOp::ShiftProposal, ctx, p, input),
            7,
            None,
        );
        // The mutant still runs the real engine, so it reaches agreement —
        // but every decided value carries the shifted proposals.
        assert!(decided && agreement);
        assert_ne!(decisions, clean.2, "planted shift left no trace");
        assert!(
            decisions.iter().all(|d| d.contains("1000000")),
            "shifted proposals missing from {decisions:?}"
        );
    }

    #[test]
    fn shift_proposal_dies_and_the_baseline_stays_clean() {
        let report = run_mutate(&tiny(vec![MutationOp::ShiftProposal]), 2);
        assert!(report.false_kills.is_empty(), "{:?}", report.false_kills);
        assert_eq!(report.fates.len(), 3);
        for f in &report.fates {
            // It decides promptly, on the wrong value: a value kill.
            let Fate::Killed { evidence, .. } = &f.fate else {
                panic!("{} survived", f.name())
            };
            assert!(matches!(evidence, Finding::DecidedOther(..)), "{evidence}");
            assert_eq!(evidence.kind(), Some(crate::ViolationKind::Value));
        }
        assert!(report.gate().is_ok());
    }

    #[test]
    fn any_survivor_fails_the_gate() {
        let report = MutateReport {
            name: "mutate".into(),
            engines: vec!["alg1-auth"],
            operators: vec![MutationOp::StaleEcho],
            cells: 1,
            false_kills: Vec::new(),
            fates: vec![MutantFate {
                base: "alg1-auth",
                operator: MutationOp::StaleEcho,
                fate: Fate::Survived,
            }],
        };
        let err = report.gate().unwrap_err();
        assert!(
            err.contains("1 mutant(s) survived: alg1-auth+stale-echo"),
            "{err}"
        );
        assert!(report
            .to_markdown()
            .contains("- `alg1-auth+stale-echo` — **survived**"));

        let mut killed = report.clone();
        killed.fates[0].fate = Fate::Killed {
            cell: "c".into(),
            evidence: Finding::DecidedOther("alg1-auth", ["1".into(), "0".into()]),
        };
        assert!(killed.gate().is_ok());
    }

    #[test]
    fn gate_fails_on_false_kills() {
        let report = MutateReport {
            name: "mutate".into(),
            engines: vec!["alg1-auth"],
            operators: Vec::new(),
            cells: 1,
            false_kills: vec![(
                "crosscheck/x".into(),
                Finding::ViolatedAgreement("alg1-auth"),
            )],
            fates: Vec::new(),
        };
        let err = report.gate().unwrap_err();
        assert!(err.contains("1 false kill(s)"), "{err}");
        assert!(
            err.contains("crosscheck/x: alg1-auth violated Agreement"),
            "{err}"
        );
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let report = run_mutate(&tiny(vec![MutationOp::ShiftProposal]), 1);
        let json = report.to_json();
        assert!(json.contains(MUTATE_SCHEMA));
        assert!(json.contains("\"killed\": true"));
        assert!(json.contains("alg1-auth+shift-proposal"));
        let md = report.to_markdown();
        assert!(md.contains("# Mutation kill matrix `mutate`"));
        assert!(md.contains("| `alg1-auth` | killed |"));
        assert!(md.contains("## Evidence"));
    }

    #[test]
    fn matrix_bytes_are_thread_count_independent() {
        let m = tiny(vec![MutationOp::ShiftProposal, MutationOp::SkipBroadcast]);
        let one = run_mutate(&m, 1);
        let four = run_mutate(&m, 4);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_markdown(), four.to_markdown());
    }
}
