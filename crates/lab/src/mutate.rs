//! Systematic fault injection (`lab mutate`): prove the differential
//! oracle would notice a broken engine, one planted fault at a time.
//!
//! [`crate::crosscheck`] argues the engines, the classifier, and the
//! emitters keep each other honest — but that argument is only as strong
//! as the oracle's ability to *detect* a wrong engine. This module turns
//! the crosscheck's single planted-fault self-test into a corpus: every
//! registered engine crossed with every
//! [`validity_protocols::MutationOp`] yields a *mutant*
//! ([`validity_protocols::mutant_spec`]), and each mutant's column is run
//! over a scenario grid next to the clean registry columns. A mutant is
//! **killed** when the oracle distinguishes it from its base engine:
//!
//! 1. a cell grades [`AgreementLevel::Disagreement`] (safety violation,
//!    inadmissible decision, verdict split, classifier contradiction);
//! 2. the mutant's verdict differs from its base engine's on some cell
//!    (e.g. the fault stalls the mutant into quarantine — `grade` files
//!    quarantines under *expected* divergence, so this check keeps them
//!    lethal);
//! 3. both decided every cell identically by verdict, but some decided
//!    *value* differs — the one distinction
//!    [`EngineVerdict`](crate::crosscheck::EngineVerdict) is too
//!    coarse to see.
//!
//! A mutant the oracle cannot distinguish **survives**; the gate fails
//! unless that survivor is explicitly listed in [`CATALOGUED_EQUIVALENT`]
//! (and fails symmetrically when a catalogued entry starts dying — stale
//! catalogue entries are bugs too). The clean baseline must grade with
//! zero disagreements: a *false kill* would mean the harness convicts
//! healthy engines, which voids the whole matrix.
//!
//! The executor is the same deterministic worker-pool shape as
//! [`crate::crosscheck::run_crosscheck`]: every `(cell × column)` run
//! fans out over threads, results collect in matrix order, and the
//! `mutate@1` artifact is byte-identical across worker counts. Base
//! columns are executed once and shared by every mutant's grading.

use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_core::Classification;
use validity_protocols::{mutant_spec, MutationOp, VectorSpec};

use crate::crosscheck::{grade, AgreementLevel, CrosscheckMatrix, EngineColumn, EngineOutcome};
use crate::matrix::{ScheduleSpec, ValiditySpec};
use crate::pool;
use crate::report::json_str;

/// Schema tag of the mutate report artifact.
pub const MUTATE_SCHEMA: &str = "validity-lab/mutate@1";

/// Mutants the oracle is *known* not to distinguish from their base
/// engine over the built-in grid, reviewed and accepted as equivalent.
/// Empty today: every operator in the corpus is lethal to every engine.
/// The gate fails on any survivor missing from this list — and on any
/// listed mutant that starts dying, so the catalogue cannot go stale.
pub const CATALOGUED_EQUIVALENT: &[&str] = &[];

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
    /// `cells × (engines + mutants)` simulations.
    pub fn suite() -> MutateMatrix {
        let mut grid = CrosscheckMatrix::new("mutate");
        grid.validities = vec![ValiditySpec::Strong];
        grid.behaviors = vec![BehaviorId::Silent];
        grid.faults = vec![0, usize::MAX];
        grid.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        grid.systems = vec![(4, 1), (7, 2)];
        grid.seeds = 0..1;
        // A mutant may legitimately stall (skip-broadcast starves a
        // quorum); the budget turns that into a quarantine verdict the
        // divergence check can convict, instead of a hung gate.
        grid.max_steps = Some(1_000_000);
        MutateMatrix {
            grid,
            operators: MutationOp::ALL.to_vec(),
        }
    }

    /// The mutant corpus, engine-major in registry/operator order:
    /// `(base engine index, operator, mutant spec)`.
    pub fn mutants(&self) -> Vec<(usize, MutationOp, VectorSpec)> {
        (0..self.grid.engines.len())
            .flat_map(|e| {
                self.operators
                    .iter()
                    .map(move |&op| (e, op, mutant_spec(e, op)))
            })
            .collect()
    }

    /// Total simulation-column count (`cells × (bases + mutants)`).
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
        evidence: String,
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
    /// The mutant's registry name (`<engine>+<operator>`).
    pub name: &'static str,
    /// Killed or survived.
    pub fate: Fate,
}

impl MutantFate {
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
    /// Scenario cells each column ran.
    pub cells: usize,
    /// Baseline disagreements (`"key: detail"`): cells where the *clean*
    /// registry already splits. Any entry is a false kill and voids the
    /// matrix.
    pub false_kills: Vec<String>,
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
    /// and every mutant is killed or catalogued; a catalogued mutant that
    /// dies anyway fails too (stale catalogue).
    pub fn gate(&self, catalogue: &[&str]) -> Result<(), String> {
        if !self.false_kills.is_empty() {
            return Err(format!(
                "clean baseline disagrees with itself ({} false kill(s)): {}",
                self.false_kills.len(),
                self.false_kills.join("; "),
            ));
        }
        let escaped: Vec<&str> = self
            .survivors()
            .into_iter()
            .filter(|f| !catalogue.contains(&f.name))
            .map(|f| f.name)
            .collect();
        if !escaped.is_empty() {
            return Err(format!(
                "{} mutant(s) survived uncatalogued: {}",
                escaped.len(),
                escaped.join(", "),
            ));
        }
        let stale: Vec<&str> = self
            .fates
            .iter()
            .filter(|f| f.killed() && catalogue.contains(&f.name))
            .map(|f| f.name)
            .collect();
        if !stale.is_empty() {
            return Err(format!(
                "catalogued-equivalent mutant(s) now die: {} (remove from the catalogue)",
                stale.join(", "),
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
                .map(|k| json_str(k))
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
                    json_str(evidence)
                ),
                Fate::Survived => "\"killed\": false".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"engine\": {}, \"operator\": {}, {}}}{}",
                json_str(f.name),
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
                    let _ = writeln!(out, "- `{}` — killed at `{cell}`: {evidence}", f.name);
                }
                Fate::Survived => {
                    let catalogued = CATALOGUED_EQUIVALENT.contains(&f.name);
                    let _ = writeln!(
                        out,
                        "- `{}` — **survived** ({})",
                        f.name,
                        if catalogued {
                            "catalogued equivalent"
                        } else {
                            "UNCATALOGUED"
                        }
                    );
                }
            }
        }
        if !self.false_kills.is_empty() {
            out.push('\n');
            out.push_str("## Baseline false kills\n\n");
            for k in &self.false_kills {
                let _ = writeln!(out, "- {k}");
            }
        }
        out
    }
}

/// One executed column of one cell: the crosscheck-shaped outcome plus
/// the decided value's rendering (the detail `EngineVerdict` drops).
#[derive(Clone, Debug)]
struct ColumnRun {
    outcome: EngineOutcome,
    decision: Option<String>,
}

/// Runs one engine (base or mutant) on one cell — the same column
/// [`crate::crosscheck::execute_crosscheck`] runs.
fn run_column(
    cell: &crate::crosscheck::CrosscheckCell,
    engine: VectorSpec,
    max_steps: Option<u64>,
) -> ColumnRun {
    let run = cell.run_engine(engine, max_steps);
    ColumnRun {
        outcome: EngineOutcome::of(run.as_ref()),
        decision: run.filter(|r| r.decided).map(|r| r.decision),
    }
}

/// Grades one mutant against the shared base columns over the whole grid.
/// Returns the first conviction in cell order, or [`Fate::Survived`].
fn judge(
    cells: &[crate::crosscheck::CrosscheckCell],
    classifiers: &[Option<Classification<u64>>],
    engine_names: &[&'static str],
    base_runs: &[Vec<ColumnRun>],
    base_index: usize,
    mutant_runs: &[ColumnRun],
) -> Fate {
    let base_name = engine_names[base_index];
    for (i, cell) in cells.iter().enumerate() {
        let mutant = &mutant_runs[i];
        // 1. The full oracle ensemble, with the mutant as an extra column.
        let mut columns: Vec<EngineColumn> = base_runs[i]
            .iter()
            .enumerate()
            .map(|(e, run)| EngineColumn {
                engine: engine_names[e],
                outcome: run.outcome,
            })
            .collect();
        columns.push(EngineColumn {
            engine: "mutant",
            outcome: mutant.outcome,
        });
        let (level, detail) = grade(classifiers[i].as_ref(), &columns);
        if level == AgreementLevel::Disagreement {
            return Fate::Killed {
                cell: cell.key(),
                evidence: detail,
            };
        }
        // 2. Divergence from the base engine that grade() files as
        // *expected* (quarantine) or cannot see (verdict vs verdict when
        // another column also diverged first).
        let base = &base_runs[i][base_index];
        if let (EngineOutcome::Ran(vb), EngineOutcome::Ran(vm)) = (base.outcome, mutant.outcome) {
            if vb != vm {
                return Fate::Killed {
                    cell: cell.key(),
                    evidence: format!(
                        "diverged from {base_name}: {} vs {}",
                        vm.summary(),
                        vb.summary()
                    ),
                };
            }
            // 3. Same verdict shape, different decided value.
            if let (Some(db), Some(dm)) = (&base.decision, &mutant.decision) {
                if db != dm {
                    return Fate::Killed {
                        cell: cell.key(),
                        evidence: format!("decided {dm} where {base_name} decided {db}"),
                    };
                }
            }
        }
    }
    Fate::Survived
}

/// Runs the full kill matrix over `threads` workers (0 = all cores).
///
/// Deterministic: every `(cell × column)` simulation is independent, work
/// fans out through the same worker pool as
/// [`crate::crosscheck::run_crosscheck`], which hands the runs back in
/// index order, and grading walks them in matrix order — the report bytes
/// never depend on the worker count.
pub fn run_mutate(matrix: &MutateMatrix, threads: usize) -> (MutateReport, Duration) {
    let started = Instant::now();
    let cells = matrix.grid.cells();
    let mutants = matrix.mutants();
    // All columns of the run, bases first: runs[cell][column].
    let columns: Vec<VectorSpec> = matrix
        .grid
        .engines
        .iter()
        .copied()
        .chain(mutants.iter().map(|&(_, _, spec)| spec))
        .collect();
    let mut results = pool::ordered_map(threads, cells.len() * columns.len(), |k| {
        run_column(
            &cells[k / columns.len()],
            columns[k % columns.len()],
            matrix.grid.max_steps,
        )
    })
    .map(|(run, _wall)| run);
    let runs: Vec<Vec<ColumnRun>> = cells
        .iter()
        .map(|_| results.by_ref().take(columns.len()).collect())
        .collect();
    let bases = matrix.grid.engines.len();
    let base_runs: Vec<Vec<ColumnRun>> = runs.iter().map(|row| row[..bases].to_vec()).collect();
    // Classifier column, once per cell (cheap at grid sizes).
    let classifiers: Vec<Option<Classification<u64>>> = cells
        .iter()
        .map(|cell| cell.classify(matrix.grid.domain))
        .collect();
    // Baseline: the clean registry must not disagree with itself.
    let mut false_kills = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let columns: Vec<EngineColumn> = base_runs[i]
            .iter()
            .enumerate()
            .map(|(e, run)| EngineColumn {
                engine: matrix.grid.engines[e].name(),
                outcome: run.outcome,
            })
            .collect();
        let (level, detail) = grade(classifiers[i].as_ref(), &columns);
        if level == AgreementLevel::Disagreement {
            false_kills.push(format!("{}: {detail}", cell.key()));
        }
    }
    let engine_names: Vec<&'static str> = matrix.grid.engines.iter().map(|e| e.name()).collect();
    let fates: Vec<MutantFate> = mutants
        .iter()
        .enumerate()
        .map(|(m, &(e, op, spec))| {
            let mutant_runs: Vec<ColumnRun> =
                runs.iter().map(|row| row[bases + m].clone()).collect();
            MutantFate {
                base: engine_names[e],
                operator: op,
                name: spec.name(),
                fate: judge(
                    &cells,
                    &classifiers,
                    &engine_names,
                    &base_runs,
                    e,
                    &mutant_runs,
                ),
            }
        })
        .collect();
    let report = MutateReport {
        name: matrix.grid.name.clone(),
        engines: matrix.grid.engines.iter().map(|e| e.name()).collect(),
        operators: matrix.operators.clone(),
        cells: cells.len(),
        false_kills,
        fates,
    };
    (report, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-cell matrix over a trimmed corpus, for fast unit tests.
    fn tiny(operators: Vec<MutationOp>) -> MutateMatrix {
        let mut m = MutateMatrix::suite();
        m.grid.schedules = vec![ScheduleSpec::Synchronous];
        m.grid.systems = vec![(4, 1)];
        m.grid.faults = vec![0];
        m.operators = operators;
        m
    }

    #[test]
    fn suite_crosses_every_engine_with_every_operator() {
        let m = MutateMatrix::suite();
        assert_eq!(
            m.mutants().len(),
            m.grid.engines.len() * MutationOp::ALL.len()
        );
        assert!(!m.is_empty());
        // Engine-major, operator-minor: stable report order.
        let names: Vec<&str> = m.mutants().iter().map(|&(_, _, s)| s.name()).collect();
        assert_eq!(names[0], "alg1-auth+shift-proposal");
        assert_eq!(names[MutationOp::ALL.len()], "alg3-nonauth+shift-proposal");
    }

    #[test]
    fn shift_proposal_dies_and_the_baseline_stays_clean() {
        let (report, _) = run_mutate(&tiny(vec![MutationOp::ShiftProposal]), 2);
        assert!(report.false_kills.is_empty(), "{:?}", report.false_kills);
        assert_eq!(report.fates.len(), 3);
        for f in &report.fates {
            assert!(f.killed(), "{} survived", f.name);
        }
        assert!(report.gate(&[]).is_ok());
    }

    #[test]
    fn gate_flags_uncatalogued_survivors_and_stale_catalogue_entries() {
        let report = MutateReport {
            name: "mutate".into(),
            engines: vec!["alg1-auth"],
            operators: vec![MutationOp::StaleEcho],
            cells: 1,
            false_kills: Vec::new(),
            fates: vec![MutantFate {
                base: "alg1-auth",
                operator: MutationOp::StaleEcho,
                name: "alg1-auth+stale-echo",
                fate: Fate::Survived,
            }],
        };
        let err = report.gate(&[]).unwrap_err();
        assert!(err.contains("survived uncatalogued"), "{err}");
        assert!(report.gate(&["alg1-auth+stale-echo"]).is_ok());

        let mut killed = report.clone();
        killed.fates[0].fate = Fate::Killed {
            cell: "c".into(),
            evidence: "e".into(),
        };
        assert!(killed.gate(&[]).is_ok());
        let err = killed.gate(&["alg1-auth+stale-echo"]).unwrap_err();
        assert!(err.contains("now die"), "{err}");
    }

    #[test]
    fn gate_fails_on_false_kills() {
        let report = MutateReport {
            name: "mutate".into(),
            engines: vec!["alg1-auth"],
            operators: Vec::new(),
            cells: 1,
            false_kills: vec!["crosscheck/x: engines split".into()],
            fates: Vec::new(),
        };
        assert!(report.gate(&[]).unwrap_err().contains("false kill"));
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let (report, _) = run_mutate(&tiny(vec![MutationOp::ShiftProposal]), 1);
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
        let (one, _) = run_mutate(&m, 1);
        let (four, _) = run_mutate(&m, 4);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_markdown(), four.to_markdown());
    }
}
