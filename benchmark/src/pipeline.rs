//! One pass of a workload: the whole pipeline `lab run --json --md`
//! (or `lab service`) performs — enumerate → execute → aggregate → emit
//! JSON → emit Markdown — through the lab's public functions, timed from
//! outside.

use std::hint::black_box;
use std::time::Instant;

use validity_lab::{run_service, SweepEngine, SweepReport};

use crate::fingerprint::{service_line, sweep_line, CellLine};
use crate::workloads::Plan;

/// Wall clock of each pipeline phase, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// `ScenarioMatrix::cells`. Service sweeps enumerate inside
    /// `run_service`, so this is 0 there.
    pub enumerate: f64,
    /// `SweepEngine::execute_cells` / `run_service`.
    pub execute: f64,
    /// `SweepReport::aggregate_matrix` (inside `run_service` for service
    /// sweeps, so 0 there).
    pub aggregate: f64,
    /// `to_json`.
    pub emit_json: f64,
    /// `to_markdown`.
    pub emit_md: f64,
}

/// The wall clock of one pass.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Whole-pipeline wall clock, seconds.
    pub wall: f64,
    /// The phases that make it up.
    pub phases: Phases,
    /// Per-cell wall clock, seconds, in matrix order (the lab's own
    /// `CellTiming` / `ServiceTiming`).
    pub cell_walls: Vec<f64>,
}

impl Timing {
    /// Pipeline time outside the cells: enumerate, pool, aggregate, emit.
    /// Meaningful at one worker only.
    pub fn overhead(&self) -> f64 {
        (self.wall - self.cell_walls.iter().sum::<f64>()).max(0.0)
    }
}

/// What one pass produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// How long it took.
    pub timing: Timing,
    /// The records, in canonical form (rendered after the clock stopped).
    pub lines: Vec<CellLine>,
    /// `SweepReport::violations()` / `ServiceReport::failures()`.
    pub violations: u64,
    /// Bytes of report emitted (JSON + Markdown).
    pub emitted_bytes: usize,
}

/// Runs `f`, returning its result and its wall clock in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64())
}

/// Runs one pass on `threads` workers.
pub fn run_pass(plan: &Plan, threads: usize) -> Pass {
    let started = Instant::now();
    match plan {
        Plan::Sweep(matrix) => {
            let (cells, enumerate) = timed(|| matrix.cells());
            let (records, execute, timings, _) =
                SweepEngine::new(threads).execute_cells(&cells, matrix.max_steps);
            let (report, aggregate) = timed(|| SweepReport::aggregate_matrix(matrix, &records));
            let (json, emit_json) = timed(|| report.to_json());
            let (md, emit_md) = timed(|| report.to_markdown());
            let wall = started.elapsed().as_secs_f64();
            Pass {
                timing: Timing {
                    wall,
                    phases: Phases {
                        enumerate,
                        execute: execute.as_secs_f64(),
                        aggregate,
                        emit_json,
                        emit_md,
                    },
                    cell_walls: timings.iter().map(|t| t.wall.as_secs_f64()).collect(),
                },
                lines: records.iter().map(sweep_line).collect(),
                violations: report.violations(),
                emitted_bytes: json.len() + md.len(),
            }
        }
        Plan::Service(matrix) => {
            let (report, execute, timings) = run_service(matrix, threads);
            let (json, emit_json) = timed(|| report.to_json());
            let (md, emit_md) = timed(|| report.to_markdown());
            let wall = started.elapsed().as_secs_f64();
            Pass {
                timing: Timing {
                    wall,
                    phases: Phases {
                        enumerate: 0.0,
                        execute: execute.as_secs_f64(),
                        aggregate: 0.0,
                        emit_json,
                        emit_md,
                    },
                    cell_walls: timings.iter().map(|t| t.wall.as_secs_f64()).collect(),
                },
                lines: report
                    .cells
                    .iter()
                    .map(|(key, record)| service_line(key, record, matrix.slots))
                    .collect(),
                violations: report.failures(),
                emitted_bytes: json.len() + md.len(),
            }
        }
    }
}
