//! The `run` and `trace` modes for one workload.
//!
//! The load is a closed loop with one client: one process, one worker,
//! fixed work per pass. Every pass — warm-up, timed, `nproc`-worker,
//! replayed — is checked: the semantic checks on every record, the
//! committed fingerprint at the fingerprinted seed, and digest identity
//! with the first pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::fingerprint::{CellLine, Fingerprint, FingerprintFile, FINGERPRINT_SEED};
use crate::pipeline::{run_pass, Phases, Timing};
use crate::replay::replay_pass;
use crate::results::{Metric, Metrics, WorkloadResult};
use crate::spans::{chrome_trace, root_coverage_ns, self_times, LayerTime, SpanLog};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{Plan, Size, Workload};

/// How long `run` measures.
#[derive(Clone, Copy, Debug)]
pub enum Measure {
    /// A fixed number of timed passes.
    Passes(usize),
    /// Set-ups and timed passes until the run is this many seconds old
    /// (at least one timed pass behind every set-up).
    Seconds(f64),
}

/// What to do with `fingerprints.json`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FingerprintMode {
    /// Check the warm-up pass against the committed entry.
    Check,
    /// Write the warm-up pass's fingerprint (`force`: even over a
    /// different one).
    Record {
        /// Overwrite a differing entry.
        force: bool,
    },
}

/// Which inputs to generate, and where their committed fingerprints live.
#[derive(Clone, Debug)]
pub struct Target {
    /// Workload size.
    pub size: Size,
    /// Workload seed.
    pub seed: u64,
    /// Where `fingerprints.json` lives.
    pub fingerprint_path: PathBuf,
}

/// Settings of one `run`.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub target: Target,
    /// How long to measure.
    pub measure: Measure,
    /// How many times to set up (the fastest is reported). The timed
    /// passes are split evenly behind the set-ups.
    pub setups: usize,
    /// Check or record the fingerprint.
    pub fingerprints: FingerprintMode,
}

/// Counts cells attempted and failed across passes.
struct Checker<'a> {
    workload: &'a str,
    reference: Option<Fingerprint>,
    attempted: u64,
    failed: u64,
    /// A workload-wide check failed: every cell counts as failed.
    all_failed: bool,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(workload: &'a str) -> Checker<'a> {
        Checker {
            workload,
            reference: None,
            attempted: 0,
            failed: 0,
            all_failed: false,
            problems: Vec::new(),
        }
    }

    /// Cells that failed a check, over every pass so far.
    fn failed(&self) -> u64 {
        if self.all_failed {
            self.attempted
        } else {
            self.failed
        }
    }

    /// Checks one pass. A digest mismatch fails every cell of the pass; a
    /// semantic failure fails the cells it names.
    fn check(&mut self, what: &str, lines: &[CellLine], violations: u64) {
        self.attempted += lines.len() as u64;
        let identity = match &self.reference {
            Some(reference) => reference.check(&format!("{} {what}", self.workload), lines),
            None => {
                self.reference = Some(Fingerprint::of(lines));
                Ok(())
            }
        };
        if let Err(e) = identity {
            self.failed += lines.len() as u64;
            self.problems.push(e);
            return;
        }
        let failed: Vec<&CellLine> = lines.iter().filter(|l| l.failed).collect();
        if let Some(first) = failed.first() {
            self.failed += failed.len() as u64;
            self.problems.push(format!(
                "{} {what}: {} cells fail the semantic checks, first: {}",
                self.workload,
                failed.len(),
                first.text
            ));
        } else if violations != 0 {
            self.failed += lines.len() as u64;
            self.problems.push(format!(
                "{} {what}: the report counts {violations} violations",
                self.workload
            ));
        }
    }

    /// Fails the whole workload: every cell of every pass.
    fn fail_all(&mut self, problem: String) {
        self.all_failed = true;
        self.problems.push(problem);
    }
}

/// Checks or records the committed fingerprint for the warm-up pass.
fn committed_fingerprint(
    w: &Workload,
    target: &Target,
    mode: FingerprintMode,
    file: &mut FingerprintFile,
    lines: &[CellLine],
) -> Result<(), String> {
    if target.seed != FINGERPRINT_SEED {
        return match mode {
            FingerprintMode::Check => Ok(()),
            FingerprintMode::Record { .. } => Err(format!(
                "fingerprints are recorded at seed {FINGERPRINT_SEED}, not {}",
                target.seed
            )),
        };
    }
    match mode {
        FingerprintMode::Record { force } => {
            file.record(target.size.tag(), w.name, Fingerprint::of(lines), force)?;
            file.save(&target.fingerprint_path)
        }
        FingerprintMode::Check => match file.get(target.size.tag(), w.name) {
            Some(expected) => expected.check(
                &format!("{} against the committed fingerprint", w.name),
                lines,
            ),
            None => Err(format!(
                "{}: no committed {} fingerprint in {} (record one with --record)",
                w.name,
                target.size.tag(),
                target.fingerprint_path.display()
            )),
        },
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of a `run`: the result plus what went wrong, if anything.
pub struct RunOutcome {
    /// The measured result.
    pub result: WorkloadResult,
    /// Median wall clock of each pipeline phase over the timed passes.
    pub phases: Phases,
    /// The typical timed pass: median wall and its quartiles, seconds.
    pub typical_pass: (f64, (f64, f64)),
    /// The fastest whole one-worker pass observed, seconds.
    pub best_pass: f64,
    /// Report bytes one pass emits (JSON + Markdown).
    pub emitted_bytes: usize,
    /// Failed checks, in the order met (empty = correct).
    pub problems: Vec<String>,
}

/// `run` mode: end-to-end metrics of one workload, tracing off.
///
/// `process_start` is when this process started: the first set-up is
/// measured from there, so process start-up cost shows in `setup_s`.
pub fn run_workload(w: &Workload, cfg: &RunConfig, process_start: Instant) -> RunOutcome {
    let mut checker = Checker::new(w.name);
    let target = &cfg.target;

    // A run is `setups` rounds of set-up + timed passes. Set-up is the
    // matrix build, the fingerprint load and a warm-up pass (which is also
    // the correctness pass). Like the other time metrics `setup_s` is a
    // noise floor, the fastest of the set-ups, and spreading them over
    // the run keeps one slow phase of a shared box from landing on all of
    // them.
    let rounds = cfg.setups.max(1);
    let mut setup_samples = Vec::with_capacity(rounds);
    let mut warm_ups: Vec<Timing> = Vec::with_capacity(rounds);
    let mut timed: Vec<Timing> = Vec::new();
    let mut emitted_bytes = 0;
    let mut peak_rss = 0.0;
    let mut plan = None;
    for round in 0..rounds {
        let started = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let built = w.plan(target.size, target.seed);
        let file = FingerprintFile::load(&target.fingerprint_path);
        let warm = run_pass(&built, 1);
        checker.check("warm-up", &warm.lines, warm.violations);
        setup_samples.push(started.elapsed().as_secs_f64());
        if round == 0 {
            let committed = file.and_then(|mut file| {
                committed_fingerprint(w, target, cfg.fingerprints, &mut file, &warm.lines)
            });
            if let Err(e) = committed {
                checker.fail_all(e);
            }
            // What one `lab run` of this matrix costs: the process so far
            // has done exactly that. Later passes reuse freed memory in
            // ways that depend on how many there were.
            peak_rss = peak_rss_mb();
        }
        warm_ups.push(warm.timing);

        // This round's share of the run.
        let share = (round + 1) as f64 / rounds as f64;
        loop {
            let done = match cfg.measure {
                Measure::Passes(n) => timed.len() as f64 >= (n.max(1) as f64 * share).ceil(),
                Measure::Seconds(s) => {
                    timed.len() > round && process_start.elapsed().as_secs_f64() >= s * share
                }
            };
            if done {
                break;
            }
            let pass = run_pass(&built, 1);
            checker.check("timed pass", &pass.lines, pass.violations);
            emitted_bytes = pass.emitted_bytes;
            timed.push(pass.timing);
        }
        plan = Some(built);
    }
    let plan = plan.expect("at least one round ran");

    // Records must not depend on the worker count.
    let pooled = run_pass(&plan, 0);
    checker.check("nproc-worker pass", &pooled.lines, pooled.violations);

    // The noise floor. On a shared box interference comes in phases of
    // seconds to tens of seconds and only ever adds time, so every metric
    // below is built from per-cell minima over all one-worker passes of
    // the run, the set-up passes included: a wider window gives each cell
    // more chances at a quiet moment, and a cell needs milliseconds of
    // quiet where a whole pass needs a second or two. The typical (median)
    // and the fastest observed pass are reported beside them for reading,
    // not for judging.
    let reference = checker.reference.clone().expect("at least one pass ran");
    let cells = reference.cells();
    fn min_of(values: impl Iterator<Item = f64>) -> f64 {
        values.fold(f64::INFINITY, f64::min)
    }
    let one_worker = || warm_ups.iter().chain(&timed);
    let cell_floor: Vec<f64> = (0..cells)
        .map(|c| min_of(one_worker().map(|t| t.cell_walls[c])))
        .collect();
    let floor = cell_floor.iter().sum::<f64>() + min_of(one_worker().map(Timing::overhead));
    let best_pass = min_of(one_worker().map(|t| t.wall));
    let cell_floor_ms: Vec<f64> = cell_floor.iter().map(|w| w * 1e3).collect();
    let timed_walls: Vec<f64> = timed.iter().map(|t| t.wall).collect();

    let mut metrics = Metrics::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(name.to_string(), Metric::single(unit, value));
    };
    put("setup_s", "s", min_of(setup_samples.iter().copied()));
    put("cells_per_s", "cells/s", cells as f64 / floor);
    put("floor_pass_s", "s", floor);
    put("cell_ms_p50", "ms", median(&cell_floor_ms));
    put("cell_ms_p95", "ms", percentile(&cell_floor_ms, 95.0));
    put("peak_rss_mb", "MB", peak_rss);
    put(
        "fail_ratio",
        "ratio",
        checker.failed() as f64 / checker.attempted as f64,
    );

    let phase =
        |f: fn(&Phases) -> f64| median(&timed.iter().map(|t| f(&t.phases)).collect::<Vec<_>>());
    RunOutcome {
        typical_pass: (median(&timed_walls), quartiles(&timed_walls)),
        best_pass,
        phases: Phases {
            enumerate: phase(|p| p.enumerate),
            execute: phase(|p| p.execute),
            aggregate: phase(|p| p.aggregate),
            emit_json: phase(|p| p.emit_json),
            emit_md: phase(|p| p.emit_md),
        },
        emitted_bytes,
        result: WorkloadResult {
            cells: cells as u64,
            events: reference.events,
            evals: reference.evals,
            quarantined: reference.quarantined,
            digest: reference.digest,
            passes: timed_walls.len() as u64,
            attempted: checker.attempted,
            failed: checker.failed(),
            metrics,
        },
        problems: checker.problems,
    }
}

/// The outcome of a `trace`.
pub struct TraceOutcome {
    /// The per-layer metrics.
    pub metrics: Metrics,
    /// Every span name's totals, for the printed table.
    pub table: Vec<(&'static str, LayerTime)>,
    /// The traced pass's wall clock, seconds.
    pub traced_wall: f64,
    /// Cells attempted / failed over the trace's passes.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// Failed checks (empty = correct).
    pub problems: Vec<String>,
}

fn cell_keys(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Sweep(m) => m.cells().iter().map(|c| c.key()).collect(),
        Plan::Service(m) => m.cells().iter().map(|c| c.key()).collect(),
    }
}

/// `trace` mode: one traced pass of `w` (spans + timing wrappers, the
/// simulator itself unprobed), one counting pass (`Metrics` probe on every
/// simulation), both required to reproduce the untraced digest. Writes the
/// Chrome trace to `trace_path`.
pub fn trace_workload(w: &Workload, target: &Target, trace_path: &Path) -> TraceOutcome {
    let mut checker = Checker::new(w.name);
    let plan = w.plan(target.size, target.seed);
    let warm = run_pass(&plan, 1);
    checker.check("warm-up", &warm.lines, warm.violations);
    let committed = FingerprintFile::load(&target.fingerprint_path).and_then(|mut file| {
        committed_fingerprint(w, target, FingerprintMode::Check, &mut file, &warm.lines)
    });
    if let Err(e) = committed {
        checker.fail_all(e);
    }

    let mut untraced = Vec::new();
    for _ in 0..3 {
        let pass = run_pass(&plan, 1);
        checker.check("untraced pass", &pass.lines, pass.violations);
        untraced.push(pass.timing.wall);
    }

    let mut log = SpanLog::recording();
    let traced = replay_pass(&plan, false, &mut log);
    checker.check("traced replay", &traced.lines, traced.violations);
    let spans = log.into_spans();
    let counted = replay_pass(&plan, true, &mut SpanLog::disabled());
    checker.check("counting replay", &counted.lines, counted.violations);
    let counts = counted.metrics.expect("the counting pass carries probes");

    let times = self_times(&spans);
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| times.get(n))
            .map(|l| l.self_ns as f64 / 1e9)
            .sum::<f64>()
            + 0.0 // an empty float sum is -0.0
    };
    let calls = |name: &str| times.get(name).map_or(0, |l| l.calls) as f64;
    let handler_calls = calls("protocols.handler");

    let mut metrics = Metrics::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(name.to_string(), Metric::single(unit, value));
    };
    put("core.classify.self_s", "s", self_s(&["core.classify"]));
    put("simnet.run.self_s", "s", self_s(&["simnet.run"]));
    put("simnet.build.self_s", "s", self_s(&["simnet.build"]));
    put("simnet.events", "count", counts.events as f64);
    put("simnet.deliveries", "count", counts.deliveries as f64);
    put("simnet.timer_fires", "count", counts.timer_fires as f64);
    put("simnet.messages", "count", counts.messages as f64);
    put("simnet.words", "count", counts.words as f64);
    put("simnet.dropped", "count", counts.dropped as f64);
    put("simnet.duplicated", "count", counts.duplicated as f64);
    put(
        "simnet.queue_high_water",
        "count",
        counts.queue_high_water as f64,
    );
    put(
        "simnet.slab_high_water",
        "count",
        counts.slab_high_water as f64,
    );
    put(
        "protocols.setup.self_s",
        "s",
        self_s(&["protocols.context", "protocols.machines"]),
    );
    put(
        "protocols.handler.self_s",
        "s",
        self_s(&["protocols.handler"]),
    );
    put("protocols.handler.calls", "count", handler_calls);
    put(
        "protocols.handler.ns_per_call",
        "ns",
        if handler_calls > 0.0 {
            self_s(&["protocols.handler"]) * 1e9 / handler_calls
        } else {
            0.0
        },
    );
    put(
        "adversary.instantiate.self_s",
        "s",
        self_s(&["adversary.instantiate"]),
    );
    put("adversary.hook.self_s", "s", self_s(&["adversary.hook"]));
    put("adversary.hook.calls", "count", calls("adversary.hook"));
    put(
        "adversary.equivocations",
        "count",
        traced.adversary_notes.0 as f64,
    );
    put(
        "adversary.omissions",
        "count",
        traced.adversary_notes.1 as f64,
    );
    put(
        "lab.execute.self_s",
        "s",
        self_s(&["lab.enumerate", "lab.cell", "lab.collect"]),
    );
    put("lab.aggregate.self_s", "s", self_s(&["lab.aggregate"]));
    put(
        "lab.emit.self_s",
        "s",
        self_s(&["lab.emit_json", "lab.emit_md"]),
    );
    put(
        "trace.overhead_ratio",
        "ratio",
        traced.wall / median(&untraced),
    );
    put(
        "trace.coverage",
        "ratio",
        root_coverage_ns(&spans) as f64 / 1e9 / traced.wall,
    );

    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_path, chrome_trace(&spans, &cell_keys(&plan))));
    if let Err(e) = written {
        checker
            .problems
            .push(format!("{}: {e}", trace_path.display()));
    }

    TraceOutcome {
        metrics,
        table: times.into_iter().collect(),
        traced_wall: traced.wall,
        attempted: checker.attempted,
        failed: checker.failed(),
        problems: checker.problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("validity-benchmark-{}-{name}", std::process::id()))
    }

    /// Digests are identical at 1 and `nproc` workers for every workload
    /// (at a reduced size), and across repeated passes.
    #[test]
    fn digests_do_not_depend_on_the_worker_count() {
        for w in &WORKLOADS {
            let plan = w.plan(Size::Tiny, 0);
            let one = Fingerprint::of(&run_pass(&plan, 1).lines);
            let pooled = run_pass(&plan, 0);
            assert_eq!(one.check(w.name, &pooled.lines), Ok(()), "{}", w.name);
            let four = run_pass(&plan, 4);
            assert_eq!(
                one.digest,
                Fingerprint::of(&four.lines).digest,
                "{}",
                w.name
            );
            assert!(four.lines.iter().all(|l| !l.failed), "{}", w.name);
            assert_eq!(four.violations, 0, "{}", w.name);
        }
    }

    #[test]
    fn run_records_then_checks_and_refuses_a_silent_overwrite() {
        let path = scratch("fingerprints.json");
        let _ = std::fs::remove_file(&path);
        let w = crate::workloads::find("classify_grid").unwrap();
        let mut cfg = RunConfig {
            target: Target {
                size: Size::Tiny,
                seed: 0,
                fingerprint_path: path.clone(),
            },
            measure: Measure::Passes(2),
            setups: 1,
            fingerprints: FingerprintMode::Check,
        };
        // Nothing committed yet: the check fails every cell.
        let out = run_workload(w, &cfg, Instant::now());
        assert_eq!(out.result.failed, out.result.attempted);
        assert!(out.problems[0].contains("--record"), "{:?}", out.problems);

        cfg.fingerprints = FingerprintMode::Record { force: false };
        let out = run_workload(w, &cfg, Instant::now());
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        cfg.fingerprints = FingerprintMode::Check;
        let out = run_workload(w, &cfg, Instant::now());
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.result.failed, 0);
        assert_eq!(out.result.passes, 2);
        // warm-up + nproc pass + two timed passes
        assert_eq!(out.result.attempted, 4 * out.result.cells);
        for name in [
            "setup_s",
            "cells_per_s",
            "floor_pass_s",
            "cell_ms_p50",
            "cell_ms_p95",
            "peak_rss_mb",
            "fail_ratio",
        ] {
            assert!(out.result.metrics.contains_key(name), "{name}");
        }

        // A different committed digest is a failure, and recording over
        // it needs --force.
        let mut file = FingerprintFile::load(&path).unwrap();
        let mut other = file.get("tiny", w.name).unwrap().clone();
        other.digest = "f".repeat(64);
        file.record("tiny", w.name, other, true).unwrap();
        file.save(&path).unwrap();
        let out = run_workload(w, &cfg, Instant::now());
        assert!(
            out.problems[0].contains("committed fingerprint"),
            "{:?}",
            out.problems
        );
        cfg.fingerprints = FingerprintMode::Record { force: false };
        let out = run_workload(w, &cfg, Instant::now());
        assert!(out.problems[0].contains("--force"), "{:?}", out.problems);
        cfg.fingerprints = FingerprintMode::Record { force: true };
        assert!(run_workload(w, &cfg, Instant::now()).problems.is_empty());

        // Off the fingerprinted seed the semantic checks still run, and
        // recording is refused.
        cfg.target.seed = 1;
        assert!(!run_workload(w, &cfg, Instant::now()).problems.is_empty());
        cfg.fingerprints = FingerprintMode::Check;
        assert!(run_workload(w, &cfg, Instant::now()).problems.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_reproduces_the_untraced_digest_and_accounts_for_its_wall() {
        let trace_path = scratch("trace.json");
        let w = crate::workloads::find("chaos_small").unwrap();
        // Seed 1: no committed fingerprint is needed off seed 0.
        let target = Target {
            size: Size::Tiny,
            seed: 1,
            fingerprint_path: scratch("trace-fingerprints.json"),
        };
        let out = trace_workload(w, &target, &trace_path);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        let m = &out.metrics;
        assert!(m["simnet.events"].value > 0.0);
        assert!(m["protocols.handler.calls"].value > 0.0);
        assert!(m["adversary.hook.calls"].value > 0.0);
        let coverage = m["trace.coverage"].value;
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(validity_lab::json::Json::parse(&text).is_ok());
        let _ = std::fs::remove_file(&trace_path);
    }
}
