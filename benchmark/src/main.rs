//! The repo's benchmark: six lab workloads measured end to end (`run`),
//! each layer's public calls timed on fixed inputs (`layers`), and one
//! traced replay per workload for per-layer self times (`trace`). `all`
//! runs the three for every workload and writes one result set; `compare`
//! judges two sets against the benchmark's own bounds. See `README.md`.
//!
//! The harness drives the system only through the crates' public
//! functions and times them from outside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod fingerprint;
mod layers;
mod measure;
mod pipeline;
mod replay;
mod results;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use compare::END_TO_END;
use fingerprint::FingerprintFile;
use measure::{FingerprintMode, Measure, RunConfig, Target};
use results::{Metric, Metrics, ResultSet};
use workloads::{Size, Workload, WORKLOADS};

const USAGE: &str = "\
usage: validity-benchmark <mode> [flags]

modes:
  all                       run, layers and trace for every workload, each
                            workload in its own process; writes one result set
  run     --workload W      end-to-end metrics of one workload (tracing off)
  layers                    fixed-input timing of each layer's public calls
  trace   --workload W      one traced pass: per-layer self times and counts,
                            Chrome trace in benchmark/out/trace-W.json
  compare A.json B.json     apply the end-to-end bounds to two result sets

flags:
  --seed S                  shift every workload's seed axis to S..S+k (default 0)
  --smoke                   reduced ladders, 1 warm-up + 2 passes
  --seconds T               run: set-ups and timed passes until the run is T
                            seconds old; layers: total time budget
  --out F                   where to write the result set
                            (all: default benchmark/out/results.json)
  --runs R                  all: measure every workload R times, round-robin,
                            and pool the runs (default 1); compare judges
                            run-to-run spread from pooled sets
  --record [--force]        run/all: write the warm-up pass's fingerprint to
                            fingerprints.json instead of checking it; refuses
                            to replace a different one without --force

the driver's form (BENCHMARK.json):
  validity-benchmark --workload W --seed S --seconds T --trace 0|1
";

/// Parsed command line.
#[derive(Default)]
struct Args {
    mode: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    smoke: bool,
    seconds: Option<f64>,
    out: Option<PathBuf>,
    runs: Option<usize>,
    record: bool,
    force: bool,
    trace: Option<bool>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
                // The seed axes are `seed..seed + k` for small k.
                if args.seed > u64::MAX - 64 {
                    return Err(format!("--seed '{v}' leaves no room for a seed axis"));
                }
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds '{v}'"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (want 0 or 1)")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--runs" => {
                let v = value("--runs")?;
                let runs: usize = v.parse().map_err(|_| format!("bad --runs '{v}'"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
                args.runs = Some(runs);
            }
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            "--force" => args.force = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            word if args.mode.is_none() && args.positional.is_empty() && args.trace.is_none() => {
                args.mode = Some(word.to_string());
            }
            word => args.positional.push(word.to_string()),
        }
    }
    if args.force && !args.record {
        return Err("--force only applies to --record".into());
    }
    Ok(args)
}

impl Args {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        workloads::find(name).ok_or_else(|| {
            format!(
                "unknown workload '{name}' (valid: {})",
                WORKLOADS.map(|w| w.name).join(", ")
            )
        })
    }

    fn target(&self) -> Target {
        Target {
            size: self.size(),
            seed: self.seed,
            fingerprint_path: FingerprintFile::default_path(),
        }
    }

    fn run_config(&self) -> RunConfig {
        RunConfig {
            target: self.target(),
            measure: match (self.seconds, self.smoke) {
                (Some(s), _) => Measure::Seconds(s),
                (None, true) => Measure::Passes(2),
                (None, false) => Measure::Passes(9),
            },
            setups: if self.smoke { 1 } else { 5 },
            fingerprints: if self.record {
                FingerprintMode::Record { force: self.force }
            } else {
                FingerprintMode::Check
            },
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_metric(name: &str, m: &Metric, note: &str) {
    println!("{name:<38} {:>16.6} {:<8}{note}", m.value, m.unit);
}

fn print_problems(problems: &[String]) {
    for p in problems {
        eprintln!("FAILED CHECK: {p}");
    }
}

/// `run`: prints the workload's end-to-end metrics; returns its result
/// set and whether every check passed.
fn mode_run(args: &Args, process_start: Instant) -> Result<(ResultSet, bool), String> {
    let w = args.workload()?;
    let cfg = args.run_config();
    let out = measure::run_workload(w, &cfg, process_start);
    let r = &out.result;
    println!(
        "# run {} (seed {}, {}): {} cells, {} events, {} evals per pass; {} timed passes at 1 \
         worker; digest {}",
        w.name,
        args.seed,
        args.size().tag(),
        r.cells,
        r.events,
        r.evals,
        r.passes,
        &r.digest[..16],
    );
    println!("# why: {}", w.why);
    if !w.gated {
        println!("# not listed in BENCHMARK.json: measured by `all`, judged by `compare`");
    }
    let p = &out.phases;
    println!(
        "# median phase walls: enumerate {:.6} s, execute {:.6} s, aggregate {:.6} s, emit JSON \
         {:.6} s, emit Markdown {:.6} s ({} bytes emitted)",
        p.enumerate, p.execute, p.aggregate, p.emit_json, p.emit_md, out.emitted_bytes
    );
    let (typical, (q1, q3)) = out.typical_pass;
    println!(
        "# typical timed pass: median {typical:.6} s, quartiles [{q1:.6}, {q3:.6}] over {} passes \
         ({:.1} cells/s); fastest pass {:.6} s — for reading; the metrics below are noise floors",
        r.passes,
        r.cells as f64 / typical,
        out.best_pass
    );
    for spec in &END_TO_END {
        print_metric(
            &format!("{}.{}", w.name, spec.name),
            &r.metrics[spec.name],
            "",
        );
    }
    println!(
        "{}: {} of {} cells failed a check",
        w.name, r.failed, r.attempted
    );
    print_problems(&out.problems);
    let mut set = ResultSet::new(args.seed, args.size().tag());
    let correct = out.problems.is_empty();
    set.workloads.insert(w.name.to_string(), out.result);
    Ok((set, correct))
}

fn layer_metrics(budget: Duration) -> Metrics {
    println!(
        "# layers: fixed inputs, best of N within {:.1} s in total (lab.pool.speedup: median \
         of N alternating pairs)",
        budget.as_secs_f64()
    );
    layers::run_layers(budget)
        .into_iter()
        .map(|m| {
            let metric = Metric::single(m.unit, m.value);
            print_metric(m.name, &metric, &format!("N = {}", m.samples));
            (m.name.to_string(), metric)
        })
        .collect()
}

/// `layers`: prints and returns the fixed-input layer metrics.
fn mode_layers(args: &Args) -> ResultSet {
    let default = if args.smoke { 3.0 } else { 12.0 };
    let budget = Duration::from_secs_f64(args.seconds.unwrap_or(default));
    let mut set = ResultSet::new(args.seed, args.size().tag());
    set.layers = layer_metrics(budget);
    set
}

/// `trace`: prints the self-time table and the traced per-layer metrics.
fn mode_trace(args: &Args) -> Result<(ResultSet, bool, u64, u64), String> {
    let w = args.workload()?;
    let trace_path = out_dir().join(format!("trace-{}.json", w.name));
    let out = measure::trace_workload(w, &args.target(), &trace_path);
    println!(
        "# trace {} (seed {}, {}): traced pass {:.3} s; spans in {}",
        w.name,
        args.seed,
        args.size().tag(),
        out.traced_wall,
        trace_path.display()
    );
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "span", "self s", "total s", "calls"
    );
    for (name, t) in &out.table {
        println!(
            "{name:<26} {:>12.6} {:>12.6} {:>12}",
            t.self_ns as f64 / 1e9,
            t.total_ns as f64 / 1e9,
            t.calls
        );
    }
    for (name, m) in &out.metrics {
        print_metric(&format!("{}.{name}", w.name), m, "");
    }
    print_problems(&out.problems);
    let mut set = ResultSet::new(args.seed, args.size().tag());
    set.trace.insert(w.name.to_string(), out.metrics);
    Ok((set, out.problems.is_empty(), out.attempted, out.failed))
}

fn save(set: &ResultSet, args: &Args) -> Result<(), String> {
    match &args.out {
        Some(path) => set.save(path),
        None => Ok(()),
    }
}

/// Runs this binary again as a child with `child_args`, its result set
/// going to `part`. The child's exit status is awaited before returning.
fn child(child_args: &[String], part: &Path) -> Result<(ResultSet, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(child_args)
        .arg("--out")
        .arg(part)
        .status()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let set = ResultSet::load(part)?;
    let _ = std::fs::remove_file(part);
    Ok((set, status.success()))
}

/// `all`: every workload's `run` and `trace` in its own process (so
/// `peak_rss_mb` is per workload), plus `layers`; one merged result set.
fn mode_all(args: &Args) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut common = vec!["--seed".to_string(), args.seed.to_string()];
    if args.smoke {
        common.push("--smoke".into());
    }
    let mut set = ResultSet::new(args.seed, args.size().tag());
    let mut correct = true;
    let mut step = |mode: &str, workload: Option<&str>, extra: &[&str]| -> Result<(), String> {
        let mut child_args = vec![mode.to_string()];
        if let Some(w) = workload {
            child_args.extend(["--workload".to_string(), w.to_string()]);
        }
        child_args.extend(common.iter().cloned());
        child_args.extend(extra.iter().map(|s| s.to_string()));
        let part = dir.join(format!("part-{mode}-{}.json", workload.unwrap_or("all")));
        let (part_set, ok) = child(&child_args, &part)?;
        correct &= ok;
        set.absorb(part_set)
    };
    let mut record: Vec<&str> = Vec::new();
    if args.record {
        record.push("--record");
    }
    if args.force {
        record.push("--force");
    }
    // Round-robin, so the pooled runs of a workload are spread over the
    // whole session rather than sharing one noisy minute.
    for _ in 0..args.runs.unwrap_or(1) {
        for w in &WORKLOADS {
            step("run", Some(w.name), &record)?;
        }
    }
    step("layers", None, &[])?;
    for w in &WORKLOADS {
        step("trace", Some(w.name), &[])?;
    }
    let path = args.out.clone().unwrap_or_else(|| dir.join("results.json"));
    set.save(&path)?;
    println!("# result set written to {}", path.display());
    Ok(correct)
}

fn mode_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let comparison = compare::compare(
        &ResultSet::load(Path::new(a))?,
        &ResultSet::load(Path::new(b))?,
    );
    print!("{}", comparison.text);
    if comparison.unresolved > 0 {
        println!(
            "unresolved rows have a spread wider than their bound: neither \"unchanged\" nor \
             \"regressed\" can be claimed for them from these sets"
        );
    }
    Ok(comparison.passes())
}

/// The driver's form: one workload, `--trace 0` → every end-to-end
/// metric, `--trace 1` → every per-layer metric; the last line of stdout
/// is the result object.
fn mode_driver(args: &Args, traced: bool, process_start: Instant) -> Result<bool, String> {
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let (metrics, correct, attempted, failed) = if traced {
        // Half the time goes to the layers; the traced workload takes its
        // handful of passes (6 to 13 s of them).
        let mut metrics = layer_metrics(Duration::from_secs_f64(seconds * 0.5));
        let (set, correct, attempted, failed) = mode_trace(args)?;
        metrics.extend(set.trace.into_values().flatten());
        (metrics, correct, attempted, failed)
    } else {
        let (set, correct) = mode_run(args, process_start)?;
        let result = set
            .workloads
            .into_values()
            .next()
            .expect("run measured one workload");
        let mut metrics = result.metrics;
        // Reported through `failed` / `attempted` below instead.
        metrics.remove("fail_ratio");
        (metrics, correct, result.attempted, result.failed)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                validity_lab::report::json_str(name),
                results::json_number(m.value),
                validity_lab::report::json_str(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn run(argv: &[String], process_start: Instant) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if let Some(traced) = args.trace {
        if args.mode.is_some() {
            return Err("--trace is the driver's form and takes no mode".into());
        }
        return mode_driver(&args, traced, process_start);
    }
    match args.mode.as_deref() {
        Some("all") => mode_all(&args),
        Some("run") => {
            let (set, correct) = mode_run(&args, process_start)?;
            save(&set, &args)?;
            Ok(correct)
        }
        Some("layers") => save(&mode_layers(&args), &args).map(|()| true),
        Some("trace") => {
            let (set, correct, ..) = mode_trace(&args)?;
            save(&set, &args)?;
            Ok(correct)
        }
        Some("compare") => mode_compare(&args),
        Some(other) => Err(format!("unknown mode '{other}'\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
