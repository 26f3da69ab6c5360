//! The `lab` CLI: run scenario sweeps (whole or sharded), list the
//! registries, merge shard partials, diff reports, and emit / gate on the
//! CI bench-trend artifact.
//!
//! ```text
//! lab list [--names]
//! lab run --suite fig1 --threads 8 --json fig1.json --md fig1.md
//! lab service --threads 8 --json service.json --md service.md
//! lab service --slots 8 --pipelines 1,2,4 --batches 1,8 --seeds 0..4 --timing
//! lab crosscheck --threads 8 --json crosscheck.json --md crosscheck.md
//! lab crosscheck --seeds 0..4 --max-steps 5000000 --timing
//! lab run --suite universal --dry-run
//! lab run --suite quick --observe --timing
//! lab run --protocols universal/alg1-auth --validities strong --behaviors two-faced \
//!         --schedules partial-sync --systems 4,1 --faults max --seeds 0..1 --observe
//! lab run --suite complexity --shard 2/4 --json part2.json
//! lab run --suite complexity --adaptive --precision 0.05 --batch 2 --max-seeds 16
//! lab run --protocols universal/alg1-auth --validities strong,median \
//!         --behaviors silent,crash --schedules sync,partial-sync \
//!         --systems 4,1;7,2 --faults 0,max --seeds 0..8 \
//!         --fits messages,words --fit-axis n --max-steps 5000000
//! lab merge part1.json part2.json part3.json part4.json --json full.json
//! lab diff fig1.json other.json
//! lab trend --out BENCH_lab.json
//! lab trend --from-reports complexity.json,universal.json \
//!           --baseline BENCH_lab_baseline.json --out BENCH_lab.json
//! lab trend --update-baseline
//! ```

use std::collections::BTreeMap;
use std::ops::Range;
use std::process::ExitCode;

use validity_adversary::BehaviorId;
use validity_core::SystemParams;
use validity_lab::flags::{self, Command};
use validity_lab::json::{Fields, Json};
use validity_lab::trend::{compare, BenchArtifact, BenchSuite};
use validity_lab::{
    compare_emitted, hottest_by_events, merge, observe_json, observe_markdown, run_crosscheck,
    run_mutate, run_service, slowest_first_markdown, suites, timeline_for, timing_markdown,
    AgreementLevel, CrosscheckMatrix, Fate, FitAxis, FitMeasure, MutateMatrix, PartialReport,
    ProtocolAxis, SamplingSpec, ScenarioMatrix, ScheduleSpec, ServiceMatrix, ShardSpec,
    SweepEngine, ValiditySpec, CATALOGUED_EQUIVALENT, PARTIAL_SCHEMA, REPORT_SCHEMA,
};
use validity_protocols::{vector_registry, MutationOp};
use validity_simnet::Timeline;

/// What a subcommand hands back: its exit code, or a one-line diagnostic
/// `main` prints before exiting with failure.
type CmdResult = Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match strs.split_first() {
        Some((&"list", rest)) => {
            list(rest.contains(&"--names"));
            Ok(ExitCode::SUCCESS)
        }
        Some((&"run", rest)) => run(rest),
        Some((&"service", rest)) => service_cmd(rest),
        Some((&"crosscheck", rest)) => crosscheck_cmd(rest),
        Some((&"mutate", rest)) => mutate_cmd(rest),
        Some((&"merge", rest)) => merge_cmd(rest),
        Some((&"diff", rest)) => diff(rest),
        Some((&"trend", rest)) => trend(rest),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

const USAGE: &str = "\
    usage: lab <list | run | service | crosscheck | mutate | merge | diff | trend> ...\n\n\
    lab list [--names]\n\
    lab run --suite <name> [--threads N] [--json FILE] [--md FILE]\n\
    \x20        [--max-steps N] [--shard i/m] [--dry-run] [--timing] [--observe]\n\
    \x20        [--adaptive] [--precision X] [--batch N] [--max-seeds N]\n\
    lab run --protocols P,.. --validities V,.. --behaviors B,..\n\
    \x20        --schedules S,.. --systems n,t;n,t --faults 0,max --seeds a..b\n\
    \x20        [--fits messages,words,latency] [--fit-axis n|t|domain]\n\
    \x20        [--max-steps N] [--shard i/m] [--dry-run] [--timing] [--observe]\n\
    \x20        [--adaptive] [--precision X] [--batch N] [--max-seeds N]\n\
    lab service [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--slots N] [--pipelines 1,2,..] [--batches 1,8,..]\n\
    \x20        [--dry-run] [--timing]\n\
    lab crosscheck [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--max-steps N] [--chaos | --adaptive] [--dry-run] [--timing]\n\
    lab mutate [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--max-steps N] [--operators a,b,..] [--dry-run]\n\
    lab merge <partial.json>... [--json FILE] [--md FILE]\n\
    lab diff <a.json> <b.json>\n\
    lab trend [--suites a,b,.. | --from-reports a.json,b.json]\n\
    \x20        [--threads N] [--out FILE] [--baseline FILE] [--tolerance X]\n\
    \x20        [--update-baseline]";

fn list(names_only: bool) {
    if names_only {
        for name in suites::ALL {
            println!("{name}");
        }
        return;
    }
    println!("suites:");
    for name in suites::ALL {
        println!("  {name:12} {}", suites::describe(name).unwrap_or(""));
    }
    println!("\nprotocols (raw; prefix with 'universal/' to wrap in Algorithm 2):");
    for spec in vector_registry::<u64>() {
        println!("  {:14} {}", spec.name(), spec.complexity());
    }
    println!("\nvalidities:");
    for v in ValiditySpec::ALL {
        let runnable = if ValiditySpec::RUNNABLE.contains(&v) {
            "Λ available (runnable under Universal)"
        } else {
            "classification only"
        };
        println!("  {:18} {}", v.name(), runnable);
    }
    println!("\nbehaviors:");
    for b in BehaviorId::ALL {
        println!("  {:14} {}", b.name(), b.describe());
    }
    println!("\nmutation operators (for `lab mutate --operators`):");
    for op in MutationOp::ALL {
        println!("  {:22} {}", op.name(), op.describe());
    }
    println!("\nschedules:");
    for s in ScheduleSpec::ALL {
        println!("  {}", s.name());
    }
    println!("\nfit measures (for --fits):");
    for m in FitMeasure::ALL {
        println!("  {}", m.name());
    }
    println!("\nfit axes (for --fit-axis):");
    for a in FitAxis::ALL {
        println!("  {}", a.name());
    }
}

/// One subcommand's argv, validated against the flag table
/// ([`validity_lab::flags`]): every flag is known to the command, not refused
/// by it, given at most once, and followed by its value (never another
/// flag) when it takes one.
struct Args<'a> {
    given: Vec<(&'static str, &'a str)>,
    /// The bare arguments, for the commands that take them.
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Rejects misspelled, refused or repeated options instead of silently
    /// falling back to defaults (a sweep that quietly measures the wrong
    /// scenario is worse than an error).
    fn parse(command: Command, argv: &[&'a str]) -> Result<Args<'a>, String> {
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut positionals = Vec::new();
        let mut rest = argv.iter();
        while let Some(&arg) = rest.next() {
            if !arg.starts_with("--") {
                if !command.takes_positionals() {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                positionals.push(arg);
                continue;
            }
            let flag = flags::find(arg);
            if let Some(why) = flag.and_then(|f| f.refusal(command)) {
                return Err(format!(
                    "{arg} is not available with `{}`: {why}",
                    command.invocation()
                ));
            }
            let Some(flag) = flag.filter(|f| f.accepted.contains(&command)) else {
                let known: Vec<&str> = flags::accepted_by(command).map(|f| f.name).collect();
                return Err(format!(
                    "unknown option '{arg}'; known: {}",
                    known.join(" ")
                ));
            };
            if given.iter().any(|(name, _)| *name == flag.name) {
                return Err(format!("option '{arg}' given more than once"));
            }
            let value = if flag.takes_value {
                let value = *rest
                    .next()
                    .ok_or_else(|| format!("option '{arg}' wants a value"))?;
                // `--json --md` means a forgotten path, not a file named
                // `--md`: a value that is itself a flag is never a value.
                if flags::find(value).is_some() {
                    return Err(format!(
                        "option '{arg}' wants a value, got option '{value}'"
                    ));
                }
                value
            } else {
                ""
            };
            given.push((flag.name, value));
        }
        Ok(Args { given, positionals })
    }

    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| *value)
    }

    /// `--threads N` (default 0: one worker per core).
    fn threads(&self) -> Result<usize, String> {
        self.value("--threads").map_or(Ok(0), |n| {
            n.parse()
                .map_err(|_| "--threads wants a number".to_string())
        })
    }

    /// `--seeds a..b`. An empty or reversed range is refused: it would
    /// enumerate no cells, and a zero-cell report passes every gate
    /// vacuously.
    fn seeds(&self) -> Result<Option<Range<u64>>, String> {
        let Some(text) = self.value("--seeds") else {
            return Ok(None);
        };
        let range = text
            .split_once("..")
            .and_then(|(lo, hi)| Some(lo.parse::<u64>().ok()?..hi.parse::<u64>().ok()?))
            .ok_or_else(|| format!("bad seed range: '{text}' (want a..b)"))?;
        if range.is_empty() {
            return Err(format!(
                "--seeds {text} is an empty range: want a..b with a < b"
            ));
        }
        Ok(Some(range))
    }

    /// `--max-steps N`. Zero is refused: every run would be quarantined
    /// before its first event, and an all-quarantined sweep passes every
    /// gate vacuously.
    fn max_steps(&self) -> Result<Option<u64>, String> {
        self.value("--max-steps")
            .map(|n| match n.parse() {
                Ok(0) => Err("--max-steps 0 allows no event: want N ≥ 1".to_string()),
                Ok(n) => Ok(n),
                Err(_) => Err("--max-steps wants a number".to_string()),
            })
            .transpose()
    }

    /// `--tolerance X`. `f64::from_str` happily parses "nan"/"inf"; a NaN
    /// tolerance would silently disarm a gate (NaN comparisons are all
    /// false), so anything non-finite or negative is rejected up front.
    fn tolerance(&self) -> Result<Option<f64>, String> {
        self.value("--tolerance")
            .map(|x| {
                x.parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                    .ok_or_else(|| "--tolerance wants a finite non-negative number".to_string())
            })
            .transpose()
    }

    /// The `--json` / `--md` report paths, defaulting to `lab-<name>.*`.
    fn report_paths(&self, name: &str) -> (String, String) {
        let path = |flag, ext| {
            self.value(flag)
                .map_or_else(|| format!("lab-{name}.{ext}"), String::from)
        };
        (path("--json", "json"), path("--md", "md"))
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes a report's JSON and Markdown files and echoes the Markdown to
/// stdout — the shared tail of every report-emitting command.
fn write_reports(json_path: &str, json: &str, md_path: &str, markdown: &str) -> Result<(), String> {
    write_file(json_path, json)?;
    write_file(md_path, markdown)?;
    eprintln!("reports: {json_path}, {md_path}");
    print!("{markdown}");
    Ok(())
}

/// Exports a timeline as `BASE.jsonl` plus `BASE.trace.json` (Chrome
/// `chrome://tracing` / Perfetto format).
fn write_timeline(timeline: &Timeline, base: &str, label: &str) -> Result<(), String> {
    let jsonl_path = format!("{base}.jsonl");
    let trace_path = format!("{base}.trace.json");
    write_file(&jsonl_path, &timeline.to_jsonl())?;
    write_file(&trace_path, &timeline.to_chrome_trace())?;
    eprintln!("timeline ({label}): {jsonl_path}, {trace_path}");
    Ok(())
}

fn build_suite(name: &str) -> Result<ScenarioMatrix, String> {
    suites::build(name).ok_or_else(|| match name {
        "service" | "crosscheck" | "mutate" => format!("'{name}' is a driver: run `lab {name}`"),
        _ => format!("unknown suite '{name}'; see `lab list`"),
    })
}

fn parse_list<T>(
    text: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).ok_or_else(|| format!("unknown {what}: '{s}'")))
        .collect()
}

fn build_custom(args: &Args) -> Result<ScenarioMatrix, String> {
    let mut m = ScenarioMatrix::new("custom");
    m.protocols = parse_list(
        args.value("--protocols").unwrap_or("universal/alg1-auth"),
        "protocol",
        ProtocolAxis::parse,
    )?;
    m.validities = parse_list(
        args.value("--validities").unwrap_or("strong"),
        "validity",
        ValiditySpec::parse,
    )?;
    m.behaviors = args
        .value("--behaviors")
        .unwrap_or("silent")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(BehaviorId::parse_or_err)
        .collect::<Result<Vec<_>, _>>()?;
    m.schedules = args
        .value("--schedules")
        .unwrap_or("partial-sync")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(ScheduleSpec::parse_or_err)
        .collect::<Result<Vec<_>, _>>()?;
    m.faults = parse_list(
        args.value("--faults").unwrap_or("max"),
        "fault load",
        |s| match s {
            "max" => Some(usize::MAX),
            s => s.parse().ok(),
        },
    )?;
    m.systems = args
        .value("--systems")
        .unwrap_or("4,1;7,2")
        .split(';')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (n, t) = pair
                .split_once(',')
                .ok_or_else(|| format!("bad (n,t) pair: '{pair}'"))?;
            Ok((
                n.trim().parse().map_err(|_| format!("bad n: '{n}'"))?,
                t.trim().parse().map_err(|_| format!("bad t: '{t}'"))?,
            ))
        })
        .collect::<Result<Vec<(usize, usize)>, String>>()?;
    m.seeds = 0..4; // `--seeds` applies through `tune_grid`
    m.fit_measures = parse_list(
        args.value("--fits").unwrap_or(""),
        "fit measure",
        FitMeasure::parse,
    )?;
    refuse_vacuous(&m)?;
    Ok(m)
}

/// Refuses a custom matrix that enumerates no cell, naming the flag that
/// emptied it: a zero-cell sweep passes every gate vacuously.
fn refuse_vacuous(m: &ScenarioMatrix) -> Result<(), String> {
    if !m.run_templates().is_empty() {
        return Ok(());
    }
    let valid_system = |&(n, t): &(usize, usize)| SystemParams::new(n, t).is_ok();
    let (flag, why) = [
        ("--protocols", m.protocols.is_empty(), "lists nothing"),
        ("--validities", m.validities.is_empty(), "lists nothing"),
        ("--behaviors", m.behaviors.is_empty(), "lists nothing"),
        ("--faults", m.faults.is_empty(), "lists nothing"),
        ("--schedules", m.schedules.is_empty(), "lists nothing"),
        (
            "--systems",
            !m.systems.iter().any(valid_system),
            "lists no valid (n, t) pair (want 0 < t < n)",
        ),
    ]
    .into_iter()
    .find_map(|(flag, empty, why)| empty.then_some((flag, why)))
    .unwrap_or((
        "--validities",
        "lists no property with a closed-form Λ, which universal protocols need",
    ));
    Err(format!(
        "the custom matrix enumerates no cell: {flag} {why}"
    ))
}

/// Parses the adaptive-sampling flags: `--adaptive` enables the defaults,
/// and any of `--precision` / `--batch` / `--max-seeds` both enables and
/// overrides. `Ok(None)` = fixed-seed sweep.
fn parse_sampling(args: &Args) -> Result<Option<SamplingSpec>, String> {
    let precision = args.value("--precision");
    let batch = args.value("--batch");
    let max_seeds = args.value("--max-seeds");
    if !args.has("--adaptive") && precision.is_none() && batch.is_none() && max_seeds.is_none() {
        return Ok(None);
    }
    let mut spec = SamplingSpec::default();
    if let Some(p) = precision {
        spec.precision = p
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--precision wants a finite non-negative number, got '{p}'"))?;
    }
    if let Some(b) = batch {
        spec.batch = b
            .parse()
            .ok()
            .filter(|n: &u64| *n >= 1)
            .ok_or_else(|| format!("--batch wants a positive seed count, got '{b}'"))?;
    }
    if let Some(s) = max_seeds {
        spec.max_seeds = s
            .parse()
            .ok()
            .filter(|n: &u64| *n >= 1)
            .ok_or_else(|| format!("--max-seeds wants a positive seed count, got '{s}'"))?;
    }
    if spec.batch > spec.max_seeds {
        if batch.is_none() {
            // Only the cap was given: shrink the *default* batch to fit it
            // rather than erroring about a flag the user never passed.
            spec.batch = spec.max_seeds;
        } else {
            return Err(format!(
                "--batch {} exceeds --max-seeds {}: the pilot batch alone \
                 would blow the per-group seed cap",
                spec.batch, spec.max_seeds
            ));
        }
    }
    Ok(Some(spec))
}

fn run(rest: &[&str]) -> CmdResult {
    let command = if rest.contains(&"--suite") {
        Command::RunSuite
    } else {
        Command::Run
    };
    let args = Args::parse(command, rest)?;
    let threads = args.threads()?;
    let mut matrix = match args.value("--suite") {
        Some(name) => build_suite(name)?,
        None => build_custom(&args)?,
    };
    tune_grid(&args, &mut matrix)?;
    if let Some(name) = args.value("--fit-axis") {
        matrix.fit_axis = FitAxis::parse(name)
            .ok_or_else(|| format!("unknown fit axis '{name}'; see `lab list`"))?;
    }
    // A measure that cannot fit along the declared axis would silently
    // produce an empty fits section — a sweep that quietly measures
    // nothing is worse than an error.
    let incompatible: Vec<&str> = matrix
        .fit_measures
        .iter()
        .filter(|m| {
            if matrix.fit_axis == FitAxis::Domain {
                m.is_run_measure()
            } else {
                !m.is_run_measure()
            }
        })
        .map(|m| m.name())
        .collect();
    if !incompatible.is_empty() {
        return Err(format!(
            "fit measure(s) {} cannot fit along axis '{}': run measures \
             (messages/words/latency) pair with axes n and t, classify-cost \
             with axis domain",
            incompatible.join(", "),
            matrix.fit_axis,
        ));
    }
    if let Some(sampling) = parse_sampling(&args)? {
        if !matrix.fit_measures.iter().any(|m| m.is_run_measure()) {
            eprintln!(
                "warning: adaptive sampling with no run fit measure declared — \
                 there is nothing to estimate, so every group stops \
                 (vacuously stable) after its pilot batch; add --fits or \
                 pick a fit-bearing suite for precision-targeted sampling"
            );
        }
        matrix.sampling = Some(sampling);
    }
    // An explicit `--shard` always takes the partial-report path, even
    // for the degenerate 1/1 partition: a pipeline parameterized over the
    // shard count must get a mergeable partial at m = 1 too, not a full
    // report that `lab merge` then refuses.
    let shard = args.value("--shard").map(ShardSpec::parse).transpose()?;
    if args.has("--dry-run") {
        if let Some(spec) = matrix.sampling {
            let units = matrix.work_units();
            let owned = shard.map_or(units.len(), |s| matrix.shard_units(s).len());
            println!(
                "{}: adaptive over {} of {} work unit(s); batches of {} up to {} \
                 seed(s)/group at precision {} (axis {})",
                matrix.name,
                owned,
                units.len(),
                spec.batch,
                spec.max_seeds,
                spec.precision,
                matrix.fit_axis,
            );
        } else if let Some(shard) = shard {
            println!(
                "{}: shard {} owns {} of {} cells",
                matrix.name,
                shard,
                matrix.shard_cells(shard).len(),
                matrix.len(),
            );
        } else {
            println!(
                "{}: {} cells ({} fit measure(s), max_steps {})",
                matrix.name,
                matrix.len(),
                matrix.fit_measures.len(),
                matrix
                    .max_steps
                    .map_or("none".to_string(), |n| n.to_string()),
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let observing = args.has("--observe");
    if let Some(shard) = shard {
        if observing {
            return Err("--observe is not available with --shard: observations are \
                 per-process; run the whole matrix observed"
                .to_string());
        }
        return run_shard(&args, &matrix, shard, threads);
    }
    let engine = SweepEngine::new(threads).observe(observing);
    match matrix.sampling {
        Some(spec) => eprintln!(
            "sweep '{}': adaptive over {} work unit(s) (precision {}) on {} worker thread(s)...",
            matrix.name,
            matrix.work_units().len(),
            spec.precision,
            engine.threads()
        ),
        None => eprintln!(
            "sweep '{}': {} cells on {} worker thread(s)...",
            matrix.name,
            matrix.len(),
            engine.threads()
        ),
    }
    let (report, sweep) = engine.run(&matrix);
    eprintln!(
        "done in {:.3}s wall ({} cells, {} violations, {} quarantined, {} fit(s) out of band)",
        sweep.wall.as_secs_f64(),
        report.cells.len(),
        report.violations(),
        report.quarantined.len(),
        report.fits_out_of_band(),
    );
    if let Some(s) = &report.sampling {
        eprintln!(
            "adaptive sampling: {} seed(s) consumed over {} group(s), {} capped",
            s.seeds_consumed(),
            s.groups.len(),
            s.capped(),
        );
    }

    let (json_path, md_path) = args.report_paths(&matrix.name);
    // `--timing` and `--observe` append extra sections to the Markdown
    // output only. The JSON report and the default Markdown stay
    // byte-identical to plain runs — timing is nondeterministic, and even
    // the deterministic observe metrics must never leak into canonical
    // artifacts (their fingerprints cannot depend on instrumentation).
    let mut markdown = report.to_markdown();
    if args.has("--timing") {
        markdown.push('\n');
        markdown.push_str(&timing_markdown(&sweep.timings, matrix.sampling.is_some()));
    }
    if observing {
        markdown.push('\n');
        markdown.push_str(&observe_markdown(&sweep.observed));
        // Side artifacts: the full-histogram JSON, plus a timeline export
        // of the hottest observed unit (deterministic choice — events are
        // seeded, so reruns pick the same cell).
        let base = json_path.strip_suffix(".json").unwrap_or(&json_path);
        let observe_path = format!("{base}.observe.json");
        write_file(&observe_path, &observe_json(&matrix.name, &sweep.observed))?;
        eprintln!("observe artifact: {observe_path}");
        if let Some(hot) = hottest_by_events(&sweep.observed) {
            if let Some(timeline) = timeline_for(&matrix, &hot.label) {
                write_timeline(&timeline, &format!("{base}.timeline"), &hot.label)?;
            }
        }
    }
    write_reports(&json_path, &report.to_json(), &md_path, &markdown)?;
    Ok(ExitCode::SUCCESS)
}

/// `lab service`: run the repeated-consensus service suite and emit the
/// throughput/latency report. The report bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn service_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Service, rest)?;
    let threads = args.threads()?;
    let mut matrix = ServiceMatrix::suite();
    if let Some(seeds) = args.seeds()? {
        matrix.seeds = seeds;
    }
    if let Some(slots) = args.value("--slots") {
        matrix.slots = slots
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("--slots wants a positive slot count, got '{slots}'"))?;
    }
    for (flag, axis) in [
        ("--pipelines", &mut matrix.pipelines),
        ("--batches", &mut matrix.batches),
    ] {
        if let Some(text) = args.value(flag) {
            *axis = parse_list(text, "count", |s| s.parse::<u32>().ok().filter(|n| *n >= 1))
                .ok()
                .filter(|values| !values.is_empty())
                .ok_or_else(|| {
                    format!("{flag} wants a comma list of positive counts, got '{text}'")
                })?;
        }
    }
    if args.has("--dry-run") {
        println!(
            "{}: {} cells ({} slot(s) each; pipelines {:?}, batches {:?}, seeds {:?})",
            matrix.name,
            matrix.len(),
            matrix.slots,
            matrix.pipelines,
            matrix.batches,
            matrix.seeds,
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "service '{}': {} cells on {} worker thread(s)...",
        matrix.name,
        matrix.len(),
        SweepEngine::new(threads).threads(),
    );
    let (report, wall, timings) = run_service(&matrix, threads);
    eprintln!(
        "done in {:.3}s wall ({} cells, {} group(s), {} failure(s))",
        wall.as_secs_f64(),
        report.cells.len(),
        report.groups.len(),
        report.failures(),
    );
    let (json_path, md_path) = args.report_paths("service");
    let mut markdown = report.to_markdown();
    if args.has("--timing") {
        markdown.push('\n');
        markdown.push_str(&slowest_first_markdown(&timings));
    }
    write_reports(&json_path, &report.to_json(), &md_path, &markdown)?;
    if report.failures() > 0 {
        eprintln!("SERVICE FAILURE: {} run(s) failed", report.failures());
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `lab crosscheck`: run the differential cross-validation suite — every
/// registered engine plus the solvability classifier on identical cells —
/// grade agreement per cell, and cross-check the two report emitters
/// against each other. Exits non-zero on any DISAGREEMENT cell or emitter
/// round-trip mismatch. The report bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn crosscheck_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Crosscheck, rest)?;
    let threads = args.threads()?;
    // --chaos swaps in the faulty-network grid (every ScheduleSpec::CHAOS
    // schedule), --adaptive the observing-adversary grid; the default grid
    // keeps the committed fingerprint bytes.
    let mut matrix = match (args.has("--chaos"), args.has("--adaptive")) {
        (true, true) => {
            return Err(
                "--chaos and --adaptive select different grids; pick one per run".to_string(),
            )
        }
        (true, false) => CrosscheckMatrix::chaos(),
        (false, true) => CrosscheckMatrix::adaptive(),
        (false, false) => CrosscheckMatrix::suite(),
    };
    tune_grid(&args, &mut matrix.scenarios)?;
    if args.has("--dry-run") {
        println!(
            "{}: {} cells ({} engine column(s) + classifier; seeds {:?})",
            matrix.scenarios.name,
            matrix.len(),
            matrix.engines.len(),
            matrix.scenarios.seeds,
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "crosscheck '{}': {} cells × {} engine(s) on {} worker thread(s)...",
        matrix.scenarios.name,
        matrix.len(),
        matrix.engines.len(),
        SweepEngine::new(threads).threads(),
    );
    let (report, wall, timings) = run_crosscheck(&matrix, threads);
    let full = report.count(AgreementLevel::Full);
    let expected = report.count(AgreementLevel::ExpectedDivergence);
    let disagreements = report.disagreements();
    eprintln!(
        "done in {:.3}s wall ({} cells: {} full, {} expected-divergence, {} DISAGREEMENT)",
        wall.as_secs_f64(),
        report.cells.len(),
        full,
        expected,
        disagreements.len(),
    );
    let json = report.to_json();
    let mut markdown = report.to_markdown();
    // The emitters are columns of the oracle too: a drifting renderer
    // fails the gate just like a drifting engine.
    let emitter_mismatches = compare_emitted(&json, &markdown);
    if args.has("--timing") {
        markdown.push('\n');
        markdown.push_str(&slowest_first_markdown(&timings));
    }
    let (json_path, md_path) = args.report_paths("crosscheck");
    write_reports(&json_path, &json, &md_path, &markdown)?;
    let mut failed = false;
    if !emitter_mismatches.is_empty() {
        eprintln!(
            "CROSSCHECK FAILURE: JSON and Markdown emitters disagree ({} mismatch(es)):",
            emitter_mismatches.len()
        );
        for m in &emitter_mismatches {
            eprintln!("  {m}");
        }
        failed = true;
    }
    if !disagreements.is_empty() {
        eprintln!(
            "CROSSCHECK FAILURE: {} DISAGREEMENT cell(s):",
            disagreements.len()
        );
        for (key, finding) in &disagreements {
            eprintln!("  {key}: {finding}");
        }
        failed = true;
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Applies `--seeds` and `--max-steps`, where given, to a scenario grid.
fn tune_grid(args: &Args, grid: &mut ScenarioMatrix) -> Result<(), String> {
    if let Some(seeds) = args.seeds()? {
        grid.seeds = seeds;
    }
    grid.max_steps = args.max_steps()?.or(grid.max_steps);
    Ok(())
}

/// `lab mutate`: the fault-injection harness. Plants every mutation
/// operator into every registry engine, runs the crosscheck oracle plus
/// the validity checks over each `(engine × operator)` mutant next to the
/// clean columns, and emits the kill matrix. Exits non-zero when the gate
/// fails: a clean-baseline disagreement (false kill), an uncatalogued
/// survivor, or a stale catalogue entry. Bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn mutate_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Mutate, rest)?;
    let threads = args.threads()?;
    let mut matrix = MutateMatrix::suite();
    if let Some(ops) = args.value("--operators") {
        matrix.operators = ops
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                MutationOp::parse(s).ok_or_else(|| {
                    format!(
                        "unknown operator: '{s}' (valid: {})",
                        MutationOp::ALL.map(|o| o.name()).join(", ")
                    )
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if matrix.operators.is_empty() {
            return Err(format!(
                "--operators '{ops}' names no operator; see `lab list`"
            ));
        }
    }
    tune_grid(&args, &mut matrix.grid.scenarios)?;
    if args.has("--dry-run") {
        println!(
            "{}: {} cells × ({} engine(s) + {} mutant(s)) = {} runs (seeds {:?})",
            matrix.grid.scenarios.name,
            matrix.grid.len(),
            matrix.grid.engines.len(),
            matrix.mutants().len(),
            matrix.len(),
            matrix.grid.scenarios.seeds,
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "mutate '{}': {} cells × ({} engine(s) + {} mutant(s)) on {} worker thread(s)...",
        matrix.grid.scenarios.name,
        matrix.grid.len(),
        matrix.grid.engines.len(),
        matrix.mutants().len(),
        SweepEngine::new(threads).threads(),
    );
    let (report, wall) = run_mutate(&matrix, threads);
    eprintln!(
        "done in {:.3}s wall ({} mutant(s): {} killed, {} survived; {} baseline false kill(s))",
        wall.as_secs_f64(),
        report.fates.len(),
        report.killed(),
        report.fates.len() - report.killed(),
        report.false_kills.len(),
    );
    let mut kinds = BTreeMap::new();
    for f in &report.fates {
        if let Fate::Killed { evidence, .. } = &f.fate {
            let kind = evidence.kind().expect("a kill always breaks some property");
            *kinds.entry(kind).or_insert(0) += 1;
        }
    }
    let kinds: Vec<String> = kinds
        .iter()
        .map(|(kind, count)| format!("{count} {}", kind.label()))
        .collect();
    eprintln!("kills by kind: {}", kinds.join(", "));
    let (json_path, md_path) = args.report_paths("mutate");
    write_reports(
        &json_path,
        &report.to_json(),
        &md_path,
        &report.to_markdown(),
    )?;
    if let Err(e) = report.gate(CATALOGUED_EQUIVALENT) {
        eprintln!("MUTATE FAILURE: {e}");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `lab run --shard i/m`: execute one deterministic slice of the matrix
/// and write a partial report for `lab merge` to recombine. Partials are
/// machine-facing merge inputs, so only JSON is emitted (`--md` is
/// rejected rather than silently ignored).
fn run_shard(args: &Args, matrix: &ScenarioMatrix, shard: ShardSpec, threads: usize) -> CmdResult {
    if args.has("--md") {
        return Err("--md is not available with --shard: merge the partials first".to_string());
    }
    let engine = SweepEngine::new(threads);
    match matrix.sampling {
        Some(_) => eprintln!(
            "sweep '{}' shard {}: adaptive over {} of {} work unit(s) on {} worker thread(s)...",
            matrix.name,
            shard,
            matrix.shard_units(shard).len(),
            matrix.work_units().len(),
            engine.threads()
        ),
        None => eprintln!(
            "sweep '{}' shard {}: {} of {} cells on {} worker thread(s)...",
            matrix.name,
            shard,
            matrix.shard_cells(shard).len(),
            matrix.len(),
            engine.threads()
        ),
    }
    let sweep = engine.execute_shard(matrix, shard);
    let partial = PartialReport::new(
        matrix.clone(),
        shard,
        sweep.wall.as_secs_f64(),
        sweep.records,
    );
    eprintln!(
        "done in {:.3}s wall ({} cells)",
        partial.wall_seconds,
        partial.records.len(),
    );
    let json_path = args.value("--json").map_or_else(
        || {
            format!(
                "lab-{}-shard{}of{}.json",
                matrix.name, shard.index, shard.count
            )
        },
        String::from,
    );
    write_file(&json_path, &partial.to_json())?;
    eprintln!("partial report: {json_path}");
    Ok(ExitCode::SUCCESS)
}

/// `lab merge`: recombine all `m` partials of a sharded sweep into the
/// full report — byte-identical to what a single unsharded process would
/// have written.
fn merge_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Merge, rest)?;
    if args.positionals.is_empty() {
        return Err("usage: lab merge <partial.json>... [--json FILE] [--md FILE]".to_string());
    }
    let partials = args
        .positionals
        .iter()
        .map(|path| PartialReport::parse(&read_file(path)?).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<PartialReport>, String>>()?;
    let (report, matrix) = merge(&partials).map_err(|e| format!("merge failed: {e}"))?;
    eprintln!(
        "merged {} partial(s): {} cells, {} violations, {} quarantined, {} fit(s) out of band",
        partials.len(),
        report.cells.len(),
        report.violations(),
        report.quarantined.len(),
        report.fits_out_of_band(),
    );
    let (json_path, md_path) = args.report_paths(&matrix.name);
    write_reports(
        &json_path,
        &report.to_json(),
        &md_path,
        &report.to_markdown(),
    )?;
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Json, String> {
    Json::parse(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Refuses to read anything that is not a same-generation full report: a
/// partial (sharded) report would diff as a wall of spurious only-in-one
/// cells, and a future schema generation could differ in ways the cell
/// comparison does not see. Both get a clear error instead, and so does
/// a document with no schema tag at all.
fn check_diffable<'a>(path: &str, v: &'a Json) -> Result<Fields<'a>, String> {
    if v.schema_tag() == Some(PARTIAL_SCHEMA) {
        return Err(format!(
            "{path} is a partial (sharded) report: run `lab merge` on all \
             shards first, then diff the merged report"
        ));
    }
    Fields::tagged(v, REPORT_SCHEMA, "lab report").map_err(|e| format!("{path}: {e}"))
}

fn diff(rest: &[&str]) -> CmdResult {
    let [a_path, b_path] = rest else {
        return Err("usage: lab diff <a.json> <b.json>".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    // Two *full* reports from different schema generations mismatch each
    // other — say so directly (naming both tags) before the per-file check
    // reduces it to "unknown schema" on whichever side is foreign.
    if let (Some(ta), Some(tb)) = (a.schema_tag(), b.schema_tag()) {
        let full = |t: &str| t.starts_with("validity-lab/report@");
        if ta != tb && full(ta) && full(tb) {
            return Err(format!(
                "schema-version mismatch: {a_path} is '{ta}' but {b_path} is '{tb}': \
                 reports from different schema generations cannot be diffed — \
                 regenerate both with one lab version"
            ));
        }
    }
    // Index both reports by cell key once; the comparison is then linear.
    // Cells that cannot be told apart would collapse in the index and
    // compare as fewer cells than the files hold, so they are refused.
    type Index<'a> = std::collections::BTreeMap<&'a str, &'a Json>;
    fn keyed_cells<'a>(path: &str, v: &'a Json) -> Result<(Vec<&'a str>, Index<'a>), String> {
        let cells = check_diffable(path, v)?
            .objs("cells")
            .map_err(|e| format!("{path}: {e}"))?;
        let (mut order, mut index) = (Vec::with_capacity(cells.len()), Index::new());
        for cell in &cells {
            let key: &str = cell.get("key").map_err(|e| format!("{path}: {e}"))?;
            if index.insert(key, cell.json()).is_some() {
                return Err(format!("{path}: two cells share the key '{key}'"));
            }
            order.push(key);
        }
        Ok((order, index))
    }
    let ((order_a, index_a), (order_b, index_b)) =
        (keyed_cells(a_path, &a)?, keyed_cells(b_path, &b)?);
    let mut differences = 0usize;
    for key in &order_a {
        match index_b.get(key) {
            None => {
                println!("- {key}: only in {a_path}");
                differences += 1;
            }
            Some(cell_b) if index_a[key] != *cell_b => {
                println!("~ {key}: differs");
                differences += 1;
            }
            Some(_) => {}
        }
    }
    for key in &order_b {
        if !index_a.contains_key(key) {
            println!("+ {key}: only in {b_path}");
            differences += 1;
        }
    }
    Ok(if differences == 0 {
        println!(
            "identical: {} cells match across {a_path} and {b_path}",
            order_a.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("{differences} difference(s)");
        ExitCode::from(1)
    })
}

/// `lab trend`: assemble the bench-trend artifact — by sweeping fit-bearing
/// suites (default: the four complexity-family suites
/// `complexity,universal,nonauth,subcubic`) or from already-merged full
/// reports (`--from-reports`) — write it to `--out`, and gate:
///
/// * always: fail if any fitted exponent left its declared band or any
///   cell misbehaved (violations / quarantine);
/// * with `--baseline FILE`: additionally diff the fresh artifact against
///   the historical one and fail on regressions (exponent drift beyond
///   `--tolerance`, band escapes, vanished fit groups) — CI gates on
///   history, not just static bands.
///
/// Wall time is deliberately kept *out* of `lab run` reports (they are
/// byte-deterministic); the trend artifact is the one place it belongs.
/// Artifacts assembled with `--from-reports` carry `wall_seconds: null`.
fn trend(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Trend, rest)?;
    let threads = args.threads()?;
    let tolerance = args.tolerance()?.unwrap_or(0.25);
    let out_path = args.value("--out").unwrap_or("BENCH_lab.json");

    let artifact = match args.value("--from-reports") {
        Some(_) if args.has("--suites") => {
            return Err("--from-reports and --suites are mutually exclusive".to_string());
        }
        Some(paths) => {
            let mut suites_out = Vec::new();
            for path in paths.split(',').filter(|s| !s.is_empty()) {
                let v = load(path)?;
                let s = BenchSuite::from_report_json(&check_diffable(path, &v)?)
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "trend: report '{path}' ({} = {} cells, {} fit rows)",
                    s.suite,
                    s.cells,
                    s.fits.len()
                );
                suites_out.push(s);
            }
            if suites_out.is_empty() {
                return Err("--from-reports wants at least one report file".to_string());
            }
            BenchArtifact { suites: suites_out }
        }
        None => {
            let names = args
                .value("--suites")
                .unwrap_or("complexity,universal,nonauth,subcubic")
                .split(',')
                .filter(|s| !s.is_empty());
            let engine = SweepEngine::new(threads);
            let mut suites_out = Vec::new();
            for name in names {
                let matrix = build_suite(name)?;
                eprintln!("trend: sweeping '{name}' ({} cells)...", matrix.len());
                let (report, sweep) = engine.run(&matrix);
                for f in &report.fits {
                    eprintln!(
                        "  {} {}: exponent {} (band {})",
                        f.key,
                        f.measure,
                        f.fit
                            .map_or("unfittable".to_string(), |p| format!("{:.3}", p.exponent)),
                        match f.band {
                            Some((lo, hi)) => format!("[{lo}, {hi}]"),
                            None => "-".to_string(),
                        },
                    );
                }
                suites_out.push(BenchSuite::from_sweep(
                    name,
                    &report,
                    Some(sweep.wall.as_secs_f64()),
                ));
            }
            BenchArtifact { suites: suites_out }
        }
    };

    write_file(out_path, &artifact.to_json())?;
    eprintln!("trend artifact: {out_path}");

    let mut failed = false;
    let out_of_band: u64 = artifact
        .suites
        .iter()
        .flat_map(|s| &s.fits)
        .filter(|f| f.within_band == Some(false))
        .count() as u64;
    let violations: u64 = artifact.suites.iter().map(|s| s.violations).sum();
    if out_of_band > 0 || violations > 0 {
        eprintln!(
            "TREND FAILURE: {out_of_band} fitted exponent(s) out of band, \
             {violations} violation(s)"
        );
        failed = true;
    }
    if args.has("--update-baseline") {
        // Regenerate the committed baseline in place (same deterministic
        // schema tag and key order, so the diff is reviewable) instead of
        // comparing against it — the workflow after an *intentional* perf
        // change. A sweep that fails its own bands must not become
        // history.
        let baseline_path = args
            .value("--baseline")
            .unwrap_or("ci/BENCH_lab_baseline.json");
        if failed {
            eprintln!("baseline NOT updated: the sweep fails its own gates");
            return Ok(ExitCode::from(1));
        }
        write_file(baseline_path, &artifact.to_json())?;
        eprintln!("baseline updated: {baseline_path}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(baseline_path) = args.value("--baseline") {
        let baseline = BenchArtifact::parse(&read_file(baseline_path)?)
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        let diff = compare(&artifact, &baseline, tolerance);
        print!("{}", diff.render_markdown());
        if diff.regressions() > 0 {
            eprintln!(
                "TREND FAILURE: {} regression(s) vs baseline {baseline_path}",
                diff.regressions()
            );
            failed = true;
        }
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
