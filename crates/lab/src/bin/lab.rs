//! The `lab` CLI: run scenario sweeps and the drivers, list the
//! registries, diff reports. Every sweep runs in one process, and every
//! command that writes a report exits 1 when the report records a failure.
//!
//! ```text
//! lab list [--names]
//! lab run --suite fig1 --threads 8 --json fig1.json --md fig1.md
//! lab service --threads 8 --json service.json --md service.md
//! lab service --slots 8 --pipelines 1,2,4 --batches 1,8 --seeds 0..4
//! lab crosscheck --threads 8 --json crosscheck.json --md crosscheck.md
//! lab crosscheck --seeds 0..4 --max-steps 5000000
//! lab run --suite universal --dry-run
//! lab run --suite quick --observe
//! lab run --protocols universal/alg1-auth --validities strong --behaviors two-faced \
//!         --schedules partial-sync --systems 4,1 --faults max --seeds 0..1 --observe
//! lab run --protocols universal/alg1-auth --validities strong,median \
//!         --behaviors silent,crash --schedules sync,partial-sync \
//!         --systems 4,1;7,2 --faults 0,max --seeds 0..8 \
//!         --fits messages,words --max-steps 5000000
//! lab diff fig1.json other.json
//! ```

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use validity_adversary::BehaviorId;
use validity_core::SystemParams;
use validity_lab::flags::{self, Command};
use validity_lab::json::{Fields, Json};
use validity_lab::{
    compare_emitted, hottest_by_events, observe_json, observe_markdown, run_crosscheck, run_mutate,
    run_service, suites, timeline_for, AgreementLevel, CrosscheckMatrix, Fate, FitMeasure,
    MutateMatrix, MutationOp, ProtocolAxis, ScenarioMatrix, ScheduleSpec, ServiceMatrix,
    SweepEngine, ValiditySpec, REPORT_SCHEMA,
};
use validity_protocols::vector_registry;

/// The most worker threads `--threads` may ask for.
const MAX_THREADS: usize = 256;

/// What a subcommand hands back: its exit code, or a one-line diagnostic
/// `main` prints before exiting with failure.
type CmdResult = Result<ExitCode, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match strs.split_first() {
        Some((&"list", rest)) => match rest {
            [] | ["--names"] => {
                list(!rest.is_empty());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("usage: lab list [--names]".to_string()),
        },
        Some((&"run", rest)) => run(rest),
        Some((&"service", rest)) => service_cmd(rest),
        Some((&"crosscheck", rest)) => crosscheck_cmd(rest),
        Some((&"mutate", rest)) => mutate_cmd(rest),
        Some((&"diff", rest)) => diff(rest),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

const USAGE: &str = "\
    usage: lab <list | run | service | crosscheck | mutate | diff> ...\n\n\
    lab list [--names]\n\
    lab run --suite <name> [--threads N] [--json FILE] [--md FILE]\n\
    \x20        [--max-steps N] [--dry-run] [--observe]\n\
    lab run --protocols P,.. --validities V,.. --behaviors B,..\n\
    \x20        --schedules S,.. --systems n,t;n,t --faults 0,max --seeds a..b\n\
    \x20        [--fits messages,words,latency] [--max-steps N] [--dry-run] [--observe]\n\
    lab service [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--slots N] [--pipelines 1,2,..] [--batches 1,8,..] [--dry-run]\n\
    lab crosscheck [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--max-steps N] [--dry-run]\n\
    lab mutate [--threads N] [--json FILE] [--md FILE] [--seeds a..b]\n\
    \x20        [--operators a,b,..] [--dry-run]\n\
    lab diff <a.json> <b.json>";

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
    println!("\nfit measures (for --fits), each fitted along its own axis:");
    for m in FitMeasure::ALL {
        println!("  {:14} {}", m.name(), m.axis());
    }
}

/// One subcommand's argv, validated against the flag table
/// ([`validity_lab::flags`]): every flag is known to the command, not refused
/// by it, given at most once, and followed by its value (never another
/// flag) when it takes one.
struct Args<'a> {
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Rejects misspelled, refused or repeated options instead of silently
    /// falling back to defaults (a sweep that quietly measures the wrong
    /// scenario is worse than an error).
    fn parse(command: Command, argv: &[&'a str]) -> Result<Args<'a>, String> {
        let mut given: Vec<(&'static str, &'a str)> = Vec::new();
        let mut rest = argv.iter();
        while let Some(&arg) = rest.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument '{arg}'"));
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
        Ok(Args { given })
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

    /// `--threads N` (default 0: one worker per core), at most
    /// [`MAX_THREADS`]: a pool starts one OS thread per worker.
    fn threads(&self) -> Result<usize, String> {
        let Some(text) = self.value("--threads") else {
            return Ok(0);
        };
        let threads: usize = text
            .parse()
            .map_err(|_| "--threads wants a number".to_string())?;
        if threads > MAX_THREADS {
            return Err(format!(
                "--threads {threads} is above the ceiling of {MAX_THREADS} worker threads"
            ));
        }
        Ok(threads)
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

    /// The `--json` / `--md` report paths, defaulting to `lab-<name>.*`.
    /// One file for both is refused, however it is spelt: the Markdown
    /// would overwrite the JSON.
    fn report_paths(&self, name: &str) -> Result<(String, String), String> {
        let path = |flag, ext| {
            self.value(flag)
                .map_or_else(|| format!("lab-{name}.{ext}"), String::from)
        };
        let (json, md) = (path("--json", "json"), path("--md", "md"));
        if json == md || resolved(&json).is_some_and(|j| Some(j) == resolved(&md)) {
            return Err(format!(
                "--json and --md both name '{json}': one file cannot hold both reports"
            ));
        }
        Ok((json, md))
    }
}

/// The file `path` names, its directory resolved, so that `x`, `./x` and
/// an absolute spelling compare equal; `None` when the directory does not
/// exist (writing there fails by name anyway).
fn resolved(path: &str) -> Option<PathBuf> {
    let path = Path::new(path);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    Some(
        dir.unwrap_or(Path::new("."))
            .canonicalize()
            .ok()?
            .join(path.file_name()?),
    )
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
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

/// The side artifacts `run --observe` writes beside the `--json` report
/// `<base>.json`: `<base>.observe.json`, plus the hottest cell's timeline
/// as `<base>.timeline.jsonl` and `<base>.timeline.trace.json` (Chrome
/// `chrome://tracing` / Perfetto format). Refused when one of them is the
/// `--md` file, however it is spelt: the Markdown would overwrite it.
fn observe_paths(json: &str, md: &str) -> Result<[String; 3], String> {
    let base = json.strip_suffix(".json").unwrap_or(json);
    let paths = ["observe.json", "timeline.jsonl", "timeline.trace.json"]
        .map(|ext| format!("{base}.{ext}"));
    let md_file = resolved(md);
    match paths
        .iter()
        .find(|p| *p == md || md_file.is_some() && resolved(p) == md_file)
    {
        Some(clash) => Err(format!(
            "--md names '{md}', which --observe writes as '{clash}' (from --json '{json}'): \
             one file cannot hold both"
        )),
        None => Ok(paths),
    }
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
    if m.fit_measures.contains(&FitMeasure::ClassifyCost) {
        return Err(
            "--fits classify-cost: a custom grid has no classification cells to fit \
             (the classifier-domain suite fits them)"
                .to_string(),
        );
    }
    refuse_vacuous(&m)?;
    refuse_dropped(&m, args.has("--validities"))?;
    Ok(m)
}

/// Refuses a value the custom matrix would drop from the request while
/// other values still leave cells, naming the flag and the value: an
/// invalid `(n, t)` pair, a property without a closed-form `Λ` next to a
/// `universal/` protocol, and any property named (`validities_named`)
/// when no protocol is `universal/`, since raw cells grade Vector
/// Validity whatever `--validities` says.
fn refuse_dropped(m: &ScenarioMatrix, validities_named: bool) -> Result<(), String> {
    if let Some((n, t)) = m
        .systems
        .iter()
        .find(|&&(n, t)| SystemParams::new(n, t).is_err())
    {
        return Err(format!(
            "--systems '{n},{t}' is no valid (n, t) pair (want 0 < t < n)"
        ));
    }
    let universal = m.protocols.iter().any(|p| p.universal);
    let dropped = if universal {
        m.validities
            .iter()
            .find(|v| !ValiditySpec::RUNNABLE.contains(v))
            .map(|v| {
                format!("--validities '{v}' has no closed-form Λ, which universal protocols need")
            })
    } else {
        m.validities.first().filter(|_| validities_named).map(|v| {
            format!(
                "--validities '{v}' applies to no protocol: raw cells grade \
                     Vector Validity, and only universal/ protocols read a property"
            )
        })
    };
    dropped.map_or(Ok(()), Err)
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
    let (json_path, md_path) = args.report_paths(&matrix.name)?;
    let observing = args.has("--observe");
    let side_paths = observing
        .then(|| observe_paths(&json_path, &md_path))
        .transpose()?;
    if args.has("--dry-run") {
        println!(
            "{}: {} cells ({} fit measure(s), max_steps {})",
            matrix.name,
            matrix.len(),
            matrix.fit_measures.len(),
            matrix
                .max_steps
                .map_or("none".to_string(), |n| n.to_string()),
        );
        return Ok(ExitCode::SUCCESS);
    }
    let engine = SweepEngine::new(threads).observe(observing);
    eprintln!(
        "sweep '{}': {} cells on {} worker thread(s)...",
        matrix.name,
        matrix.len(),
        engine.threads()
    );
    let (report, observed) = engine.run(&matrix);
    eprintln!(
        "done ({} cells, {} violations, {} quarantined, {} fit(s) out of band)",
        report.cells.len(),
        report.violations(),
        report.quarantined.len(),
        report.fits_out_of_band(),
    );

    // `--observe` appends a section to the Markdown output only. The JSON
    // report and the default Markdown stay byte-identical to plain runs:
    // even deterministic observe metrics must never leak into canonical
    // artifacts (their fingerprints cannot depend on instrumentation).
    let mut markdown = report.to_markdown();
    if let Some([observe_path, jsonl_path, trace_path]) = side_paths {
        markdown.push('\n');
        markdown.push_str(&observe_markdown(&observed));
        // Side artifacts: the full-histogram JSON, plus a timeline export
        // of the hottest observed cell (deterministic choice — events are
        // seeded, so reruns pick the same cell).
        write_file(&observe_path, &observe_json(&matrix.name, &observed))?;
        eprintln!("observe artifact: {observe_path}");
        if let Some(hot) = hottest_by_events(&observed) {
            if let Some(timeline) = timeline_for(&matrix, &hot.label) {
                write_file(&jsonl_path, &timeline.to_jsonl())?;
                write_file(&trace_path, &timeline.to_chrome_trace())?;
                eprintln!("timeline ({}): {jsonl_path}, {trace_path}", hot.label);
            }
        }
    }
    write_reports(&json_path, &report.to_json(), &md_path, &markdown)?;
    let (violations, out_of_band) = (report.violations(), report.fits_out_of_band());
    if violations + out_of_band > 0 {
        eprintln!(
            "SWEEP FAILURE: {violations} violation(s) ({} quarantined), \
             {out_of_band} fit(s) out of band",
            report.quarantined.len()
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// `lab service`: run the repeated-consensus service suite and emit the
/// throughput/latency report. The report bytes are deterministic and
/// thread-count independent, like every other lab artifact.
fn service_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Service, rest)?;
    let threads = args.threads()?;
    let (json_path, md_path) = args.report_paths("service")?;
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
    let (report, ..) = run_service(&matrix, threads);
    eprintln!(
        "done ({} cells, {} group(s), {} failure(s))",
        report.cells.len(),
        report.groups.len(),
        report.failures(),
    );
    write_reports(
        &json_path,
        &report.to_json(),
        &md_path,
        &report.to_markdown(),
    )?;
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
    let (json_path, md_path) = args.report_paths("crosscheck")?;
    let mut matrix = CrosscheckMatrix::suite();
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
    let report = run_crosscheck(&matrix, threads);
    let full = report.count(AgreementLevel::Full);
    let expected = report.count(AgreementLevel::ExpectedDivergence);
    let disagreements = report.disagreements();
    eprintln!(
        "done ({} cells: {} full, {} expected-divergence, {} DISAGREEMENT)",
        report.cells.len(),
        full,
        expected,
        disagreements.len(),
    );
    let json = report.to_json();
    let markdown = report.to_markdown();
    // The emitters are columns of the oracle too: a drifting renderer
    // fails the gate just like a drifting engine.
    let emitter_mismatches = compare_emitted(&json, &markdown);
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
/// fails: a clean-baseline disagreement (false kill) or any surviving
/// mutant. Bytes are deterministic and thread-count independent, like
/// every other lab artifact.
fn mutate_cmd(rest: &[&str]) -> CmdResult {
    let args = Args::parse(Command::Mutate, rest)?;
    let threads = args.threads()?;
    let (json_path, md_path) = args.report_paths("mutate")?;
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
        for (i, op) in matrix.operators.iter().enumerate() {
            if matrix.operators[..i].contains(op) {
                return Err(format!("--operators names '{op}' twice"));
            }
        }
    }
    tune_grid(&args, &mut matrix.grid.scenarios)?;
    if args.has("--dry-run") {
        println!(
            "{}: {} cells × ({} engine(s) + {} mutant(s)) = at most {} runs (seeds {:?})",
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
    let report = run_mutate(&matrix, threads);
    eprintln!(
        "done ({} mutant(s): {} killed, {} survived; {} baseline false kill(s))",
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
    write_reports(
        &json_path,
        &report.to_json(),
        &md_path,
        &report.to_markdown(),
    )?;
    if let Err(e) = report.gate() {
        eprintln!("MUTATE FAILURE: {e}");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
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
    // Anything but a same-generation full report (a partial, a future
    // schema, an untagged document) is refused by its schema tag, and
    // cells that cannot be told apart would collapse in the index and
    // compare as fewer cells than the files hold, so they are refused too.
    type Index<'a> = std::collections::BTreeMap<&'a str, &'a Json>;
    fn keyed_cells<'a>(path: &str, v: &'a Json) -> Result<(Vec<&'a str>, Index<'a>), String> {
        let cells = Fields::tagged(v, REPORT_SCHEMA, "lab report")
            .and_then(|report| report.objs("cells"))
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
