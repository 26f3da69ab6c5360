//! The `lab` CLI's flag surface, end to end. Pinned here:
//!
//! 1. **One door per driver.** `lab service`, `lab crosscheck` and
//!    `lab mutate` are the only way to run a driver: `lab run --suite`
//!    takes sweep suites only, and `lab list --names` prints exactly
//!    those.
//! 2. **The flag table is the behaviour.** Every `(command, flag)` pair of
//!    [`validity_lab::flags::FLAGS`] is driven through the real binary:
//!    accepted flags pass validation, refused flags are refused with the
//!    flag named, everything else is an unknown option. Nothing is
//!    mirrored by hand — the test walks the table the binary validates
//!    against. The adaptive-sampling flags are unknown to `lab run`, and
//!    `--chaos` / `--adaptive` to `lab crosscheck`, which runs one fixed
//!    grid; every sweep runs in one process: `--shard` and
//!    `--from-reports` are unknown options and `lab merge` is no command;
//!    a fit's axis follows from its measure and the lab reports no wall
//!    clock, so `--fit-axis` and `--timing` are unknown options too.
//!    Declared bands are the only complexity contract, so `trend` is no
//!    subcommand.
//! 3. **No vacuous grids.** A built-in suite refuses the custom-axis
//!    flags it would otherwise ignore; a custom matrix that enumerates no
//!    cell or would drop a value it was given (an invalid `(n, t)` pair,
//!    a `Λ`-less property, a property no protocol reads), a classifier-cost fit on a grid without classification cells,
//!    an empty operator list, an empty or reversed `--seeds` range and a
//!    zero `--max-steps` budget are errors that name the flag; and so are
//!    a repeated flag, a repeated operator, a flag sitting where another
//!    flag's value belongs, and one file named for both reports. `lab
//!    list` takes nothing but `--names`.
//! 4. **A sweep fails on its own findings.** `lab run` writes both
//!    reports and then exits 1 when they record a violation or an
//!    out-of-band fit.

use std::process::{Command as Process, Output};

use validity_lab::flags::{Command, FLAGS};
use validity_lab::suites;

fn lab(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .output()
        .expect("spawn lab binary")
}

/// Runs `lab` in an empty directory of its own and counts the files the
/// run left there.
fn lab_in_empty_dir(args: &[&str]) -> (Output, usize) {
    let name = args.join("_").replace('/', "_");
    let dir = std::env::temp_dir().join(format!("lab-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Process::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn lab binary");
    let written = std::fs::read_dir(&dir).unwrap().count();
    std::fs::remove_dir_all(&dir).unwrap();
    (out, written)
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The argv prefix that reaches `command`'s flag surface.
fn spelling(command: Command) -> Vec<&'static str> {
    match command {
        Command::Run => vec!["run"],
        Command::RunSuite => vec!["run", "--suite", "quick"],
        Command::Service => vec!["service"],
        Command::Crosscheck => vec!["crosscheck"],
        Command::Mutate => vec!["mutate"],
    }
}

#[test]
fn every_command_flag_pair_behaves_as_the_table_says() {
    for command in Command::ALL {
        let prefix = spelling(command);
        for flag in FLAGS {
            if prefix.contains(&flag.name) {
                continue; // the spelling itself already exercises it
            }
            // Validation is one left-to-right pass, so a trailing stray
            // positional turns "this flag passed validation" into a
            // prompt, side-effect-free exit for every command — even the
            // ones with no --dry-run.
            let mut args = prefix.clone();
            args.push(flag.name);
            if flag.takes_value {
                args.push("0");
            }
            args.push("stray");
            let out = lab(&args);
            let err = stderr(&out);
            assert!(!out.status.success(), "{args:?} must not succeed");
            let want = if let Some(why) = flag.refusal(command) {
                format!(
                    "{} is not available with `{}`: {why}",
                    flag.name,
                    command.invocation()
                )
            } else if !flag.accepted.contains(&command) {
                format!("unknown option '{}'", flag.name)
            } else {
                "unexpected argument 'stray'".to_string()
            };
            assert!(err.contains(&want), "{args:?}: want `{want}`, got: {err}");
        }
    }
}

#[test]
fn each_driver_has_one_door() {
    for driver in ["service", "crosscheck", "mutate"] {
        let direct = lab(&[driver, "--dry-run"]);
        assert!(direct.status.success(), "{}", stderr(&direct));
        assert!(stdout(&direct).contains(" cells "), "{}", stdout(&direct));
        // `lab run --suite <driver>` used to run the driver too.
        let out = lab(&["run", "--suite", driver, "--dry-run"]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let want = format!("'{driver}' is a driver: run `lab {driver}`");
        assert!(stderr(&out).contains(&want), "{}", stderr(&out));
    }
    let names = lab(&["list", "--names"]);
    assert!(names.status.success(), "{}", stderr(&names));
    assert_eq!(stdout(&names).lines().collect::<Vec<_>>(), suites::ALL);
}

#[test]
fn lab_run_refuses_the_sampling_flags_as_unknown_options() {
    // Every sweep runs its fixed seed range: none of these selects a
    // seed policy any more, so each is refused by name under either
    // spelling of `lab run`.
    for prefix in [spelling(Command::Run), spelling(Command::RunSuite)] {
        for flag in [
            &["--adaptive"][..],
            &["--precision", "0.05"],
            &["--batch", "2"],
            &["--max-seeds", "16"],
        ] {
            let mut args = prefix.clone();
            args.extend_from_slice(flag);
            args.push("--dry-run");
            let out = lab(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
            let want = format!("unknown option '{}'", flag[0]);
            assert!(stderr(&out).contains(&want), "{args:?}: {}", stderr(&out));
        }
    }
}

#[test]
fn lab_crosscheck_refuses_the_grid_switches_as_unknown_options() {
    // `lab crosscheck` runs one fixed grid: the faulty-network and
    // adaptive-adversary questions are the `netchaos` and `adaptive`
    // sweep suites, so neither switch selects a grid any more.
    for flag in ["--chaos", "--adaptive"] {
        let args = ["crosscheck", flag];
        let (out, written) = lab_in_empty_dir(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a file");
        let want = format!("unknown option '{flag}'");
        assert!(stderr(&out).contains(&want), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn every_sweep_runs_in_one_process() {
    // `lab run --shard i/m` wrote a partial report and `lab merge`
    // recombined partials: both are gone, refused by name.
    let args = ["run", "--suite", "quick", "--shard", "1/2"];
    let out = lab(&args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    let err = stderr(&out);
    assert!(err.contains("unknown option '--shard'"), "{args:?}: {err}");
    // `lab merge` is gone, and so is `trend`, which held the fitted
    // exponents to a committed baseline: the suites' bands hold them now.
    for args in [
        &["merge", "a.json"][..],
        &["trend"],
        &["trend", "--suites", "complexity"],
    ] {
        let (out, written) = lab_in_empty_dir(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a file");
        let usage = stderr(&out);
        let first = usage.lines().next().unwrap_or("");
        assert!(first.starts_with("usage: lab <"), "{args:?}: {usage}");
        assert!(!first.contains(args[0]), "{args:?}: {usage}");
    }
}

#[test]
fn a_sweep_that_records_a_violation_exits_1_after_writing_both_reports() {
    // A one-event budget quarantines 16 of quick's 18 cells; this used
    // to exit 0, and only the retired trend gate failed on it.
    let dir = std::env::temp_dir().join(format!("lab-cli-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (json, md) = (dir.join("q.json"), dir.join("q.md"));
    let out = lab(&[
        "run",
        "--suite",
        "quick",
        "--max-steps",
        "1",
        "--json",
        json.to_str().unwrap(),
        "--md",
        md.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = std::fs::read_to_string(&json).expect("the JSON report is written");
    assert!(report.contains("\"quarantined\": [\""), "{report}");
    let markdown = std::fs::read_to_string(&md).expect("the Markdown report is written");
    assert_eq!(stdout(&out), markdown);
    let err = stderr(&out);
    assert!(
        err.contains("SWEEP FAILURE: 16 violation(s) (16 quarantined), 0 fit(s) out of band"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_fit_axis_and_timing_knobs_are_unknown_options() {
    // `--fit-axis t` used to exit 0 with every fit row unfittable and
    // every band disarmed; `--timing` appended wall clock to a report.
    for (args, want) in [
        (
            &["run", "--suite", "complexity", "--fit-axis", "t"][..],
            "unknown option '--fit-axis'",
        ),
        (
            &["run", "--suite", "quick", "--timing"],
            "unknown option '--timing'",
        ),
    ] {
        let (out, written) = lab_in_empty_dir(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a report");
        assert!(stderr(&out).contains(want), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn a_classifier_cost_fit_on_a_custom_grid_is_refused() {
    // With `--fit-axis domain` this used to exit 0 with an empty `fits`
    // array: a custom grid has no classification cell to fit.
    for tail in [&["--dry-run"][..], &[][..]] {
        let mut args = vec!["run", "--fits", "classify-cost"];
        args.extend(tail);
        let (out, written) = lab_in_empty_dir(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a report");
        let err = stderr(&out);
        assert!(
            err.contains("--fits classify-cost: a custom grid has no classification cells"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn a_custom_matrix_with_no_cell_is_refused_by_the_flag_that_emptied_it() {
    // Each used to print `custom: 0 cells` and exit 0.
    for (axis, why) in [
        (["--validities", ","], "--validities lists nothing"),
        (
            ["--validities", "parity"],
            "--validities lists no property with a closed-form Λ",
        ),
        (["--systems", ";"], "--systems lists no valid (n, t) pair"),
        (["--systems", "3,3"], "--systems lists no valid (n, t) pair"),
        (["--protocols", ","], "--protocols lists nothing"),
        (["--behaviors", ","], "--behaviors lists nothing"),
        (["--faults", ","], "--faults lists nothing"),
        (["--schedules", ","], "--schedules lists nothing"),
    ] {
        for tail in [&["--dry-run"][..], &[][..]] {
            let mut args = vec!["run", axis[0], axis[1]];
            args.extend(tail);
            let (out, written) = lab_in_empty_dir(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            assert_eq!(written, 0, "{args:?} wrote a report");
            let err = stderr(&out);
            assert!(err.contains(why), "{args:?} must name the flag; got: {err}");
        }
    }
    // The boundary the check must not move: a raw protocol ignores the
    // validity axis, so an empty one still leaves cells.
    let out = lab(&[
        "run",
        "--protocols",
        "alg1-auth",
        "--validities",
        ",",
        "--dry-run",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).starts_with("custom: 8 cells"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn a_custom_matrix_refuses_each_value_it_would_drop() {
    // Each used to exit 0 and run what was left of the request.
    for (axes, why) in [
        (
            &["--systems", "4,1;2,3"][..],
            "--systems '2,3' is no valid (n, t) pair",
        ),
        (
            &["--systems", "4,1;4,0"][..],
            "--systems '4,0' is no valid (n, t) pair",
        ),
        (
            &[
                "--protocols",
                "universal/alg1-auth",
                "--validities",
                "strong,parity",
            ][..],
            "--validities 'parity' has no closed-form Λ",
        ),
        (
            &["--protocols", "alg1-auth", "--validities", "median"][..],
            "--validities 'median' applies to no protocol",
        ),
    ] {
        for tail in [&["--dry-run"][..], &[][..]] {
            let mut args = vec!["run"];
            args.extend(axes);
            args.extend(tail);
            let (out, written) = lab_in_empty_dir(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            assert_eq!(written, 0, "{args:?} wrote a report");
            let err = stderr(&out);
            assert!(
                err.contains(why),
                "{args:?} must name the value; got: {err}"
            );
        }
    }
    // The boundary: raw protocols with `--validities` left at its default
    // still run.
    let out = lab(&["run", "--protocols", "alg1-auth", "--dry-run"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).starts_with("custom: 8 cells"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn an_empty_operator_list_is_refused() {
    // Used to run "0 mutant(s): 0 killed" and exit 0.
    for tail in [&["--dry-run"][..], &[][..]] {
        let mut args = vec!["mutate", "--operators", ","];
        args.extend(tail);
        let (out, written) = lab_in_empty_dir(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a report");
        let err = stderr(&out);
        assert!(
            err.contains("--operators ',' names no operator"),
            "{args:?} must name the flag; got: {err}"
        );
    }
    let out = lab(&["mutate", "--operators", "shift-proposal", "--dry-run"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn a_repeated_operator_is_refused_by_name() {
    // Used to run "6 mutant(s)", writing every `alg*+shift-proposal` fate
    // twice and two identical kill-matrix columns.
    for ops in [
        "shift-proposal,shift-proposal",
        "shift-proposal,stale-echo,shift-proposal",
    ] {
        for tail in [&["--dry-run"][..], &[][..]] {
            let mut args = vec!["mutate", "--operators", ops];
            args.extend(tail);
            let (out, written) = lab_in_empty_dir(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            assert_eq!(written, 0, "{args:?} wrote a report");
            let err = stderr(&out);
            assert!(
                err.contains("--operators names 'shift-proposal' twice"),
                "{args:?} must name the operator; got: {err}"
            );
        }
    }
}

#[test]
fn lab_list_takes_nothing_but_names() {
    // `lab list --nmaes` and `lab list bogus` used to print the whole
    // listing and exit 0.
    for args in [
        &["list", "--nmaes"][..],
        &["list", "bogus"],
        &["list", "--names", "--names"],
    ] {
        let out = lab(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a listing");
        let err = stderr(&out);
        assert!(
            err.contains("usage: lab list [--names]"),
            "{args:?} must print the usage line; got: {err}"
        );
    }
    let out = lab(&["list"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("mutation operators"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn a_built_in_suite_refuses_the_custom_axis_flags_it_would_ignore() {
    let bare = lab(&["run", "--suite", "quick", "--dry-run"]);
    assert!(bare.status.success(), "{}", stderr(&bare));
    assert!(
        stdout(&bare).starts_with("quick: 18 cells"),
        "{}",
        stdout(&bare)
    );
    // Used to print the same `quick: 18 cells`, both flags silently dropped.
    let out = lab(&[
        "run",
        "--suite",
        "quick",
        "--protocols",
        "alg3-nonauth",
        "--systems",
        "4,1",
        "--dry-run",
    ]);
    assert!(!out.status.success(), "suite + custom axes was accepted");
    assert!(
        stderr(&out).contains("--protocols is not available with `lab run --suite`"),
        "{}",
        stderr(&out)
    );
    // Flags that tune a suite run without redefining it still work.
    let tuned = lab(&["run", "--suite", "quick", "--max-steps", "9", "--dry-run"]);
    assert!(tuned.status.success(), "{}", stderr(&tuned));
    assert!(stdout(&tuned).contains("max_steps 9"), "{}", stdout(&tuned));
}

#[test]
fn empty_or_reversed_seed_ranges_are_refused_by_every_driver() {
    for prefix in ["run", "service", "crosscheck", "mutate"].map(|c| vec![c]) {
        for seeds in ["2..2", "3..1"] {
            let mut args = prefix.clone();
            args.extend(["--seeds", seeds, "--dry-run"]);
            let out = lab(&args);
            assert!(!out.status.success(), "{args:?} enumerated an empty grid");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("--seeds {seeds} is an empty range")),
                "{args:?} must name the flag; got: {err}"
            );
        }
        // The boundary the check must not move: one seed is a valid range.
        let mut args = prefix.clone();
        args.extend(["--seeds", "2..3", "--dry-run"]);
        let out = lab(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn a_zero_step_budget_is_refused_by_every_driver() {
    // `--max-steps 0` quarantines every run before its first event, and
    // crosscheck used to pass that grid vacuously (exit 0, "full": 0).
    // `lab mutate` takes no `--max-steps` (the flag table refuses it).
    for prefix in [vec!["run", "--suite", "quick"], vec!["crosscheck"]] {
        let mut args = prefix.clone();
        args.extend(["--max-steps", "0", "--dry-run"]);
        let out = lab(&args);
        assert!(!out.status.success(), "{args:?} accepted a zero budget");
        let err = stderr(&out);
        assert!(
            err.contains("--max-steps 0"),
            "{args:?} must name the flag; got: {err}"
        );
        // The boundary the check must not move: one step is a budget.
        let mut args = prefix.clone();
        args.extend(["--max-steps", "1", "--dry-run"]);
        let out = lab(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
    let out = lab(&["crosscheck", "--max-steps", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn a_thread_count_past_the_ceiling_is_refused_by_every_driver() {
    // A pool starts one OS thread per worker, up to one per cell. Every
    // command parses `--threads` before `--dry-run` returns, so even a
    // broken refusal starts no thread here.
    for prefix in [
        vec!["run", "--suite", "quick"],
        vec!["service"],
        vec!["crosscheck"],
        vec!["mutate"],
    ] {
        let mut args = prefix.clone();
        args.extend(["--threads", "257", "--dry-run"]);
        let out = lab(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted 257 threads");
        let err = stderr(&out);
        assert!(
            err.contains("--threads 257") && err.contains("256"),
            "{args:?} must name the flag and its ceiling; got: {err}"
        );
        let mut args = prefix.clone();
        args.extend(["--threads", "256", "--dry-run"]);
        let out = lab(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn a_repeated_flag_is_refused_instead_of_taking_the_first() {
    for (flag, args) in [
        (
            "--seeds",
            vec![
                "crosscheck",
                "--seeds",
                "0..1",
                "--seeds",
                "0..9",
                "--dry-run",
            ],
        ),
        ("--dry-run", vec!["service", "--dry-run", "--dry-run"]),
        (
            "--threads",
            vec!["run", "--threads", "1", "--threads", "2", "--dry-run"],
        ),
    ] {
        let out = lab(&args);
        assert!(!out.status.success(), "{args:?} must be refused");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("option '{flag}' given more than once")),
            "{args:?} must name the repeated flag; got: {err}"
        );
    }
}

#[test]
fn a_flag_is_never_taken_as_another_flags_value() {
    let dir = std::env::temp_dir().join(format!("lab-flag-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (flag, got, args) in [
        // Used to exit 0 and write the JSON report to a file named `--md`.
        (
            "--json",
            "--md",
            vec!["run", "--suite", "quick", "--json", "--md"],
        ),
        ("--md", "--dry-run", vec!["service", "--md", "--dry-run"]),
        (
            "--operators",
            "--dry-run",
            vec!["mutate", "--operators", "--dry-run"],
        ),
    ] {
        let out = Process::new(env!("CARGO_BIN_EXE_lab"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn lab binary");
        assert_eq!(out.status.code(), Some(1), "{args:?} must be refused");
        let err = stderr(&out);
        assert!(
            err.contains(&format!(
                "option '{flag}' wants a value, got option '{got}'"
            )),
            "{args:?} must name both flags; got: {err}"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{args:?} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_file_for_both_reports_is_refused_by_every_report_command() {
    // `run --suite quick --json x --md x` used to exit 0, print "reports:
    // x, x" and leave only the Markdown in `x`: the JSON report was lost.
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["run", "--suite", "quick", "--json", "x", "--md", "x"],
        vec!["run", "--suite", "quick", "--json", "x", "--md", "./x"],
    ];
    for prefix in [
        &["run", "--suite", "quick"][..],
        &["service"],
        &["crosscheck"],
        &["mutate"],
    ] {
        cases.push([prefix, &["--dry-run", "--json", "x", "--md", "x"]].concat());
    }
    for args in cases {
        let (out, written) = lab_in_empty_dir(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(written, 0, "{args:?} wrote a report");
        let err = stderr(&out);
        assert!(
            err.contains("--json and --md both name 'x'"),
            "{args:?} must name both flags; got: {err}"
        );
    }
    // Two files side by side are two files.
    let (out, written) =
        lab_in_empty_dir(&["run", "--suite", "quick", "--json", "x", "--md", "./y"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(written, 2);
}
