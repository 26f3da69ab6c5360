//! CLI parity of the suite synonym paths, and the flag table end to end.
//!
//! `lab run --suite service` delegates to the service driver,
//! `lab run --suite crosscheck` to the crosscheck driver and
//! `lab run --suite mutate` to the mutate driver, each with its argv
//! intact — so the synonym and the direct subcommand must behave
//! identically. Pinned here:
//!
//! 1. **Dry-run parity.** `lab run --suite <x> --dry-run` and
//!    `lab <x> --dry-run` print the same cell count (byte-identical
//!    stdout). A count that differs between the two spellings would mean
//!    the synonym path silently runs a different grid.
//! 2. **The flag table is the behaviour.** Every `(command, flag)` pair of
//!    [`validity_lab::flags::FLAGS`] is driven through the real binary, on
//!    every spelling of the command: accepted flags pass validation,
//!    refused flags are refused with the flag named, everything else is an
//!    unknown option. Nothing is mirrored by hand — the test walks the
//!    table the binary validates against.
//! 3. **No vacuous grids.** A built-in suite refuses the custom-axis
//!    flags it would otherwise ignore, an empty or reversed `--seeds`
//!    range is an error on every driver, and so are a repeated flag and a
//!    flag sitting where another flag's value belongs.

use std::process::{Command as Process, Output};

use validity_lab::flags::{Command, FLAGS};

fn lab(args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .output()
        .expect("spawn lab binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every argv prefix that reaches `command`'s flag surface.
fn spellings(command: Command) -> Vec<Vec<&'static str>> {
    match command {
        Command::Run => vec![vec!["run"]],
        Command::RunSuite => vec![vec!["run", "--suite", "quick"]],
        Command::Service => vec![vec!["service"], vec!["run", "--suite", "service"]],
        Command::Crosscheck => vec![vec!["crosscheck"], vec!["run", "--suite", "crosscheck"]],
        Command::Mutate => vec![vec!["mutate"], vec!["run", "--suite", "mutate"]],
        Command::Profile => vec![vec!["profile"]],
        Command::Trend => vec![vec!["trend"]],
        Command::Merge => vec![vec!["merge"]],
    }
}

#[test]
fn every_command_flag_pair_behaves_as_the_table_says() {
    for command in Command::ALL {
        for prefix in spellings(command) {
            for flag in FLAGS {
                if prefix.contains(&flag.name) {
                    continue; // the spelling itself already exercises it
                }
                // Validation is one left-to-right pass, so a trailing stray
                // positional turns "this flag passed validation" into a
                // prompt, side-effect-free exit for every command — even
                // the ones with no --dry-run. `lab merge` takes positionals:
                // there the stray is a partial that does not exist.
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
                } else if command.takes_positionals() {
                    "cannot read stray".to_string()
                } else {
                    "unexpected argument 'stray'".to_string()
                };
                assert!(err.contains(&want), "{args:?}: want `{want}`, got: {err}");
            }
        }
    }
}

#[test]
fn dry_run_counts_match_across_spellings() {
    for driver in ["service", "crosscheck", "mutate"] {
        let direct = lab(&[driver, "--dry-run"]);
        let synonym = lab(&["run", "--suite", driver, "--dry-run"]);
        assert!(direct.status.success(), "{}", stderr(&direct));
        assert!(synonym.status.success(), "{}", stderr(&synonym));
        assert_eq!(stdout(&direct), stdout(&synonym));
        assert!(
            stdout(&direct).contains(" cells "),
            "dry-run must print a cell count: {}",
            stdout(&direct)
        );
    }
}

#[test]
fn accepted_flags_still_work_on_the_synonym_path() {
    // The synonym path forwards value flags, not just switches: a seed
    // override must change the enumerated count the same way on both
    // spellings.
    for (driver, seeds) in [("service", "0..4"), ("crosscheck", "0..2")] {
        let direct = lab(&[driver, "--seeds", seeds, "--dry-run"]);
        let synonym = lab(&["run", "--suite", driver, "--seeds", seeds, "--dry-run"]);
        assert!(direct.status.success(), "{}", stderr(&direct));
        assert_eq!(stdout(&direct), stdout(&synonym));
        assert!(
            stdout(&direct).contains(&format!("seeds {seeds}")),
            "{}",
            stdout(&direct)
        );
    }
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
    let mut spellings: Vec<Vec<&str>> = vec![vec!["run"]];
    for driver in ["service", "crosscheck", "mutate"] {
        spellings.push(vec![driver]);
        spellings.push(vec!["run", "--suite", driver]);
    }
    for prefix in spellings {
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
        (
            "--dry-run",
            vec!["run", "--suite", "service", "--dry-run", "--dry-run"],
        ),
        (
            "--threads",
            vec!["run", "--threads", "1", "--threads", "2", "--dry-run"],
        ),
        // Used to write x.json: merge's own argv loop took the first.
        (
            "--json",
            vec!["merge", "a.json", "--json", "x.json", "--json", "y.json"],
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
        ("--out", "--top", vec!["profile", "--out", "--top", "3"]),
        (
            "--baseline",
            "--tolerance",
            vec!["trend", "--baseline", "--tolerance", "0.5"],
        ),
        (
            "--timeline",
            "--cell",
            vec!["profile", "--timeline", "--cell", "0"],
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
