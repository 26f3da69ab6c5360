//! The `lab` CLI's one flag table.
//!
//! Every `--flag` of every flag-taking subcommand is one row here: its
//! name, whether it takes a value, which commands accept it, and — where a
//! command deliberately refuses a flag another command takes — the reason
//! the user is told. The binary validates every argv against this table
//! with one function, and `tests/cli_service_parity.rs` walks the same rows
//! against the real binary, so the table cannot drift from the behaviour.
//!
//! A flag that is neither accepted nor refused by a command is simply
//! *unknown* there. Refusals exist where silence would mislead: a user who
//! passes `--shard` to `lab service` believes sharding is in effect, and a
//! named error beats a silently ignored flag.

use Command::{Crosscheck, Merge, Mutate, Profile, Run, RunSuite, Service, Trend};

/// A `lab` subcommand (or `lab run` mode) with its own flag surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// `lab run` building a custom matrix from the axis flags.
    Run,
    /// `lab run --suite <sweep suite>`: the suite fixes the axes.
    RunSuite,
    /// `lab service` (and its synonym `lab run --suite service`).
    Service,
    /// `lab crosscheck` (and `lab run --suite crosscheck`).
    Crosscheck,
    /// `lab mutate` (and `lab run --suite mutate`).
    Mutate,
    /// `lab profile`.
    Profile,
    /// `lab trend`.
    Trend,
    /// `lab merge <partial.json>...`.
    Merge,
}

impl Command {
    /// Every command of the table.
    pub const ALL: [Command; 8] = [
        Run, RunSuite, Service, Crosscheck, Mutate, Profile, Trend, Merge,
    ];

    /// How diagnostics name the command (`lab service`, `lab run --suite`).
    pub fn invocation(self) -> &'static str {
        match self {
            Run => "lab run",
            RunSuite => "lab run --suite",
            Service => "lab service",
            Crosscheck => "lab crosscheck",
            Mutate => "lab mutate",
            Profile => "lab profile",
            Trend => "lab trend",
            Merge => "lab merge",
        }
    }

    /// Whether bare (non-`--`) arguments are the command's inputs. Every
    /// other command refuses them.
    pub fn takes_positionals(self) -> bool {
        self == Merge
    }
}

/// One row of the flag table.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, `--` included.
    pub name: &'static str,
    /// Whether the next argv element is this flag's value.
    pub takes_value: bool,
    /// Commands that accept the flag.
    pub accepted: &'static [Command],
    /// Commands that refuse it by name, each with the reason shown.
    pub refused: &'static [(Command, &'static str)],
}

impl Flag {
    /// Why `command` refuses this flag, if it does.
    pub fn refusal(&self, command: Command) -> Option<&'static str> {
        self.refused
            .iter()
            .find(|(c, _)| *c == command)
            .map(|(_, why)| *why)
    }
}

/// Looks a flag up by name.
pub fn find(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.name == name)
}

/// The flags `command` accepts, in table order.
pub fn accepted_by(command: Command) -> impl Iterator<Item = &'static Flag> {
    FLAGS.iter().filter(move |f| f.accepted.contains(&command))
}

const fn value(
    name: &'static str,
    accepted: &'static [Command],
    refused: &'static [(Command, &'static str)],
) -> Flag {
    Flag {
        name,
        takes_value: true,
        accepted,
        refused,
    }
}

const fn switch(
    name: &'static str,
    accepted: &'static [Command],
    refused: &'static [(Command, &'static str)],
) -> Flag {
    Flag {
        name,
        takes_value: false,
        accepted,
        refused,
    }
}

const SWEEP: &[Command] = &[Run, RunSuite];
const REPORTING: &[Command] = &[Run, RunSuite, Service, Crosscheck, Mutate];
const REPORT_FILES: &[Command] = &[Run, RunSuite, Service, Crosscheck, Mutate, Merge];

const SUITE_FIXES_AXES: &str =
    "a built-in suite fixes its axes; drop `--suite` to build a custom matrix";
const SERVICE_FIXES_AXES: &str =
    "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead";
const CROSSCHECK_FIXES_AXES: &str =
    "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead";
const SERVICE_NO_SAMPLING: &str =
    "adaptive sampling targets fit precision, which service reports do not compute";
const SERVICE_NO_FITS: &str = "service reports carry throughput and latency, not complexity fits";
const CROSSCHECK_NO_FITS: &str = "crosscheck reports carry agreement levels, not complexity fits";
const CROSSCHECK_NO_PIPELINING: &str =
    "service pipelining does not apply to single-shot crosscheck cells";

/// The five scenario axes every fixed grid refuses with the same reasons
/// (`--protocols` differs under crosscheck and has its own row).
const FIXED_AXES: &[(Command, &str)] = &[
    (RunSuite, SUITE_FIXES_AXES),
    (Service, SERVICE_FIXES_AXES),
    (Crosscheck, CROSSCHECK_FIXES_AXES),
];

/// Every flag of every flag-taking `lab` subcommand.
pub const FLAGS: &[Flag] = &[
    value(
        "--suite",
        &[Run, RunSuite, Service, Crosscheck, Mutate, Profile],
        &[],
    ),
    value(
        "--threads",
        &[Run, RunSuite, Service, Crosscheck, Mutate, Profile, Trend],
        &[],
    ),
    value("--json", REPORT_FILES, &[]),
    value("--md", REPORT_FILES, &[]),
    value(
        "--protocols",
        &[Run],
        &[
            (RunSuite, SUITE_FIXES_AXES),
            (Service, SERVICE_FIXES_AXES),
            (
                Crosscheck,
                "crosscheck runs *every* registered engine on every cell — \
                 narrowing the protocol axis would defeat the oracle",
            ),
        ],
    ),
    value("--validities", &[Run], FIXED_AXES),
    value("--behaviors", &[Run], FIXED_AXES),
    value("--schedules", &[Run], FIXED_AXES),
    value("--systems", &[Run], FIXED_AXES),
    value("--faults", &[Run], FIXED_AXES),
    value(
        "--seeds",
        &[Run, Service, Crosscheck, Mutate],
        &[(RunSuite, SUITE_FIXES_AXES)],
    ),
    value(
        "--fits",
        &[Run],
        &[
            (RunSuite, SUITE_FIXES_AXES),
            (Service, SERVICE_NO_FITS),
            (Crosscheck, CROSSCHECK_NO_FITS),
        ],
    ),
    value(
        "--fit-axis",
        SWEEP,
        &[(Service, SERVICE_NO_FITS), (Crosscheck, CROSSCHECK_NO_FITS)],
    ),
    value(
        "--max-steps",
        &[Run, RunSuite, Crosscheck, Mutate],
        &[(
            Service,
            "the service driver runs under the schedule's own event budget",
        )],
    ),
    value(
        "--shard",
        SWEEP,
        &[
            (
                Service,
                "service sweeps are small and there is no partial service report to merge; \
                 run unsharded",
            ),
            (
                Crosscheck,
                "the crosscheck grid is small and there is no partial crosscheck report to \
                 merge; run unsharded",
            ),
        ],
    ),
    value(
        "--precision",
        SWEEP,
        &[
            (Service, SERVICE_NO_SAMPLING),
            (
                Crosscheck,
                "adaptive sampling targets fit precision, which crosscheck reports do not compute",
            ),
        ],
    ),
    value(
        "--batch",
        SWEEP,
        &[
            (
                Service,
                "ambiguous with the service batching axis; use --batches (client batching) \
                 — adaptive sampling is not available here",
            ),
            (Crosscheck, "adaptive sampling is not available here"),
        ],
    ),
    value(
        "--max-seeds",
        SWEEP,
        &[
            (
                Service,
                "adaptive sampling targets fit precision, which service reports do not compute; \
                 set the seed axis directly with --seeds a..b",
            ),
            (
                Crosscheck,
                "adaptive sampling targets fit precision, which crosscheck reports do not \
                 compute; set the seed axis directly with --seeds a..b",
            ),
        ],
    ),
    value(
        "--slots",
        &[Service],
        &[(Crosscheck, CROSSCHECK_NO_PIPELINING)],
    ),
    value(
        "--pipelines",
        &[Service],
        &[(Crosscheck, CROSSCHECK_NO_PIPELINING)],
    ),
    value(
        "--batches",
        &[Service],
        &[(
            Crosscheck,
            "service batching does not apply to single-shot crosscheck cells",
        )],
    ),
    value("--operators", &[Mutate], &[]),
    value("--top", &[Profile], &[]),
    value("--timeline", &[Profile], &[]),
    value("--cell", &[Profile], &[]),
    value("--out", &[Profile, Trend], &[]),
    value("--suites", &[Trend], &[]),
    value("--from-reports", &[Trend], &[]),
    value("--baseline", &[Trend], &[]),
    value("--tolerance", &[Trend], &[]),
    switch("--dry-run", REPORTING, &[]),
    // Under crosscheck `--adaptive` selects the adaptive-*adversary* grid:
    // the sweep engine's adaptive *sampling* has no meaning for agreement
    // grading, so the flag is free there.
    switch(
        "--adaptive",
        &[Run, RunSuite, Crosscheck],
        &[(Service, SERVICE_NO_SAMPLING)],
    ),
    switch("--timing", &[Run, RunSuite, Service, Crosscheck], &[]),
    switch(
        "--observe",
        SWEEP,
        &[
            (
                Service,
                "the service report already carries per-slot latency and amortized cost; \
                 use `lab profile` for engine metrics",
            ),
            (
                Crosscheck,
                "crosscheck grades agreement, not engine metrics; use `lab profile` for those",
            ),
        ],
    ),
    switch("--chaos", &[Crosscheck], &[]),
    switch("--update-baseline", &[Trend], &[]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dashed() {
        for (i, flag) in FLAGS.iter().enumerate() {
            assert!(flag.name.starts_with("--"), "{}", flag.name);
            assert!(
                FLAGS[..i].iter().all(|f| f.name != flag.name),
                "{} listed twice",
                flag.name
            );
        }
    }

    #[test]
    fn no_command_both_accepts_and_refuses_a_flag() {
        for flag in FLAGS {
            for command in Command::ALL {
                assert!(
                    !(flag.accepted.contains(&command) && flag.refusal(command).is_some()),
                    "{} is both accepted and refused by `{}`",
                    flag.name,
                    command.invocation()
                );
            }
            assert!(!flag.accepted.is_empty(), "{} has no taker", flag.name);
        }
    }

    #[test]
    fn a_sweep_suite_refuses_exactly_the_custom_axis_flags() {
        let refused: Vec<&str> = FLAGS
            .iter()
            .filter(|f| f.refusal(RunSuite).is_some())
            .map(|f| f.name)
            .collect();
        assert_eq!(
            refused,
            [
                "--protocols",
                "--validities",
                "--behaviors",
                "--schedules",
                "--systems",
                "--faults",
                "--seeds",
                "--fits"
            ]
        );
        // Everything else `lab run` takes, a suite run takes too.
        for flag in accepted_by(Run) {
            assert!(
                flag.accepted.contains(&RunSuite) || refused.contains(&flag.name),
                "{} vanishes under --suite",
                flag.name
            );
        }
    }
}
