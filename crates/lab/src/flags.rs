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
//! passes `--observe` to `lab service` believes engine metrics are being
//! collected, and a named error beats a silently ignored flag.

use Command::{Crosscheck, Mutate, Run, RunSuite, Service};

/// A `lab` subcommand (or `lab run` mode) with its own flag surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// `lab run` building a custom matrix from the axis flags.
    Run,
    /// `lab run --suite <sweep suite>`: the suite fixes the axes.
    RunSuite,
    /// `lab service`.
    Service,
    /// `lab crosscheck`.
    Crosscheck,
    /// `lab mutate`.
    Mutate,
}

impl Command {
    /// Every command of the table.
    pub const ALL: [Command; 5] = [Run, RunSuite, Service, Crosscheck, Mutate];

    /// How diagnostics name the command (`lab service`, `lab run --suite`).
    pub fn invocation(self) -> &'static str {
        match self {
            Run => "lab run",
            RunSuite => "lab run --suite",
            Service => "lab service",
            Crosscheck => "lab crosscheck",
            Mutate => "lab mutate",
        }
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

const SUITE_FIXES_AXES: &str =
    "a built-in suite fixes its axes; drop `--suite` to build a custom matrix";
const SERVICE_FIXES_AXES: &str =
    "the service suite fixes its axes; tune --slots/--pipelines/--batches/--seeds instead";
const CROSSCHECK_FIXES_AXES: &str =
    "the crosscheck suite fixes its axes; tune --seeds/--max-steps instead";
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
    value("--suite", SWEEP, &[]),
    value("--threads", REPORTING, &[]),
    value("--json", REPORTING, &[]),
    value("--md", REPORTING, &[]),
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
            (
                Service,
                "service reports carry throughput and latency, not complexity fits",
            ),
            (
                Crosscheck,
                "crosscheck reports carry agreement levels, not complexity fits",
            ),
        ],
    ),
    value(
        "--max-steps",
        &[Run, RunSuite, Crosscheck],
        &[
            (
                Service,
                "the service driver runs under the schedule's own event budget",
            ),
            (Mutate, "each mutant's budget is 20× its base run's events"),
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
    switch("--dry-run", REPORTING, &[]),
    switch(
        "--observe",
        SWEEP,
        &[
            (
                Service,
                "the service report already carries per-slot latency and amortized cost; \
                 for engine metrics, run one engine's cells with `lab run --protocols <engine> \
                 --observe`",
            ),
            (
                Crosscheck,
                "crosscheck grades agreement, not engine metrics; for those, run one engine's \
                 cells with `lab run --protocols <engine> --observe`",
            ),
        ],
    ),
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

    /// A refusal that points at another command must point at one that
    /// exists: every `` `lab <word>` `` it quotes is a subcommand the binary
    /// dispatches — a [`Command`], or one of the two that take no flags.
    #[test]
    fn refusals_only_recommend_existing_subcommands() {
        let mut subcommands: Vec<&str> = Command::ALL
            .iter()
            .map(|c| c.invocation().split(' ').nth(1).expect("`lab <word>`"))
            .collect();
        subcommands.extend(["list", "diff"]);
        for flag in FLAGS {
            for (command, why) in flag.refused {
                for quoted in why.split("`lab ").skip(1) {
                    let word = quoted.split([' ', '`']).next().unwrap_or("");
                    assert!(
                        subcommands.contains(&word),
                        "{} under `{}` recommends `lab {word}`, which does not exist",
                        flag.name,
                        command.invocation()
                    );
                }
            }
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
