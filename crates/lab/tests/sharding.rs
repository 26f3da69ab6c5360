//! Shard-determinism regression tests: the scale-out story rests on the
//! partition being a pure function of the matrix and on `merge` rebuilding
//! the exact bytes an unsharded single process would have produced — for
//! any shard count, through the serialized partial-report artifacts, and
//! across real process boundaries (the CLI tests at the bottom).

use proptest::prelude::*;
use validity_adversary::BehaviorId;
use validity_lab::{
    merge, suites, PartialReport, ProtocolAxis, ScenarioMatrix, ScheduleSpec, ShardSpec,
    SweepEngine, ValiditySpec,
};
use validity_protocols::find_vector;

/// Builds a random small matrix from axis pools. `pick` masks select a
/// non-empty subset of each pool, so the matrices differ in protocols,
/// behaviours, fault loads, schedules, sizes, seeds, and classification
/// grids — every shape the partition has to survive.
fn random_matrix(masks: (u8, u8, u8, u8, u8, u8), seeds: u64, classify: bool) -> ScenarioMatrix {
    let (proto_mask, validity_mask, behavior_mask, fault_mask, schedule_mask, system_mask) = masks;
    fn picked<T: Clone>(pool: &[T], mask: u8) -> Vec<T> {
        let out: Vec<T> = pool
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, v)| v.clone())
            .collect();
        if out.is_empty() {
            vec![pool[0].clone()]
        } else {
            out
        }
    }
    let mut m = ScenarioMatrix::new("random");
    m.protocols = picked(
        &[
            ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
            ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
            ProtocolAxis::raw(find_vector("alg3-nonauth").unwrap()),
        ],
        proto_mask,
    );
    m.validities = picked(&[ValiditySpec::Strong, ValiditySpec::Median], validity_mask);
    m.behaviors = picked(&[BehaviorId::Silent, BehaviorId::Crash], behavior_mask);
    m.faults = picked(&[0, usize::MAX], fault_mask);
    m.schedules = picked(
        &[ScheduleSpec::Synchronous, ScheduleSpec::PartialSync],
        schedule_mask,
    );
    m.systems = picked(&[(4usize, 1usize), (5, 1)], system_mask);
    m.seeds = 0..(1 + seeds % 3);
    if classify {
        m.classifications = vec![validity_lab::ClassifyCell {
            validity: ValiditySpec::Parity,
            n: 4,
            t: 1,
            domain: 2,
        }];
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any matrix and any m ∈ 1..=8, the shards are pairwise disjoint
    /// and their union (in index order) is exactly the matrix enumeration.
    /// Pure partition arithmetic — nothing is executed.
    #[test]
    fn shards_are_disjoint_and_cover_any_matrix(
        (proto_mask, validity_mask, behavior_mask) in (1u8..8, 1u8..4, 1u8..4),
        (fault_mask, schedule_mask, system_mask) in (1u8..4, 1u8..4, 1u8..4),
        (seeds, classify, count) in (0u64..8, any::<bool>(), 1usize..=8),
    ) {
        let m = random_matrix(
            (proto_mask, validity_mask, behavior_mask, fault_mask, schedule_mask, system_mask),
            seeds,
            classify,
        );
        let all: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        let mut owners: Vec<Vec<String>> = Vec::new();
        for index in 1..=count {
            owners.push(
                m.shard_cells(ShardSpec { index, count })
                    .iter()
                    .map(|c| c.key())
                    .collect(),
            );
        }
        // Disjoint: no key appears in two shards; covering: round-robin
        // interleaving of the shards reproduces the enumeration exactly.
        let mut rebuilt = Vec::with_capacity(all.len());
        let mut cursors = vec![0usize; count];
        for i in 0..all.len() {
            let shard = i % count;
            let key = owners[shard]
                .get(cursors[shard])
                .unwrap_or_else(|| panic!("shard {} exhausted early at cell {i}", shard + 1));
            rebuilt.push(key.clone());
            cursors[shard] += 1;
        }
        prop_assert_eq!(&rebuilt, &all);
        for (shard, cursor) in cursors.iter().enumerate() {
            prop_assert_eq!(
                *cursor,
                owners[shard].len(),
                "shard {} holds cells the round-robin never visits",
                shard + 1
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Executing the shards separately, round-tripping every partial
    /// through its JSON artifact, and merging reproduces the unsharded
    /// report byte-for-byte — for random matrices and shard counts.
    #[test]
    fn merged_random_sweeps_are_byte_identical(
        proto_mask in 1u8..8,
        behavior_mask in 1u8..4,
        fault_mask in 1u8..4,
        seeds in 0u64..4,
        count in 1usize..=5,
    ) {
        let m = random_matrix((proto_mask, 1, behavior_mask, fault_mask, 1, 1), seeds, true);
        let unsharded = SweepEngine::new(2).run(&m).0;
        let partials: Vec<PartialReport> = (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let run = SweepEngine::new(1).execute_shard(&m, shard);
                let partial =
                    PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records);
                PartialReport::parse(&partial.to_json()).expect("partial round-trip")
            })
            .collect();
        let (merged, _) = merge(&partials).expect("complete merge");
        prop_assert_eq!(merged.to_json(), unsharded.to_json());
        prop_assert_eq!(merged.to_markdown(), unsharded.to_markdown());
    }
}

/// The acceptance scenario: an `m`-way sharded **complexity** sweep,
/// merged, is byte-identical to the single-process report for m ∈ {2, 4}.
/// Every partial passes through its serialized JSON form, so this also
/// pins the full-fidelity record round-trip on real sweep data (fits,
/// bands, budgets, and all).
#[test]
fn merged_complexity_sweep_matches_single_process_bytes() {
    let m = suites::build("complexity").expect("built-in suite");
    let unsharded = SweepEngine::new(2).run(&m).0;
    for count in [2usize, 4] {
        let partials: Vec<PartialReport> = (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let run = SweepEngine::new(2).execute_shard(&m, shard);
                let partial =
                    PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records);
                PartialReport::parse(&partial.to_json()).expect("partial round-trip")
            })
            .collect();
        let (merged, _) = merge(&partials).expect("complete merge");
        assert_eq!(
            merged.to_json(),
            unsharded.to_json(),
            "JSON drifted at m={count}"
        );
        assert_eq!(
            merged.to_markdown(),
            unsharded.to_markdown(),
            "Markdown drifted at m={count}"
        );
        assert!(!merged.fits.is_empty(), "complexity must carry fits");
    }
}

#[test]
fn partial_reader_refuses_an_older_generation_by_name() {
    // A shard of another generation never reaches the merge: the reader
    // refuses it by name, so a merged set is single-generation by
    // construction.
    let m = suites::build("quick").expect("built-in suite");
    let shard = ShardSpec { index: 2, count: 2 };
    let run = SweepEngine::new(2).execute_shard(&m, shard);
    let partial = PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records);
    assert!(PartialReport::parse(&partial.to_json()).is_ok());
    let downgraded = partial
        .to_json()
        .replace(validity_lab::PARTIAL_SCHEMA, "validity-lab/partial@1");
    assert_eq!(
        PartialReport::parse(&downgraded).unwrap_err(),
        "not a partial report: schema 'validity-lab/partial@1' \
         (expected 'validity-lab/partial@2')"
    );
}

#[test]
fn incomplete_merge_names_the_missing_shard_indices() {
    let m = suites::build("quick").expect("built-in suite");
    let engine = SweepEngine::new(2);
    let partial_of = |index: usize| {
        let shard = ShardSpec { index, count: 4 };
        let run = engine.execute_shard(&m, shard);
        PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records)
    };
    let err = merge(&[partial_of(1), partial_of(3)]).unwrap_err();
    assert!(err.contains("incomplete"), "{err}");
    assert!(
        err.contains("missing shard index(es) 2, 4"),
        "the missing indices must be named: {err}"
    );
}

#[test]
fn hand_written_v1_partial_is_refused_even_when_retagged() {
    // A hand-written partial@1 (no fit_axis, no classify cost) is refused
    // by name, not read with defaulted fields.
    let v1 = r#"{
  "schema": "validity-lab/partial@1",
  "shard": {"index": 1, "count": 1},
  "wall_seconds": 0.001,
  "matrix": {"name": "legacy", "protocols": ["alg1-auth"], "validities": [],
             "behaviors": ["silent"], "faults": ["0"], "schedules": ["sync"],
             "systems": [[4, 1]], "seeds": [0, 1], "classifications":
             [{"validity": "parity", "n": 4, "t": 1, "domain": 2}],
             "fit_measures": [], "fit_bands": [], "max_steps": null},
  "records": [
    {"key": "classify/parity/n4t1/d2", "group": "classify/parity/n4t1/d2",
     "type": "classify", "verdict": "unsolvable (C_S violated)",
     "certificate": "x", "high_resilience": true, "theorem1_consistent": true}
  ]
}"#;
    let err = PartialReport::parse(v1).unwrap_err();
    assert!(err.contains("schema 'validity-lab/partial@1'"), "{err}");
    // Retagging it does not help: each field partial@2 added is required,
    // and the reader names the one it misses until all are there.
    let mut retagged = v1.replace("partial@1", "partial@2");
    for (missing, completion) in [
        (
            "partial@2 matrix: missing 'fit_axis'",
            (
                "\"max_steps\": null",
                "\"max_steps\": null, \"fit_axis\": \"n\"",
            ),
        ),
        (
            "partial@2 records[0]: missing 'cost'",
            (
                "\"theorem1_consistent\": true",
                "\"theorem1_consistent\": true, \"cost\": 4",
            ),
        ),
    ] {
        assert_eq!(PartialReport::parse(&retagged).unwrap_err(), missing);
        retagged = retagged.replacen(completion.0, completion.1, 1);
    }
    let completed = PartialReport::parse(&retagged).expect("every partial@2 field present");
    assert_eq!(completed.records.len(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end through the CLI: separate OS processes per shard, artifacts on
// disk, exit codes as CI would see them.

mod cli {
    use std::path::PathBuf;
    use std::process::Command;

    const LAB: &str = env!("CARGO_BIN_EXE_lab");

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lab-sharding-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp workdir");
        dir
    }

    fn lab(args: &[&str]) -> std::process::Output {
        Command::new(LAB).args(args).output().expect("spawn lab")
    }

    /// `lab run --shard` in `m` separate processes, `lab merge` in another:
    /// the merged file equals the single-process file byte-for-byte.
    #[test]
    fn shard_processes_merge_to_single_process_bytes() {
        let dir = workdir("merge");
        let full_json = dir.join("full.json").display().to_string();
        let full_md = dir.join("full.md").display().to_string();
        let out = lab(&[
            "run", "--suite", "quick", "--json", &full_json, "--md", &full_md,
        ]);
        assert!(out.status.success(), "unsharded run failed: {out:?}");
        let mut partial_paths = Vec::new();
        for index in 1..=3 {
            let path = dir.join(format!("part{index}.json")).display().to_string();
            let shard = format!("{index}/3");
            let out = lab(&[
                "run", "--suite", "quick", "--shard", &shard, "--json", &path,
            ]);
            assert!(out.status.success(), "shard {shard} failed: {out:?}");
            partial_paths.push(path);
        }
        let merged_json = dir.join("merged.json").display().to_string();
        let merged_md = dir.join("merged.md").display().to_string();
        let mut args = vec!["merge"];
        args.extend(partial_paths.iter().map(String::as_str));
        args.extend(["--json", &merged_json, "--md", &merged_md]);
        let out = lab(&args);
        assert!(out.status.success(), "merge failed: {out:?}");
        assert_eq!(
            std::fs::read(&merged_json).unwrap(),
            std::fs::read(&full_json).unwrap(),
            "merged JSON differs from the single-process run"
        );
        assert_eq!(
            std::fs::read(&merged_md).unwrap(),
            std::fs::read(&full_md).unwrap(),
            "merged Markdown differs from the single-process run"
        );
        // And `lab diff` agrees they are the same report.
        let out = lab(&["diff", &merged_json, &full_json]);
        assert!(out.status.success(), "diff saw drift: {out:?}");
    }

    /// The degenerate partition: an explicit `--shard 1/1` must still
    /// emit a *partial* (so a pipeline parameterized over `m` works at
    /// m = 1), and merging that single partial reproduces the full
    /// report's bytes.
    #[test]
    fn explicit_one_way_shard_emits_a_mergeable_partial() {
        let dir = workdir("oneway");
        let full_json = dir.join("full.json").display().to_string();
        let full_md = dir.join("full.md").display().to_string();
        let out = lab(&[
            "run", "--suite", "quick", "--json", &full_json, "--md", &full_md,
        ]);
        assert!(out.status.success(), "{out:?}");
        let part = dir.join("part1.json").display().to_string();
        let out = lab(&["run", "--suite", "quick", "--shard", "1/1", "--json", &part]);
        assert!(out.status.success(), "1/1 shard failed: {out:?}");
        assert!(
            std::fs::read_to_string(&part)
                .unwrap()
                .contains(validity_lab::PARTIAL_SCHEMA),
            "--shard 1/1 wrote a full report, not a partial"
        );
        let merged_json = dir.join("merged.json").display().to_string();
        let merged_md = dir.join("merged.md").display().to_string();
        let out = lab(&["merge", &part, "--json", &merged_json, "--md", &merged_md]);
        assert!(out.status.success(), "1-way merge failed: {out:?}");
        assert_eq!(
            std::fs::read(&merged_json).unwrap(),
            std::fs::read(&full_json).unwrap(),
        );
    }

    /// `lab merge` with a missing shard must fail loudly, not emit a
    /// partial-coverage report.
    #[test]
    fn merge_of_incomplete_shard_set_fails() {
        let dir = workdir("incomplete");
        let path = dir.join("only.json").display().to_string();
        let out = lab(&["run", "--suite", "quick", "--shard", "1/2", "--json", &path]);
        assert!(out.status.success(), "shard run failed: {out:?}");
        let out = lab(&["merge", &path]);
        assert!(!out.status.success(), "incomplete merge must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("incomplete"), "unhelpful error: {err}");
    }

    /// `lab diff` refuses partial reports with an actionable error instead
    /// of a spurious cell-by-cell diff (or a panic).
    #[test]
    fn diff_rejects_partial_reports_with_clear_error() {
        let dir = workdir("diff");
        let partial = dir.join("part.json").display().to_string();
        let full = dir.join("full.json").display().to_string();
        let full_md = dir.join("full.md").display().to_string();
        let out = lab(&[
            "run", "--suite", "quick", "--shard", "1/2", "--json", &partial,
        ]);
        assert!(out.status.success(), "{out:?}");
        let out = lab(&["run", "--suite", "quick", "--json", &full, "--md", &full_md]);
        assert!(out.status.success(), "{out:?}");
        for pair in [[&partial, &full], [&full, &partial]] {
            let out = lab(&["diff", pair[0], pair[1]]);
            assert!(!out.status.success(), "diff accepted a partial report");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("partial") && err.contains("lab merge"),
                "unhelpful error: {err}"
            );
        }
        // A fabricated future schema is a clear mismatch error, too.
        let future = dir.join("future.json").display().to_string();
        std::fs::write(
            &future,
            "{\"schema\": \"validity-lab/report@9\", \"cells\": []}\n",
        )
        .unwrap();
        let out = lab(&["diff", &future, &full]);
        assert!(!out.status.success(), "diff accepted an unknown schema");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("schema"), "unhelpful error: {err}");
        // A schema-less document that is not report-shaped (e.g. a legacy
        // bench artifact) must error, not zero-diff as an empty report.
        let stray = dir.join("stray.json").display().to_string();
        std::fs::write(&stray, "{\"suites\": []}\n").unwrap();
        let out = lab(&["diff", &stray, &full]);
        assert!(!out.status.success(), "diff accepted a non-report document");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("does not look like a lab report"),
            "unhelpful error: {err}"
        );
        // Tagged as a report but not one: each is a named error on either
        // side of the diff, never "identical: 0 cells match".
        let tag = "\"schema\": \"validity-lab/report@2\"";
        let malformed = dir.join("malformed.json").display().to_string();
        for (text, complaint) in [
            (format!("{{{tag}}}"), "report@2: missing 'cells'"),
            (
                format!("{{{tag}, \"cells\": [{{\"key\": \"a\"}}, {{\"type\": \"run\"}}]}}"),
                "report@2 cells[1]: missing 'key'",
            ),
            (
                format!("{{{tag}, \"cells\": [{{\"key\": 7}}]}}"),
                "report@2 cells[0]: bad 'key' (want string)",
            ),
            // A repeated key would otherwise keep only its last value and
            // could compare "identical" to a report it differs from.
            (
                format!("{{{tag}, \"cells\": [{{\"key\": \"a\", \"decided\": false, \"decided\": true}}]}}"),
                "duplicate key 'decided' at byte 77",
            ),
            (
                format!("{{{tag}, \"cells\": [{{\"key\": \"a\"}}, {{\"key\": \"a\"}}]}}"),
                "two cells share the key 'a'",
            ),
            (
                format!("{{{tag}, \"cells\": [], \"x\": 1e999999}}"),
                "number out of range at byte 54",
            ),
        ] {
            std::fs::write(&malformed, &text).unwrap();
            for pair in [
                [&malformed, &full],
                [&full, &malformed],
                [&malformed, &malformed],
            ] {
                let out = lab(&["diff", pair[0], pair[1]]);
                assert_eq!(out.status.code(), Some(1), "{text}: {out:?}");
                assert!(out.stdout.is_empty(), "{text}: {out:?}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(err.contains(complaint), "{text}: unhelpful error: {err}");
            }
        }
    }

    /// A file of nothing but open brackets used to overflow the parser's
    /// stack and abort the process; it is an ordinary CLI error (exit 1,
    /// one line on stderr) for every command that reads outside files.
    #[test]
    fn runaway_nesting_is_an_ordinary_error_not_a_stack_overflow() {
        let dir = workdir("deep");
        let deep = dir.join("deep.json").display().to_string();
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        for args in [vec!["diff", &*deep, &*deep], vec!["merge", &*deep]] {
            let out = lab(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("deep.json: nesting deeper than 128 at byte 128"),
                "unhelpful error: {err}"
            );
        }
    }
}
