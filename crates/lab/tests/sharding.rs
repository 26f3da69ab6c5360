//! Partial-report round trips: the partition is a pure function of the
//! matrix, and `merge` rebuilds the exact bytes the single-process report
//! holds — for any shard count, through the serialized partial-report
//! artifacts. No `lab` command writes a partial; these tests are the
//! reference for the benchmark's merged-equals-unsharded assertion.

use proptest::prelude::*;
use validity_adversary::BehaviorId;
use validity_lab::{
    merge, suites, CellRecord, PartialReport, ProtocolAxis, ScenarioMatrix, ScheduleSpec,
    ShardSpec, SweepEngine, ValiditySpec,
};
use validity_protocols::find_vector;

/// The records of one single-process run of `m`, cut into the `count`
/// partials of a round-robin partition by [`ShardSpec::owns`], each
/// round-tripped through its JSON artifact.
fn partials(m: &ScenarioMatrix, records: &[CellRecord], count: usize) -> Vec<PartialReport> {
    (1..=count)
        .map(|index| {
            let shard = ShardSpec { index, count };
            let owned = records
                .iter()
                .enumerate()
                .filter(|&(i, _)| shard.owns(i))
                .map(|(_, r)| r.clone())
                .collect();
            let partial = PartialReport::new(m.clone(), shard, 0.0, owned);
            PartialReport::parse(&partial.to_json()).expect("partial round-trip")
        })
        .collect()
}

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
            let shard = ShardSpec { index, count };
            owners.push(
                all.iter()
                    .enumerate()
                    .filter(|&(i, _)| shard.owns(i))
                    .map(|(_, k)| k.clone())
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

    /// Cutting one run's records into shards, round-tripping every partial
    /// through its JSON artifact, and merging reproduces the single-process
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
        let (unsharded, _) = SweepEngine::new(2).run(&m);
        let (merged, _) = merge(&partials(&m, &unsharded.cells, count)).expect("complete merge");
        prop_assert_eq!(merged.to_json(), unsharded.to_json());
        prop_assert_eq!(merged.to_markdown(), unsharded.to_markdown());
    }
}

/// The `complexity` sweep cut `m` ways and merged is byte-identical to
/// the single-process report for m ∈ {2, 4}. Every partial passes through
/// its serialized JSON form, so this also pins the full-fidelity record
/// round-trip on real sweep data (fits, bands, budgets, and all).
#[test]
fn merged_complexity_sweep_matches_single_process_bytes() {
    let m = suites::build("complexity").expect("built-in suite");
    let (unsharded, _) = SweepEngine::new(2).run(&m);
    for count in [2usize, 4] {
        let (merged, _) = merge(&partials(&m, &unsharded.cells, count)).expect("complete merge");
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
    let records = SweepEngine::new(2).run(&m).0.cells;
    let partial = partials(&m, &records, 2).remove(1);
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
    let records = SweepEngine::new(2).run(&m).0.cells;
    let mut four = partials(&m, &records, 4);
    four.retain(|p| p.shard.index % 2 == 1);
    let err = merge(&four).unwrap_err();
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
// End-to-end through the CLI: exit codes as CI would see them.

mod cli {
    use std::path::PathBuf;
    use std::process::Command;

    const LAB: &str = env!("CARGO_BIN_EXE_lab");

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lab-sharding-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp workdir");
        dir
    }

    /// A file of nothing but open brackets used to overflow the parser's
    /// stack and abort the process; it is an ordinary CLI error (exit 1,
    /// one line on stderr) for `lab diff`, the command that reads outside
    /// files.
    #[test]
    fn runaway_nesting_is_an_ordinary_error_not_a_stack_overflow() {
        let dir = workdir("deep");
        let deep = dir.join("deep.json").display().to_string();
        std::fs::write(&deep, "[".repeat(200_000)).unwrap();
        let out = Command::new(LAB)
            .args(["diff", &deep, &deep])
            .output()
            .expect("spawn lab");
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("deep.json: nesting deeper than 128 at byte 128"),
            "unhelpful error: {err}"
        );
    }
}
