//! Adaptive-sampling regression tests: the seed-until-stable engine must
//! (1) beat the fixed-seed budget on the complexity suite at equal
//! statistical confidence, (2) stay byte-identical across worker counts
//! and shard layouts via the two-phase measure/commit protocol, and
//! (3) handle the degenerate groups — zero variance stops after one
//! batch, a never-stabilizing group stops at the cap and is flagged, not
//! quarantined.

use validity_lab::{
    merge, suites, FitAxis, FitMeasure, PartialReport, ProtocolAxis, SamplingSpec, ScenarioMatrix,
    ScheduleSpec, ShardSpec, SweepEngine,
};
use validity_protocols::find_vector;

fn raw(name: &str) -> ProtocolAxis {
    ProtocolAxis::raw(find_vector(name).unwrap())
}

/// One-group matrix: a single protocol/schedule/system configuration.
fn single_group(name: &str, schedule: ScheduleSpec, spec: SamplingSpec) -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("adaptive-test");
    m.protocols = vec![raw(name)];
    m.behaviors = vec![validity_adversary::BehaviorId::Silent];
    m.faults = vec![0];
    m.schedules = vec![schedule];
    m.systems = vec![(4, 1)];
    m.fit_measures = vec![FitMeasure::Messages];
    m.sampling = Some(spec);
    m
}

#[test]
fn zero_variance_group_stops_after_the_first_batch() {
    // alg1-auth under full synchrony is seed-invariant: the pilot batch
    // already has zero spread, so the group must stop immediately.
    let m = single_group(
        "alg1-auth",
        ScheduleSpec::Synchronous,
        SamplingSpec::default(),
    );
    let (report, _) = SweepEngine::new(2).run(&m);
    let sampling = report.sampling.as_ref().expect("adaptive report");
    assert_eq!(sampling.groups.len(), 1);
    let g = &sampling.groups[0];
    assert!(g.stable, "{g:?}");
    assert_eq!(g.consumed, SamplingSpec::default().batch);
    assert_eq!(g.batches, 1);
    assert_eq!(g.achieved, Some(0.0));
    assert_eq!(sampling.capped(), 0);
}

#[test]
fn never_stabilizing_group_stops_at_the_cap_and_is_flagged_not_quarantined() {
    // alg6-fast under partial synchrony varies across seeds; an
    // (unreachable) 0.1% target can never be met, so the group runs to
    // the cap, is flagged capped in the sampling section, and stays out
    // of the quarantine section (its runs are healthy).
    let spec = SamplingSpec {
        precision: 0.001,
        batch: 2,
        max_seeds: 6,
    };
    let m = single_group("alg6-fast", ScheduleSpec::PartialSync, spec);
    let (report, _) = SweepEngine::new(2).run(&m);
    let sampling = report.sampling.as_ref().expect("adaptive report");
    let g = &sampling.groups[0];
    assert!(!g.stable, "{g:?}");
    assert_eq!(g.consumed, 6, "must stop exactly at the cap");
    assert_eq!(g.batches, 3);
    assert!(g.achieved.expect("messages are always observed") > spec.precision);
    assert_eq!(sampling.capped(), 1);
    assert!(
        report.quarantined.is_empty(),
        "capped is a sampling verdict, not a quarantine: {:?}",
        report.quarantined
    );
    // The flag is visible in both emitters.
    assert!(report.to_json().contains("\"stable\": false"));
    assert!(report.to_markdown().contains("✘ CAPPED"));
}

#[test]
fn adaptive_reports_are_byte_identical_across_worker_counts() {
    let mut m = suites::build("complexity").expect("built-in suite");
    m.sampling = Some(SamplingSpec::default());
    let one = SweepEngine::new(1).run(&m).0;
    for threads in [2, 4] {
        let other = SweepEngine::new(threads).run(&m).0;
        assert_eq!(
            one.to_json(),
            other.to_json(),
            "adaptive JSON drifted at {threads} workers"
        );
        assert_eq!(one.to_markdown(), other.to_markdown());
    }
}

/// The acceptance scenario: on the complexity suite at default precision,
/// the adaptive run consumes strictly fewer seeds than the fixed-seed run
/// while every banded exponent stays in band — and sharded adaptive runs
/// (m ∈ {2, 4}) merge to the unsharded bytes through serialized partials.
#[test]
fn adaptive_complexity_beats_fixed_budget_and_shards_byte_identically() {
    let fixed = suites::build("complexity").expect("built-in suite");
    let mut adaptive = fixed.clone();
    adaptive.sampling = Some(SamplingSpec::default());

    let engine = SweepEngine::new(2);
    let (fixed_report, _) = engine.run(&fixed);
    let (report, _) = engine.run(&adaptive);

    // Strictly fewer seeds at equal confidence.
    let fixed_seeds = fixed_report.cells.len() as u64;
    let sampling = report.sampling.as_ref().expect("adaptive report");
    assert!(
        sampling.seeds_consumed() < fixed_seeds,
        "adaptive consumed {} of the fixed budget {fixed_seeds}",
        sampling.seeds_consumed(),
    );
    // Every fitted exponent with a declared band stays inside it.
    assert!(!report.fits.is_empty());
    assert_eq!(report.fits_out_of_band(), 0, "{:?}", report.fits);
    assert!(report
        .fits
        .iter()
        .any(|f| f.band.is_some() && f.within_band == Some(true)));
    assert_eq!(report.violations(), 0);

    // Sharded adaptive runs merge to the exact unsharded bytes.
    for count in [2usize, 4] {
        let partials: Vec<PartialReport> = (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let run = engine.execute_shard(&adaptive, shard);
                let partial = PartialReport::new(
                    adaptive.clone(),
                    shard,
                    run.wall.as_secs_f64(),
                    run.records,
                );
                PartialReport::parse(&partial.to_json()).expect("partial round-trip")
            })
            .collect();
        let (merged, _) = merge(&partials).expect("complete adaptive merge");
        assert_eq!(
            merged.to_json(),
            report.to_json(),
            "adaptive JSON drifted at m={count}"
        );
        assert_eq!(merged.to_markdown(), report.to_markdown());
    }
}

#[test]
fn adaptive_merge_commits_reject_tampered_shards() {
    let mut m = suites::build("quick").expect("built-in suite");
    m.fit_measures = vec![FitMeasure::Messages];
    m.sampling = Some(SamplingSpec {
        precision: 0.5,
        batch: 2,
        max_seeds: 4,
    });
    let engine = SweepEngine::new(2);
    let partials: Vec<PartialReport> = (1..=2)
        .map(|index| {
            let shard = ShardSpec { index, count: 2 };
            let run = engine.execute_shard(&m, shard);
            PartialReport::new(m.clone(), shard, run.wall.as_secs_f64(), run.records)
        })
        .collect();
    assert!(merge(&partials).is_ok(), "healthy shard set must merge");

    // A shard that stopped a group early disagrees with the committed rule.
    let mut torn = partials.clone();
    let victim = torn[0]
        .records
        .iter()
        .position(|r| matches!(r.outcome, validity_lab::Outcome::Run(_)))
        .expect("shard owns a run group");
    let group = torn[0].records[victim].group.clone();
    torn[0].records.remove(victim);
    let err = merge(&torn).unwrap_err();
    assert!(
        err.contains(&group) || err.contains("record"),
        "unhelpful error: {err}"
    );

    // A forged measure-phase claim is caught by the commit cross-check.
    let mut forged = partials.clone();
    let claim = forged[0]
        .sampling
        .first_mut()
        .expect("shard carries claims");
    claim.stable = !claim.stable;
    let err = merge(&forged).unwrap_err();
    assert!(err.contains("claim"), "unhelpful error: {err}");
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
fn classifier_domain_suite_fits_cost_in_band() {
    let m = suites::build("classifier-domain").expect("built-in suite");
    let (report, _) = SweepEngine::new(2).run(&m);
    assert_eq!(report.fit_axis, FitAxis::Domain);
    assert_eq!(report.violations(), 0);
    assert_eq!(report.fits.len(), 4, "{:?}", report.fits);
    for f in &report.fits {
        assert_eq!(f.measure, FitMeasure::ClassifyCost);
        assert_eq!(f.points.len(), 5, "{f:?}");
        assert_eq!(f.within_band, Some(true), "{f:?}");
        let fit = f.fit.expect("five domain sizes fit");
        assert!(fit.r_squared > 0.99, "{fit:?}");
    }
    // The cost counter is visible per cell in both emitters.
    assert!(report.to_json().contains("\"cost\": "));
    assert!(report.to_markdown().contains("| cost |"));
}

#[test]
fn fault_axis_fits_group_by_size_and_vary_byz() {
    // Fit messages against the Byzantine count at fixed n: one group per
    // (protocol, schedule, n, t), x = byz. The fault-free cell (x = 0)
    // cannot sit on a log–log line and must be skipped — not poison the
    // whole group into "unfittable".
    let mut m = ScenarioMatrix::new("t-axis");
    m.protocols = vec![raw("alg1-auth")];
    m.behaviors = vec![validity_adversary::BehaviorId::Silent];
    m.faults = vec![0, 1, 2];
    m.schedules = vec![ScheduleSpec::Synchronous];
    m.systems = vec![(7, 2)];
    m.seeds = 0..2;
    m.fit_measures = vec![FitMeasure::Messages];
    m.fit_axis = FitAxis::T;
    let (report, _) = SweepEngine::new(2).run(&m);
    assert_eq!(report.fit_axis, FitAxis::T);
    assert_eq!(report.fits.len(), 1, "{:?}", report.fits);
    let row = &report.fits[0];
    assert_eq!(row.key, "fit/alg1-auth/vector/silent/sync/n7t2");
    let xs: Vec<f64> = row.points.iter().map(|p| p.0).collect();
    assert_eq!(xs, vec![1.0, 2.0], "x = 0 must be excluded");
    assert!(row.fit.is_some(), "two positive points fit: {row:?}");
}

#[test]
fn hand_written_v1_partial_is_refused_even_when_retagged() {
    // A hand-written partial@1 (no fit_axis, no sampling, no classify
    // cost) is refused by name, not read with defaulted fields.
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
            "partial@2 matrix: missing 'sampling'",
            (
                "\"max_steps\": null",
                "\"max_steps\": null, \"sampling\": null",
            ),
        ),
        (
            "partial@2 records[0]: missing 'cost'",
            (
                "\"theorem1_consistent\": true",
                "\"theorem1_consistent\": true, \"cost\": 4",
            ),
        ),
        (
            "partial@2: missing 'sampling'",
            ("\"records\": [", "\"sampling\": [], \"records\": ["),
        ),
    ] {
        assert_eq!(PartialReport::parse(&retagged).unwrap_err(), missing);
        retagged = retagged.replacen(completion.0, completion.1, 1);
    }
    let completed = PartialReport::parse(&retagged).expect("every partial@2 field present");
    assert_eq!(completed.records.len(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end through the CLI: adaptive shards in separate OS processes.

mod cli {
    use std::path::PathBuf;
    use std::process::Command;

    const LAB: &str = env!("CARGO_BIN_EXE_lab");

    fn workdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lab-adaptive-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp workdir");
        dir
    }

    fn lab(args: &[&str]) -> std::process::Output {
        Command::new(LAB).args(args).output().expect("spawn lab")
    }

    /// Adaptive `--shard` runs in separate processes merge to the bytes of
    /// the unsharded adaptive process — the CLI face of the measure/commit
    /// protocol.
    #[test]
    fn adaptive_shard_processes_merge_to_single_process_bytes() {
        let dir = workdir("merge");
        let full_json = dir.join("full.json").display().to_string();
        let full_md = dir.join("full.md").display().to_string();
        let out = lab(&[
            "run",
            "--suite",
            "quick",
            "--adaptive",
            "--json",
            &full_json,
            "--md",
            &full_md,
        ]);
        assert!(out.status.success(), "unsharded adaptive run: {out:?}");
        let mut parts = Vec::new();
        for index in 1..=2 {
            let path = dir.join(format!("part{index}.json")).display().to_string();
            let shard = format!("{index}/2");
            let out = lab(&[
                "run",
                "--suite",
                "quick",
                "--adaptive",
                "--shard",
                &shard,
                "--json",
                &path,
            ]);
            assert!(out.status.success(), "shard {shard}: {out:?}");
            parts.push(path);
        }
        let merged_json = dir.join("merged.json").display().to_string();
        let merged_md = dir.join("merged.md").display().to_string();
        let out = lab(&[
            "merge",
            &parts[0],
            &parts[1],
            "--json",
            &merged_json,
            "--md",
            &merged_md,
        ]);
        assert!(out.status.success(), "adaptive merge: {out:?}");
        assert_eq!(
            std::fs::read(&merged_json).unwrap(),
            std::fs::read(&full_json).unwrap(),
            "merged adaptive JSON differs from the single-process run"
        );
        assert_eq!(
            std::fs::read(&merged_md).unwrap(),
            std::fs::read(&full_md).unwrap(),
        );
    }

    /// `lab diff` names both schema tags when two *full* reports come from
    /// different generations.
    #[test]
    fn diff_names_both_tags_on_full_report_schema_mismatch() {
        let dir = workdir("diff");
        let a = dir.join("a.json").display().to_string();
        let b = dir.join("b.json").display().to_string();
        std::fs::write(
            &a,
            "{\"schema\": \"validity-lab/report@1\", \"cells\": []}\n",
        )
        .unwrap();
        std::fs::write(
            &b,
            "{\"schema\": \"validity-lab/report@2\", \"cells\": []}\n",
        )
        .unwrap();
        let out = lab(&["diff", &a, &b]);
        assert!(!out.status.success(), "diff accepted mismatched schemas");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("schema-version mismatch")
                && err.contains("report@1")
                && err.contains("report@2"),
            "unhelpful error: {err}"
        );
    }

    /// A cap below the *default* batch shrinks the batch instead of
    /// erroring about a flag the user never passed.
    #[test]
    fn small_cap_without_explicit_batch_clamps_the_default() {
        let out = lab(&[
            "run",
            "--suite",
            "quick",
            "--adaptive",
            "--max-seeds",
            "1",
            "--dry-run",
        ]);
        assert!(out.status.success(), "{out:?}");
        let msg = String::from_utf8_lossy(&out.stdout);
        assert!(
            msg.contains("batches of 1 up to 1 seed(s)/group"),
            "default batch not clamped: {msg}"
        );
    }

    /// Bad adaptive flags are rejected up front.
    #[test]
    fn degenerate_sampling_flags_are_rejected() {
        for args in [
            ["--precision", "nan"],
            ["--precision", "-0.5"],
            ["--batch", "0"],
            ["--max-seeds", "0"],
            // A pilot batch larger than the cap contradicts itself.
            ["--batch", "99"],
        ] {
            let out = lab(&["run", "--suite", "quick", args[0], args[1], "--dry-run"]);
            assert!(!out.status.success(), "accepted {} {}", args[0], args[1]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(args[0]), "unhelpful error: {err}");
        }
    }
}
