//! Per-schedule golden fingerprints: the byte-identity safety net of the
//! network-model layer.
//!
//! The quick-suite fingerprints (`golden_report.rs`) only exercise the
//! `sync` and `partial-sync` schedules. The hashes below pin a small
//! fixed-seed sweep for **each** of the four legacy schedules —
//! including `fixed-slow` and `isolate-p1`, whose delay paths
//! (`FixedModel` / `PerLinkModel`) the quick suite never runs. They were
//! recorded from the engine that predates `NetModel`; every later engine
//! must reproduce the same report bytes exactly, at worker counts 1 and
//! default.
//!
//! If this test fails, a legacy schedule's draw sequence drifted (see
//! the two-draw invariant on `Simulation::arrival_plan`). Do **not**
//! regenerate the hashes unless the drift is intentional and every
//! committed baseline is regenerated with it.

use validity_adversary::BehaviorId;
use validity_crypto::sha256;
use validity_lab::{
    ProtocolAxis, ScenarioMatrix, ScheduleSpec, SweepEngine, SweepReport, ValiditySpec,
};

/// `(schedule name, SHA-256 of `SweepReport::to_json()`)` for the fixed
/// per-schedule sweep built by [`schedule_matrix`].
const LEGACY_SCHEDULE_JSON: [(&str, &str); 4] = [
    (
        "sync",
        "7d15e43c23351e3dca3a918b8e8b9f6a5087820952f1880d14dabc09c9a54391",
    ),
    (
        "partial-sync",
        "bfb83bb0e446b641ec1d718d53fe5b04fbca941bc6738b0a5df567a17dd51a32",
    ),
    (
        "fixed-slow",
        "46404591a085ba7f073c6a3fbf3784b970f77f07435408e159fd627469e870a3",
    ),
    (
        "isolate-p1",
        "892865c5ce9037fed74faedc0586b807a31676d97f8c7258f93f4a05edac2150",
    ),
];

/// A small fixed matrix that still exercises both the pre- and post-GST
/// delay paths of one schedule: the universal wrapper over the
/// authenticated engine, two behaviors (one silent, one equivocating),
/// max fault load, two system sizes, three seeds.
fn schedule_matrix(schedule: ScheduleSpec) -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new(format!("golden-{}", schedule.name()));
    m.protocols = vec![ProtocolAxis::parse("universal/alg1-auth").expect("registered protocol")];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    m.faults = vec![usize::MAX];
    m.schedules = vec![schedule];
    m.systems = vec![(4, 1), (7, 2)];
    m.seeds = 0..3;
    m
}

fn schedule_report(schedule: ScheduleSpec, threads: usize) -> SweepReport {
    let (report, _) = SweepEngine::new(threads).run(&schedule_matrix(schedule));
    report
}

#[test]
fn every_legacy_schedule_matches_its_pre_netmodel_fingerprint() {
    for (name, want) in LEGACY_SCHEDULE_JSON {
        let schedule = ScheduleSpec::parse(name).expect("legacy schedule is registered");
        for threads in [1, 0] {
            let report = schedule_report(schedule, threads);
            assert_eq!(
                sha256(report.to_json()).to_hex(),
                want,
                "schedule '{name}' JSON drifted from the pre-NetModel engine (threads {threads})"
            );
        }
    }
}
