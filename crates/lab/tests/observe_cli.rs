//! The observe surface end-to-end through the `lab` binary: `--observe`
//! must not change canonical report bytes, and `lab run --observe` must
//! actually emit its artifacts — for a one-cell run, that cell's timeline.

use std::path::PathBuf;
use std::process::Command;

use validity_lab::{suites, timeline_for};

const LAB: &str = env!("CARGO_BIN_EXE_lab");

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lab-observe-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// `--observe` is the CLI's determinism smoke in miniature: the canonical
/// JSON report must be byte-identical with and without observation, and
/// the side artifacts (observe JSON + timeline exports) must appear.
#[test]
fn observe_leaves_canonical_reports_untouched_and_emits_artifacts() {
    let dir = workdir("observe");
    let plain = dir.join("plain.json").display().to_string();
    let observed = dir.join("observed.json").display().to_string();
    for (path, extra) in [(&plain, None), (&observed, Some("--observe"))] {
        let md = format!("{}.md", path.strip_suffix(".json").unwrap());
        let mut args = vec!["run", "--suite", "quick", "--json", path, "--md", &md];
        if let Some(flag) = extra {
            args.push(flag);
        }
        let out = Command::new(LAB).args(&args).output().expect("spawn lab");
        assert!(
            out.status.success(),
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read_to_string(&plain).unwrap(),
        std::fs::read_to_string(&observed).unwrap(),
        "--observe changed the canonical JSON report"
    );
    // The observed run's Markdown gains the non-canonical section...
    let md = std::fs::read_to_string(dir.join("observed.md")).unwrap();
    assert!(md.contains("## Observability"));
    assert!(!std::fs::read_to_string(dir.join("plain.md"))
        .unwrap()
        .contains("## Observability"));
    // ...and the side artifacts exist and are tagged.
    let observe_json = std::fs::read_to_string(dir.join("observed.observe.json")).unwrap();
    assert!(observe_json.contains("validity-lab/observe@1"));
    let jsonl = std::fs::read_to_string(dir.join("observed.timeline.jsonl")).unwrap();
    assert!(jsonl.lines().count() > 0);
    let trace = std::fs::read_to_string(dir.join("observed.timeline.trace.json")).unwrap();
    assert!(trace.contains("traceEvents"));
}

/// One chosen cell's timeline is the `--observe` export of a one-cell
/// `lab run`: the cell's own axis flags and a one-seed range make a matrix
/// whose hottest cell is that cell, so the exported JSONL is byte for byte
/// the suite cell's replay.
#[test]
fn one_cell_observe_exports_that_cells_timeline() {
    let dir = workdir("one-cell");
    let json = dir.join("one.json").display().to_string();
    let md = dir.join("one.md").display().to_string();
    let out = Command::new(LAB)
        .args([
            "run",
            "--protocols",
            "universal/alg1-auth",
            "--validities",
            "strong",
            "--behaviors",
            "stale",
            "--schedules",
            "partial-sync",
            "--systems",
            "4,1",
            "--faults",
            "max",
            "--seeds",
            "1..2",
            "--observe",
            "--json",
            &json,
            "--md",
            &md,
        ])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let label = "run/universal/alg1-auth/strong/stalex1/partial-sync/n4t1/s1";
    let quick = suites::build("quick").expect("built-in suite");
    let want = timeline_for(&quick, label).expect("a quick run cell");
    assert_eq!(
        std::fs::read_to_string(dir.join("one.timeline.jsonl")).unwrap(),
        want.to_jsonl()
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("one.timeline.trace.json")).unwrap(),
        want.to_chrome_trace()
    );
}

/// `--observe` writes its side artifacts beside `--json`; a `--md` that
/// names one of them is refused by name before any work, so neither
/// report nor artifact is written.
#[test]
fn an_md_path_clashing_with_an_observe_artifact_is_refused() {
    let dir = workdir("clash");
    let json = dir.join("a.json").display().to_string();
    for artifact in [
        "a.observe.json",
        "a.timeline.jsonl",
        "a.timeline.trace.json",
    ] {
        let md = dir.join(artifact).display().to_string();
        let out = Command::new(LAB)
            .args([
                "run",
                "--suite",
                "quick",
                "--observe",
                "--json",
                &json,
                "--md",
                &md,
            ])
            .output()
            .expect("spawn lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{artifact}: accepted");
        assert!(
            stderr.contains("--md") && stderr.contains(artifact),
            "{stderr}"
        );
        assert!(!dir.join(artifact).exists() && !dir.join("a.json").exists());
    }
}

/// Unknown suites fail loudly.
#[test]
fn an_unknown_suite_fails() {
    let out = Command::new(LAB)
        .args(["run", "--suite", "no-such-suite"])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite 'no-such-suite'"));
}
