//! The observe/profile surfaces end-to-end through the `lab` binary:
//! `--observe` must not change canonical report bytes, and `lab run
//! --observe` / `lab profile` must actually emit their artifacts.

use std::path::PathBuf;
use std::process::Command;

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

/// `lab profile` prints every section and exports the requested timeline.
#[test]
fn profile_prints_sections_and_exports_timelines() {
    let dir = workdir("profile");
    let base = dir.join("hot").display().to_string();
    let out = Command::new(LAB)
        .args([
            "profile",
            "--suite",
            "quick",
            "--top",
            "3",
            "--timeline",
            &base,
        ])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in [
        "# Profile: quick",
        "## Hottest cells by events",
        "## Hottest cells by wall clock",
        "## Occupancy",
    ] {
        assert!(stdout.contains(section), "missing {section}:\n{stdout}");
    }
    assert!(!stdout.contains("Phases"), "phase table is back:\n{stdout}");
    assert!(std::fs::read_to_string(format!("{base}.jsonl"))
        .unwrap()
        .contains("\"kind\""));
    assert!(std::fs::read_to_string(format!("{base}.trace.json"))
        .unwrap()
        .contains("traceEvents"));
    // Unknown suites and unknown cells fail loudly.
    let out = Command::new(LAB)
        .args(["profile", "--suite", "no-such-suite"])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success());
    let out = Command::new(LAB)
        .args([
            "profile",
            "--suite",
            "quick",
            "--timeline",
            &base,
            "--cell",
            "no-such-cell",
        ])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success(), "unknown cell label must fail");
}
