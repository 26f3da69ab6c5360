//! The `lab perf` gate, end-to-end through the `lab` binary, on both
//! artifacts it reads (engine events/sec and service decisions/sec): a
//! synthetically regressed baseline must flip the exit code (that exit
//! code is what the CI `perf-smoke` job gates on), `--observe` must not
//! change canonical report bytes, and the observe/profile surfaces must
//! actually emit their artifacts.

use std::path::{Path, PathBuf};
use std::process::Command;

const LAB: &str = env!("CARGO_BIN_EXE_lab");

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lab-perf-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// A plausible engine artifact in the exact layout `perf_smoke` emits —
/// the gate compares rates, it never re-measures, so synthetic numbers
/// exercise every path. `rate` is the second sample's gated rate, `drift`
/// is added to the first sample's must-not-move count.
fn simnet_text(rate: f64, drift: u64) -> String {
    format!(
        "{{\n  \"schema\": \"validity-simnet/bench@1\",\n  \
         \"workload\": \"broadcast_heavy_4n_words\",\n  \"rounds\": 12,\n  \
         \"shapes\": [\n    {{\"n\": 4, \"events_per_iter\": {}, \
         \"best_us_per_iter\": 400.000, \"events_per_sec\": 9682500}},\n    \
         {{\"n\": 64, \"events_per_iter\": 164161, \"best_us_per_iter\": \
         30000.000, \"events_per_sec\": {rate:.0}}}\n  ]\n}}\n",
        3873 + drift
    )
}

/// The same for the service artifact, in the canonical layout `lab perf
/// --update-baseline` writes (the `service_smoke` layout minus its advisory
/// wall-clock fields).
fn service_text(rate: f64, drift: u64) -> String {
    format!(
        "{{\n  \"schema\": \"validity-lab/service-bench@1\",\n  \
         \"suite\": \"service\",\n  \"runs\": 64,\n  \"decisions\": 256,\n  \
         \"requests\": 1152,\n  \"groups\": [\n    \
         {{\"key\": \"service/k4p1b1\", \"decisions_per_sec_milli\": 2377, \
         \"requests_per_sec_milli\": 2377, \"messages_per_decision_centi\": {}}},\n    \
         {{\"key\": \"service/k4p2b1\", \"decisions_per_sec_milli\": {rate:.0}, \
         \"requests_per_sec_milli\": 4509, \"messages_per_decision_centi\": 5575}}\n  ]\n}}\n",
        5600 + drift
    )
}

/// Writes an artifact with the given second-sample rate and pinned-count
/// drift.
type Writer = fn(f64, u64) -> String;

/// Both artifact kinds `lab perf` gates: schema tag and writer.
const KINDS: [(&str, Writer); 2] = [
    ("validity-simnet/bench@1", simnet_text),
    ("validity-lab/service-bench@1", service_text),
];

fn write(dir: &Path, name: &str, text: String) -> String {
    let path = dir.join(name).display().to_string();
    std::fs::write(&path, text).expect("write bench artifact");
    path
}

fn perf(args: &[&str]) -> std::process::Output {
    Command::new(LAB)
        .arg("perf")
        .args(args)
        .output()
        .expect("spawn lab")
}

#[test]
fn perf_gate_passes_on_itself_and_fails_on_a_regressed_baseline() {
    for (i, (schema, text)) in KINDS.into_iter().enumerate() {
        let dir = workdir(&format!("gate{i}"));
        let bench = write(&dir, "bench.json", text(5.0e6, 0));

        // Against itself: zero movement, passing.
        let out = perf(&["--bench", &bench, "--baseline", &bench]);
        assert!(
            out.status.success(),
            "{schema}: self-baseline regressed: {}",
            String::from_utf8_lossy(&out.stdout)
        );

        // History claims the second sample used to be 4× faster: the
        // current artifact is a >50% slowdown, so the default tolerance
        // (0.5 for the engine, 0.0 for the service) gates.
        let fast_past = write(&dir, "fast.json", text(2.0e7, 0));
        let out = perf(&["--bench", &bench, "--baseline", &fast_past]);
        assert!(!out.status.success(), "{schema}: perf passed a 4x slowdown");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("SLOWDOWN"),
            "{schema}: no slowdown row:\n{stdout}"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("PERF FAILURE"),
            "{schema}: no failure summary"
        );

        // A generous tolerance waives the same slowdown.
        let out = perf(&[
            "--bench",
            &bench,
            "--baseline",
            &fast_past,
            "--tolerance",
            "0.9",
        ]);
        assert!(
            out.status.success(),
            "{schema}: tolerance not honored: {}",
            String::from_utf8_lossy(&out.stdout)
        );

        // But no tolerance waives drift: same rates, a different pinned
        // count means the deterministic workload itself changed.
        let drifted = write(&dir, "drift.json", text(5.0e6, 1));
        let out = perf(&[
            "--bench",
            &drifted,
            "--baseline",
            &bench,
            "--tolerance",
            "100",
        ]);
        assert!(
            !out.status.success(),
            "{schema}: drift slipped past the gate"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("EVENT DRIFT"),
            "{schema}: no drift row"
        );
    }
}

#[test]
fn perf_update_baseline_writes_the_canonical_layout() {
    for (i, (schema, text)) in KINDS.into_iter().enumerate() {
        let dir = workdir(&format!("update{i}"));
        let bench = write(&dir, "bench.json", text(5.0e6, 0));
        let baseline = dir.join("baseline.json").display().to_string();

        let out = perf(&[
            "--bench",
            &bench,
            "--baseline",
            &baseline,
            "--update-baseline",
        ]);
        assert!(
            out.status.success(),
            "{schema}: update failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("baseline updated"));
        // The written baseline is the canonical rendering (here: byte-equal
        // to the emitter-layout input) and immediately gates clean.
        let updated = std::fs::read_to_string(&baseline).unwrap();
        assert_eq!(updated, std::fs::read_to_string(&bench).unwrap());
        assert!(updated.starts_with(&format!("{{\n  \"schema\": \"{schema}\",")));
        let out = perf(&["--bench", &bench, "--baseline", &baseline]);
        assert!(out.status.success(), "{schema}: fresh baseline still gates");
    }
}

#[test]
fn perf_rejects_degenerate_tolerances_and_foreign_artifacts() {
    for bad in ["nan", "inf", "-0.5", "abc"] {
        let out = Command::new(LAB)
            .args(["perf", "--tolerance", bad])
            .output()
            .expect("spawn lab");
        assert!(!out.status.success(), "accepted --tolerance {bad}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("tolerance"),
            "unhelpful error"
        );
    }
    // A lab trend artifact is not a simnet bench artifact.
    let dir = workdir("foreign");
    let foreign = dir.join("foreign.json").display().to_string();
    std::fs::write(
        &foreign,
        "{\"schema\": \"validity-lab/bench@3\", \"suites\": []}",
    )
    .unwrap();
    let out = Command::new(LAB)
        .args(["perf", "--bench", &foreign, "--baseline", &foreign])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success(), "accepted a foreign schema");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unsupported simnet bench schema"),
        "unhelpful error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
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
        "## Phases",
        "## Hottest cells by events",
        "## Hottest cells by wall clock",
        "## Occupancy",
    ] {
        assert!(stdout.contains(section), "missing {section}:\n{stdout}");
    }
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
