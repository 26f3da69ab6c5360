//! The historical trend gate, end-to-end through the `lab` binary: a
//! synthetically regressed baseline must flip the exit code, because that
//! exit code is exactly what CI gates on.

use std::path::PathBuf;
use std::process::{Command, Output};

use validity_lab::BenchArtifact;

const LAB: &str = env!("CARGO_BIN_EXE_lab");

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lab-trend-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// `lab trend` over the `complexity` suite (72 cells with banded fits),
/// with `extra` flags appended.
fn trend(out: &str, extra: &[&str]) -> Output {
    Command::new(LAB)
        .args(["trend", "--suites", "complexity", "--out", out])
        .args(extra)
        .output()
        .expect("spawn lab")
}

#[test]
fn trend_gate_passes_on_itself_and_fails_on_a_regressed_baseline() {
    let dir = workdir("gate");
    let bench = dir.join("bench.json").display().to_string();

    // Nothing is out of band, so with no baseline the gate passes.
    let out = trend(&bench, &[]);
    assert!(
        out.status.success(),
        "trend failed on a healthy sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Against itself as baseline: zero drift, still passing.
    let out = trend(
        &dir.join("bench2.json").display().to_string(),
        &["--baseline", &bench],
    );
    assert!(
        out.status.success(),
        "self-baseline regressed: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Synthetically regress the baseline: shift the first recorded
    // exponent far outside any tolerance, as if history said the sweep
    // used to be much cheaper, and record a fit group the sweep no longer
    // produces.
    let text = std::fs::read_to_string(&bench).expect("read artifact");
    let mut baseline = BenchArtifact::parse(&text).expect("parse artifact");
    let fits = &mut baseline.suites[0].fits;
    let mut vanished = fits[0].clone();
    vanished.key.push_str("/vanished");
    fits.push(vanished);
    fits[0]
        .fit
        .as_mut()
        .expect("artifact carries a fitted exponent")
        .exponent -= 1.0;
    let regressed = dir.join("regressed.json").display().to_string();
    std::fs::write(&regressed, baseline.to_json()).expect("write baseline");

    let out = trend(
        &dir.join("bench3.json").display().to_string(),
        &["--baseline", &regressed],
    );
    assert!(
        !out.status.success(),
        "trend passed against a regressed baseline"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("✘ DRIFT"),
        "no drift row rendered:\n{stdout}"
    );
    assert!(
        stdout.contains("✘ REMOVED"),
        "no removed row rendered:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 regression(s)"),
        "no regression summary:\n{stderr}"
    );

    // A generous tolerance waives the drift, never the vanished group.
    let out = trend(
        &dir.join("bench4.json").display().to_string(),
        &["--baseline", &regressed, "--tolerance", "5.0"],
    );
    assert!(!out.status.success(), "a tolerance waived a removed group");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 regression(s)"),
        "tolerance not honored:\n{stderr}"
    );
}

#[test]
fn update_baseline_regenerates_the_file_in_place_with_stable_shape() {
    let dir = workdir("update");
    let baseline = dir.join("baseline.json").display().to_string();
    let bench = dir.join("bench.json").display().to_string();

    // Seed a stale baseline whose exponent has drifted far from today's
    // measurement: gating against it must fail...
    let out = trend(&bench, &[]);
    assert!(out.status.success(), "{out:?}");
    let mut stale = BenchArtifact::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    stale.suites[0].fits[0].fit.as_mut().unwrap().exponent += 2.0;
    std::fs::write(&baseline, stale.to_json()).unwrap();
    let out = trend(&bench, &["--baseline", &baseline]);
    assert!(!out.status.success(), "stale baseline must gate");

    // ...until --update-baseline regenerates it in place.
    let out = trend(&bench, &["--update-baseline", "--baseline", &baseline]);
    assert!(
        out.status.success(),
        "update failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("baseline updated"));
    // The regenerated file has the canonical schema tag and key order —
    // byte-identical to the emitted artifact, so its git diff is minimal.
    let updated = std::fs::read_to_string(&baseline).unwrap();
    assert_eq!(updated, std::fs::read_to_string(&bench).unwrap());
    assert!(updated.starts_with("{\n  \"schema\": \"validity-lab/bench@3\","));

    // And the fresh baseline now gates clean.
    let out = trend(&bench, &["--baseline", &baseline]);
    assert!(
        out.status.success(),
        "updated baseline still regresses: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn trend_rejects_degenerate_tolerances() {
    // A NaN tolerance would make every drift comparison false and so
    // silently disable the gate; negative would flag everything. The
    // tolerance is read before any sweep runs.
    for bad in ["nan", "inf", "-0.5", "abc"] {
        let out = Command::new(LAB)
            .args(["trend", "--tolerance", bad])
            .output()
            .expect("spawn lab");
        assert!(!out.status.success(), "accepted --tolerance {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("tolerance"), "unhelpful error: {err}");
    }
}
