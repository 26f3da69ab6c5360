//! The historical trend gate, end-to-end through the `lab` binary: a
//! synthetically regressed baseline must flip the exit code, because that
//! exit code is exactly what CI gates on.

use std::path::{Path, PathBuf};
use std::process::Command;

use validity_lab::{suites, BenchArtifact, SweepEngine};

const LAB: &str = env!("CARGO_BIN_EXE_lab");

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lab-trend-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// A merged-report file for a small fit-bearing sweep (the `nonauth`
/// suite trimmed to its three smallest sizes), produced through the
/// library so the test spends its budget on the CLI paths under test.
fn write_report(dir: &Path) -> String {
    let mut m = suites::build("nonauth").expect("built-in suite");
    m.systems.truncate(3);
    let (report, _) = SweepEngine::new(2).run(&m);
    assert!(!report.fits.is_empty());
    let path = dir.join("nonauth.json").display().to_string();
    std::fs::write(&path, report.to_json()).expect("write report");
    path
}

#[test]
fn trend_gate_passes_on_itself_and_fails_on_a_regressed_baseline() {
    let dir = workdir("gate");
    let report = write_report(&dir);
    let bench = dir.join("bench.json").display().to_string();

    // Assemble the artifact from the report file; nothing is out of band,
    // so with no baseline the gate passes.
    let out = Command::new(LAB)
        .args(["trend", "--from-reports", &report, "--out", &bench])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "trend failed on a healthy sweep: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Against itself as baseline: zero drift, still passing.
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--baseline",
            &bench,
            "--out",
            &dir.join("bench2.json").display().to_string(),
        ])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "self-baseline regressed: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Synthetically regress the baseline: shift the first recorded
    // exponent far outside any tolerance, as if history said the sweep
    // used to be much cheaper.
    let text = std::fs::read_to_string(&bench).expect("read artifact");
    let mut baseline = BenchArtifact::parse(&text).expect("parse artifact");
    let fit = baseline
        .suites
        .iter_mut()
        .flat_map(|s| s.fits.iter_mut())
        .find_map(|f| f.fit.as_mut())
        .expect("artifact carries a fitted exponent");
    fit.exponent -= 1.0;
    let regressed = dir.join("regressed.json").display().to_string();
    std::fs::write(&regressed, baseline.to_json()).expect("write baseline");

    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--baseline",
            &regressed,
            "--out",
            &dir.join("bench3.json").display().to_string(),
        ])
        .output()
        .expect("spawn lab");
    assert!(
        !out.status.success(),
        "trend passed against a regressed baseline"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DRIFT"), "no drift row rendered:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("regression"),
        "no regression summary:\n{stderr}"
    );

    // A generous tolerance waives the same drift.
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--baseline",
            &regressed,
            "--tolerance",
            "5.0",
            "--out",
            &dir.join("bench4.json").display().to_string(),
        ])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "tolerance not honored: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn update_baseline_regenerates_the_file_in_place_with_stable_shape() {
    let dir = workdir("update");
    let report = write_report(&dir);
    let baseline = dir.join("baseline.json").display().to_string();
    let bench = dir.join("bench.json").display().to_string();

    // Seed a stale baseline whose exponent has drifted far from today's
    // measurement: gating against it must fail...
    let out = Command::new(LAB)
        .args(["trend", "--from-reports", &report, "--out", &bench])
        .output()
        .expect("spawn lab");
    assert!(out.status.success(), "{out:?}");
    let mut stale = BenchArtifact::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
    stale.suites[0].fits[0].fit.as_mut().unwrap().exponent += 2.0;
    std::fs::write(&baseline, stale.to_json()).unwrap();
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--baseline",
            &baseline,
            "--out",
            &bench,
        ])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success(), "stale baseline must gate");

    // ...until --update-baseline regenerates it in place.
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--update-baseline",
            "--baseline",
            &baseline,
            "--out",
            &bench,
        ])
        .output()
        .expect("spawn lab");
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
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &report,
            "--baseline",
            &baseline,
            "--out",
            &bench,
        ])
        .output()
        .expect("spawn lab");
    assert!(
        out.status.success(),
        "updated baseline still regresses: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn trend_rejects_degenerate_tolerances() {
    // A NaN tolerance would make every drift comparison false and so
    // silently disable the gate; negative would flag everything.
    for bad in ["nan", "inf", "-0.5", "abc"] {
        let out = Command::new(LAB)
            .args(["trend", "--from-reports", "x.json", "--tolerance", bad])
            .output()
            .expect("spawn lab");
        assert!(!out.status.success(), "accepted --tolerance {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("tolerance"), "unhelpful error: {err}");
    }
}

#[test]
fn trend_from_reports_rejects_partial_artifacts() {
    let dir = workdir("reject");
    let partial = dir.join("part.json").display().to_string();
    let out = Command::new(LAB)
        .args([
            "run", "--suite", "quick", "--shard", "1/2", "--json", &partial,
        ])
        .output()
        .expect("spawn lab");
    assert!(out.status.success(), "{out:?}");
    let out = Command::new(LAB)
        .args([
            "trend",
            "--from-reports",
            &partial,
            "--out",
            &dir.join("bench.json").display().to_string(),
        ])
        .output()
        .expect("spawn lab");
    assert!(!out.status.success(), "trend accepted a partial report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lab merge"), "unhelpful error: {err}");
}
