//! The engine events/sec baseline gate.
//!
//! The `perf_smoke` example (`crates/simnet/examples/perf_smoke.rs`)
//! measures the simulator's hot path — events/second on the
//! broadcast-heavy workload at three shapes — and writes a small
//! `validity-simnet/bench@1` artifact. This module makes that artifact
//! *enforceable*, the same way [`crate::trend`] armed `BENCH_lab.json`:
//! [`SimnetBench`] is the versioned model of the file, and [`compare`]
//! diffs a fresh measurement against a committed baseline
//! (`ci/BENCH_simnet_baseline.json`).
//!
//! Three things are regressions (`lab perf` exits non-zero on any):
//!
//! * **Slowdown** — a shape's events/sec fell below
//!   `(1 − tolerance) × baseline`. Wall clock on shared runners is noisy,
//!   so the default tolerance is generous; best-of-N timing in the
//!   emitter does the rest.
//! * **Drift** — a shape's `events_per_iter` changed. The workload is
//!   seeded and deterministic, so this never moves with hardware: it
//!   means the engine's event accounting changed and the baseline must be
//!   refreshed deliberately (`--update-baseline`), not waved through.
//! * **Missing shape** — a shape in the baseline is absent from the
//!   current artifact: coverage vanished.
//!
//! Speedups and brand-new shapes are reported but never gated. The parser
//! ignores unknown fields and refuses only an explicitly *different*
//! schema tag, mirroring [`crate::trend::BenchArtifact::parse`].
//!
//! The same gate serves the **service throughput** artifact
//! (`validity-lab/service-bench@1`, written by the `service_smoke`
//! example): [`ServiceBench`] models its deterministic core — simulated
//! decisions/sec per report group, a pure function of the seeded
//! execution — gated against `ci/BENCH_service_baseline.json`, where a
//! changed amortized message cost is the drift. Because those rates are
//! simulated time rather than wall clock, the default tolerance there is
//! zero: any drop is a real pipeline regression. Both artifact types are
//! [`PerfArtifact`]s — each yields its [`PerfSample`]s and names its
//! defaults and table wording — and `lab perf` picks the type from the
//! artifact's schema tag.

use std::fmt;
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::json_str;

/// Schema tag of the simnet bench artifact (written by `perf_smoke`).
pub const SIMNET_BENCH_SCHEMA: &str = "validity-simnet/bench@1";

/// One measured shape: the workload at one system size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimnetShape {
    /// System size.
    pub n: u64,
    /// Events the seeded run processes — deterministic, hardware-free.
    pub events_per_iter: u64,
    /// Best-of-N microseconds per iteration.
    pub best_us_per_iter: f64,
    /// `events_per_iter / best_seconds` — the gated rate.
    pub events_per_sec: f64,
}

/// The whole simnet bench artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct SimnetBench {
    /// Workload name (`broadcast_heavy_4n_words`).
    pub workload: String,
    /// Timing rounds the emitter took the best of.
    pub rounds: u64,
    /// Measured shapes, in artifact order.
    pub shapes: Vec<SimnetShape>,
}

/// Engine events/sec: wall-clock rates, so the default tolerance is
/// generous; a changed `events_per_iter` is the drift.
impl PerfArtifact for SimnetBench {
    const DEFAULT_TOLERANCE: f64 = 0.5;
    const DEFAULT_BASELINE: &'static str = "ci/BENCH_simnet_baseline.json";
    const TABLE: PerfTable = PerfTable {
        title: "Engine events/sec",
        noun: "shape",
        label: "n",
        unit: "ev/s",
        precision: 0,
    };

    /// Unknown fields are ignored; a file tagged with a *different* schema
    /// is refused (an untagged file is accepted as the current generation
    /// — there has only ever been one).
    fn parse(text: &str) -> Result<SimnetBench, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            None | Some(SIMNET_BENCH_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported simnet bench schema '{other}' (this lab reads \
                     '{SIMNET_BENCH_SCHEMA}')"
                ))
            }
        }
        let shapes = v
            .get("shapes")
            .and_then(Json::as_arr)
            .ok_or("simnet bench artifact missing 'shapes'")?
            .iter()
            .map(|s| {
                Ok(SimnetShape {
                    n: s.get("n")
                        .and_then(Json::as_u64)
                        .ok_or("shape missing 'n'")?,
                    events_per_iter: s
                        .get("events_per_iter")
                        .and_then(Json::as_u64)
                        .ok_or("shape missing 'events_per_iter'")?,
                    best_us_per_iter: s
                        .get("best_us_per_iter")
                        .and_then(Json::as_num)
                        .ok_or("shape missing 'best_us_per_iter'")?,
                    events_per_sec: s
                        .get("events_per_sec")
                        .and_then(Json::as_num)
                        .ok_or("shape missing 'events_per_sec'")?,
                })
            })
            .collect::<Result<Vec<SimnetShape>, String>>()?;
        Ok(SimnetBench {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            rounds: v.get("rounds").and_then(Json::as_u64).unwrap_or(0),
            shapes,
        })
    }

    /// The exact layout `perf_smoke` emits, so a baseline written by
    /// `--update-baseline` is byte-identical to one copied from a fresh
    /// measurement.
    fn to_json(&self) -> String {
        let mut shapes = String::new();
        for (i, s) in self.shapes.iter().enumerate() {
            if i > 0 {
                shapes.push_str(",\n");
            }
            let _ = write!(
                shapes,
                "    {{\"n\": {}, \"events_per_iter\": {}, \
                 \"best_us_per_iter\": {:.3}, \"events_per_sec\": {:.0}}}",
                s.n, s.events_per_iter, s.best_us_per_iter, s.events_per_sec
            );
        }
        format!(
            "{{\n  \"schema\": {},\n  \"workload\": {},\n  \
             \"rounds\": {},\n  \"shapes\": [\n{shapes}\n  ]\n}}\n",
            json_str(SIMNET_BENCH_SCHEMA),
            json_str(&self.workload),
            self.rounds
        )
    }

    fn identity(&self) -> (&'static str, &str) {
        ("workload", &self.workload)
    }

    fn samples(&self) -> Vec<PerfSample> {
        self.shapes
            .iter()
            .map(|s| PerfSample {
                label: s.n.to_string(),
                rate: s.events_per_sec,
                pinned: s.events_per_iter,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Baseline comparison

/// Verdict for one shape across the two artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PerfStatus {
    /// Present in both, rate within tolerance, event count unchanged.
    Ok,
    /// Present only in the current artifact (informational).
    New,
    /// Present only in the baseline — coverage vanished (regression).
    Missing,
    /// `events_per_iter` changed: the deterministic workload now takes a
    /// different number of events, so the rates are not comparable and
    /// the baseline needs a deliberate refresh (regression).
    Drift,
    /// Events/sec fell below `(1 − tolerance) × baseline` (regression).
    Slowdown,
}

impl PerfStatus {
    /// Whether this status fails the perf gate.
    pub fn is_regression(self) -> bool {
        matches!(
            self,
            PerfStatus::Missing | PerfStatus::Drift | PerfStatus::Slowdown
        )
    }

    /// The label rendered in the diff table.
    pub fn label(self) -> &'static str {
        match self {
            PerfStatus::Ok => "ok",
            PerfStatus::New => "new",
            PerfStatus::Missing => "✘ MISSING",
            PerfStatus::Drift => "✘ EVENT DRIFT",
            PerfStatus::Slowdown => "✘ SLOWDOWN",
        }
    }
}

impl fmt::Display for PerfStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One gated measurement of an artifact: what [`compare`] matches, pins
/// and rates.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfSample {
    /// What the two artifacts are matched by (a shape's `n`, a group key).
    pub label: String,
    /// The gated rate, in the unit the table prints.
    pub rate: f64,
    /// A deterministic count that must not move between the artifacts
    /// (events per iteration, amortized messages per decision): a change
    /// is a [`PerfStatus::Drift`], never waived by the tolerance.
    pub pinned: u64,
}

/// The wording of one artifact type's diff table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerfTable {
    /// What is gated (`Engine events/sec`).
    pub title: &'static str,
    /// What a row is, in the summary line (`shape`).
    pub noun: &'static str,
    /// Header of the label column (`n`).
    pub label: &'static str,
    /// Unit suffix of the two rate columns (`ev/s`).
    pub unit: &'static str,
    /// Decimals the rates print with.
    pub precision: usize,
}

/// A bench artifact type `lab perf` can gate: its file format, its
/// defaults, and the samples it yields.
pub trait PerfArtifact: Sized {
    /// The slowdown tolerance when `--tolerance` is not given.
    const DEFAULT_TOLERANCE: f64;
    /// The baseline path when `--baseline` is not given.
    const DEFAULT_BASELINE: &'static str;
    /// The wording of the diff table.
    const TABLE: PerfTable;

    /// Parses an artifact of this type.
    fn parse(text: &str) -> Result<Self, String>;

    /// Renders the canonical (committed-baseline) layout.
    fn to_json(&self) -> String;

    /// `(field name, value)` of what the artifact measured — two artifacts
    /// with different identities are not comparable.
    fn identity(&self) -> (&'static str, &str);

    /// The gated measurements, in artifact order.
    fn samples(&self) -> Vec<PerfSample>;
}

/// One row of the perf diff table.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRow {
    /// The sample label both artifacts were matched by.
    pub label: String,
    /// Baseline rate, when the baseline had this sample.
    pub baseline_rate: Option<f64>,
    /// Current rate, when the current artifact has this sample.
    pub current_rate: Option<f64>,
    /// The verdict.
    pub status: PerfStatus,
}

/// The full diff of a current artifact against the committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfDiff {
    /// Per-sample verdicts, current-artifact order with missing baseline
    /// samples appended.
    pub rows: Vec<PerfRow>,
    /// The relative slowdown tolerance the verdicts used.
    pub tolerance: f64,
}

impl PerfDiff {
    /// Number of regression rows — the perf gate fails when non-zero.
    pub fn regressions(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.status.is_regression())
            .count() as u64
    }

    /// Renders the diff table as Markdown, in `table`'s wording.
    pub fn render_markdown(&self, table: &PerfTable) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} vs baseline (slowdown tolerance {:.0}%)\n",
            table.title,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "{} {}(s) compared, {} regression(s).\n",
            self.rows.len(),
            table.noun,
            self.regressions()
        );
        let _ = writeln!(
            out,
            "| {} | baseline {unit} | current {unit} | ratio | status |",
            table.label,
            unit = table.unit
        );
        out.push_str("|---|---|---|---|---|\n");
        let rate =
            |r: Option<f64>| r.map_or("-".to_string(), |v| format!("{v:.*}", table.precision));
        for r in &self.rows {
            let ratio = match (r.baseline_rate, r.current_rate) {
                (Some(b), Some(c)) if b > 0.0 => format!("{:.2}×", c / b),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                r.label,
                rate(r.baseline_rate),
                rate(r.current_rate),
                ratio,
                r.status,
            );
        }
        out
    }
}

/// Diffs `current` against `baseline`, matching samples by label.
///
/// `tolerance` is the relative slowdown waived before gating: `0.5` lets
/// a rate fall to half the baseline before failing; `0.0` (the default for
/// the deterministic service rates) gates any drop. Speedups and new
/// samples never gate; a changed pinned count or a vanished sample always
/// does.
///
/// ```
/// use validity_lab::perf::{compare, PerfArtifact, ServiceBench, SimnetBench};
///
/// let base = SimnetBench::parse(r#"{"shapes": [{"n": 4,
///     "events_per_iter": 100, "best_us_per_iter": 10.0,
///     "events_per_sec": 1e7}]}"#).unwrap();
/// let mut cur = base.clone();
/// assert_eq!(compare(&cur.samples(), &base.samples(), 0.5).regressions(), 0);
/// cur.shapes[0].events_per_sec = 4e6; // below half the baseline
/// assert_eq!(compare(&cur.samples(), &base.samples(), 0.5).regressions(), 1);
///
/// let base = ServiceBench::parse(r#"{"groups": [{"key": "g",
///     "decisions_per_sec_milli": 2000, "requests_per_sec_milli": 2000,
///     "messages_per_decision_centi": 3600}]}"#).unwrap();
/// let mut cur = base.clone();
/// assert_eq!(compare(&cur.samples(), &base.samples(), 0.0).regressions(), 0);
/// cur.groups[0].decisions_per_sec_milli = 1999; // any drop gates
/// assert_eq!(compare(&cur.samples(), &base.samples(), 0.0).regressions(), 1);
/// ```
pub fn compare(current: &[PerfSample], baseline: &[PerfSample], tolerance: f64) -> PerfDiff {
    let mut rows = Vec::new();
    let mut matched = vec![false; baseline.len()];
    for sample in current {
        let base = baseline
            .iter()
            .position(|b| b.label == sample.label)
            .map(|i| {
                matched[i] = true;
                &baseline[i]
            });
        let status = match base {
            None => PerfStatus::New,
            Some(b) if b.pinned != sample.pinned => PerfStatus::Drift,
            Some(b) if sample.rate < (1.0 - tolerance) * b.rate => PerfStatus::Slowdown,
            Some(_) => PerfStatus::Ok,
        };
        rows.push(PerfRow {
            label: sample.label.clone(),
            baseline_rate: base.map(|b| b.rate),
            current_rate: Some(sample.rate),
            status,
        });
    }
    for (b, _) in baseline.iter().zip(&matched).filter(|(_, m)| !**m) {
        rows.push(PerfRow {
            label: b.label.clone(),
            baseline_rate: Some(b.rate),
            current_rate: None,
            status: PerfStatus::Missing,
        });
    }
    PerfDiff { rows, tolerance }
}

// ---------------------------------------------------------------------------
// Service throughput gate

/// Schema tag of the service-bench artifact (written by the
/// `service_smoke` example).
pub const SERVICE_BENCH_SCHEMA: &str = "validity-lab/service-bench@1";

/// One report group of the service-bench artifact. All three rates are
/// **simulated-time** fixed-point numbers — pure functions of the seeded
/// execution, byte-deterministic and hardware-free, which is what makes
/// them gateable at all (the artifact's wall-clock fields stay advisory
/// and are never parsed here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceGroupBench {
    /// The service report group key.
    pub key: String,
    /// Simulated decisions/sec, thousandths — the gated rate.
    pub decisions_per_sec_milli: u64,
    /// Simulated client requests/sec, thousandths.
    pub requests_per_sec_milli: u64,
    /// Amortized messages per decision, hundredths.
    pub messages_per_decision_centi: u64,
}

/// The deterministic core of the service-bench artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceBench {
    /// Suite name (`service`).
    pub suite: String,
    /// Cells the suite ran.
    pub runs: u64,
    /// Total decisions committed across the suite.
    pub decisions: u64,
    /// Total client requests served across the suite.
    pub requests: u64,
    /// Per-group rates, in artifact order.
    pub groups: Vec<ServiceGroupBench>,
}

/// Service decisions/sec: *simulated-time* rates, deterministic, so the
/// default tolerance is zero — any drop is a genuine throughput regression
/// of the pipeline, not runner noise; a changed amortized message cost is
/// the drift.
impl PerfArtifact for ServiceBench {
    const DEFAULT_TOLERANCE: f64 = 0.0;
    const DEFAULT_BASELINE: &'static str = "ci/BENCH_service_baseline.json";
    const TABLE: PerfTable = PerfTable {
        title: "Service decisions/sec",
        noun: "group",
        label: "group",
        unit: "dec/s",
        precision: 3,
    };

    /// Unknown fields (including the advisory wall-clock ones) are
    /// ignored; a file tagged with a *different* schema is refused.
    fn parse(text: &str) -> Result<ServiceBench, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            None | Some(SERVICE_BENCH_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unsupported service bench schema '{other}' (this lab reads \
                     '{SERVICE_BENCH_SCHEMA}')"
                ))
            }
        }
        let groups = v
            .get("groups")
            .and_then(Json::as_arr)
            .ok_or("service bench artifact missing 'groups'")?
            .iter()
            .map(|g| {
                Ok(ServiceGroupBench {
                    key: g
                        .get("key")
                        .and_then(Json::as_str)
                        .ok_or("group missing 'key'")?
                        .to_string(),
                    decisions_per_sec_milli: g
                        .get("decisions_per_sec_milli")
                        .and_then(Json::as_u64)
                        .ok_or("group missing 'decisions_per_sec_milli'")?,
                    requests_per_sec_milli: g
                        .get("requests_per_sec_milli")
                        .and_then(Json::as_u64)
                        .ok_or("group missing 'requests_per_sec_milli'")?,
                    messages_per_decision_centi: g
                        .get("messages_per_decision_centi")
                        .and_then(Json::as_u64)
                        .ok_or("group missing 'messages_per_decision_centi'")?,
                })
            })
            .collect::<Result<Vec<ServiceGroupBench>, String>>()?;
        Ok(ServiceBench {
            suite: v
                .get("suite")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            runs: v.get("runs").and_then(Json::as_u64).unwrap_or(0),
            decisions: v.get("decisions").and_then(Json::as_u64).unwrap_or(0),
            requests: v.get("requests").and_then(Json::as_u64).unwrap_or(0),
            groups,
        })
    }

    /// The deterministic core of the artifact — the group layout matches
    /// the `service_smoke` emitter, but the advisory wall-clock fields are
    /// dropped, so a committed baseline never churns with runner hardware.
    fn to_json(&self) -> String {
        let mut groups = String::new();
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                groups.push_str(",\n");
            }
            let _ = write!(
                groups,
                "    {{\"key\": {}, \"decisions_per_sec_milli\": {}, \
                 \"requests_per_sec_milli\": {}, \"messages_per_decision_centi\": {}}}",
                json_str(&g.key),
                g.decisions_per_sec_milli,
                g.requests_per_sec_milli,
                g.messages_per_decision_centi
            );
        }
        format!(
            "{{\n  \"schema\": {},\n  \"suite\": {},\n  \"runs\": {},\n  \
             \"decisions\": {},\n  \"requests\": {},\n  \"groups\": [\n{groups}\n  ]\n}}\n",
            json_str(SERVICE_BENCH_SCHEMA),
            json_str(&self.suite),
            self.runs,
            self.decisions,
            self.requests
        )
    }

    fn identity(&self) -> (&'static str, &str) {
        ("suite", &self.suite)
    }

    fn samples(&self) -> Vec<PerfSample> {
        self.groups
            .iter()
            .map(|g| PerfSample {
                label: g.key.clone(),
                rate: g.decisions_per_sec_milli as f64 / 1e3,
                pinned: g.messages_per_decision_centi,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(n: u64, events: u64, rate: f64) -> SimnetShape {
        SimnetShape {
            n,
            events_per_iter: events,
            best_us_per_iter: events as f64 / rate * 1e6,
            events_per_sec: rate,
        }
    }

    fn bench(shapes: Vec<SimnetShape>) -> SimnetBench {
        SimnetBench {
            workload: "broadcast_heavy_4n_words".into(),
            rounds: 12,
            shapes,
        }
    }

    #[test]
    fn artifact_round_trips_in_perf_smoke_layout() {
        let b = bench(vec![shape(4, 3873, 9.5e6), shape(16, 15000, 8.0e6)]);
        let text = b.to_json();
        assert!(text.contains(SIMNET_BENCH_SCHEMA));
        // Same shape layout as the perf_smoke emitter.
        assert!(text.contains("    {\"n\": 4, \"events_per_iter\": 3873,"));
        let back = SimnetBench::parse(&text).expect("round-trip");
        assert_eq!(back.workload, "broadcast_heavy_4n_words");
        assert_eq!(back.rounds, 12);
        assert_eq!(back.shapes.len(), 2);
        assert_eq!(back.shapes[0].events_per_iter, 3873);
        // Rendering a parsed artifact is stable.
        assert_eq!(
            back.to_json(),
            SimnetBench::parse(&back.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn parse_rejects_foreign_schema_and_bad_shapes() {
        let foreign = r#"{"schema": "validity-lab/bench@3", "shapes": []}"#;
        assert!(SimnetBench::parse(foreign).is_err());
        assert!(SimnetBench::parse(r#"{"workload": "x"}"#).is_err());
        assert!(SimnetBench::parse(r#"{"shapes": [{"n": 4}]}"#).is_err());
        // Untagged but well-shaped: accepted; unknown fields ignored.
        let ok = r#"{"shapes": [{"n": 4, "events_per_iter": 10,
            "best_us_per_iter": 1.0, "events_per_sec": 1e7,
            "extra": "ignored"}], "future_field": null}"#;
        assert_eq!(SimnetBench::parse(ok).unwrap().shapes[0].n, 4);
    }

    #[test]
    fn compare_flags_each_regression_kind() {
        let base = bench(vec![
            shape(4, 100, 1e7),
            shape(16, 400, 8e6),
            shape(64, 1600, 6e6),
            shape(256, 6400, 4e6),
        ]);
        let current = bench(vec![
            shape(4, 100, 9.5e6),   // fine: within tolerance
            shape(16, 401, 8e6),    // event drift
            shape(64, 1600, 2e6),   // slowdown past 50%
            shape(1024, 9999, 1e6), // brand new
        ]);
        let diff = compare(&current.samples(), &base.samples(), 0.5);
        let status_of = |n: u64| {
            diff.rows
                .iter()
                .find(|r| r.label == n.to_string())
                .unwrap_or_else(|| panic!("no row for n={n}"))
                .status
        };
        assert_eq!(status_of(4), PerfStatus::Ok);
        assert_eq!(status_of(16), PerfStatus::Drift);
        assert_eq!(status_of(64), PerfStatus::Slowdown);
        assert_eq!(status_of(256), PerfStatus::Missing);
        assert_eq!(status_of(1024), PerfStatus::New);
        assert_eq!(diff.regressions(), 3);
        let md = diff.render_markdown(&SimnetBench::TABLE);
        assert!(md.contains("✘ SLOWDOWN"));
        assert!(md.contains("✘ EVENT DRIFT"));
        assert!(md.contains("✘ MISSING"));
        assert!(md.contains("0.33×"));
    }

    #[test]
    fn speedups_and_identical_artifacts_never_gate() {
        let base = bench(vec![shape(4, 100, 1e6)]);
        let gate = |cur: &SimnetBench, tol| compare(&cur.samples(), &base.samples(), tol);
        assert_eq!(gate(&base, 0.25).regressions(), 0);
        let faster = bench(vec![shape(4, 100, 5e6)]);
        assert_eq!(gate(&faster, 0.25).regressions(), 0);
        // Zero tolerance gates any slowdown at all.
        let hair_slower = bench(vec![shape(4, 100, 0.999e6)]);
        assert_eq!(gate(&hair_slower, 0.0).regressions(), 1);
    }

    fn sgroup(key: &str, dps: u64, mpd: u64) -> ServiceGroupBench {
        ServiceGroupBench {
            key: key.to_string(),
            decisions_per_sec_milli: dps,
            requests_per_sec_milli: dps,
            messages_per_decision_centi: mpd,
        }
    }

    fn sbench(groups: Vec<ServiceGroupBench>) -> ServiceBench {
        ServiceBench {
            suite: "service".into(),
            runs: 64,
            decisions: 1000,
            requests: 1000,
            groups,
        }
    }

    #[test]
    fn service_artifact_round_trips_and_drops_wall_clock() {
        // A fresh service_smoke artifact carries advisory wall-clock
        // fields; the parser ignores them and the canonical baseline
        // rendering drops them, so baselines never churn with hardware.
        let fresh = r#"{
            "schema": "validity-lab/service-bench@1",
            "suite": "service",
            "runs": 64,
            "decisions": 1000,
            "requests": 1000,
            "wall_seconds": 1.234567,
            "decisions_per_sec_wall": 810.3,
            "groups": [
                {"key": "service/a", "decisions_per_sec_milli": 2000,
                 "requests_per_sec_milli": 2000, "messages_per_decision_centi": 3600}
            ]
        }"#;
        let b = ServiceBench::parse(fresh).expect("parse");
        assert_eq!(b.suite, "service");
        assert_eq!(b.groups.len(), 1);
        let canonical = b.to_json();
        assert!(!canonical.contains("wall"));
        assert!(canonical.contains(SERVICE_BENCH_SCHEMA));
        // Rendering a parsed artifact is stable.
        let back = ServiceBench::parse(&canonical).expect("round-trip");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), canonical);
    }

    #[test]
    fn service_parse_rejects_foreign_schema_and_bad_groups() {
        let foreign = r#"{"schema": "validity-simnet/bench@1", "groups": []}"#;
        assert!(ServiceBench::parse(foreign).is_err());
        assert!(ServiceBench::parse(r#"{"suite": "service"}"#).is_err());
        assert!(ServiceBench::parse(r#"{"groups": [{"key": "g"}]}"#).is_err());
    }

    #[test]
    fn service_compare_flags_each_regression_kind() {
        let base = sbench(vec![
            sgroup("service/a", 2000, 3600),
            sgroup("service/b", 1000, 4800),
            sgroup("service/c", 500, 1200),
            sgroup("service/gone", 750, 2400),
        ]);
        let current = sbench(vec![
            sgroup("service/a", 2000, 3600), // identical: ok
            sgroup("service/b", 1000, 4801), // amortized cost drift
            sgroup("service/c", 499, 1200),  // slowdown at zero tolerance
            sgroup("service/new", 10, 10),   // brand new
        ]);
        let diff = compare(&current.samples(), &base.samples(), 0.0);
        let status_of = |key: &str| {
            diff.rows
                .iter()
                .find(|r| r.label == key)
                .unwrap_or_else(|| panic!("no row for {key}"))
                .status
        };
        assert_eq!(status_of("service/a"), PerfStatus::Ok);
        assert_eq!(status_of("service/b"), PerfStatus::Drift);
        assert_eq!(status_of("service/c"), PerfStatus::Slowdown);
        assert_eq!(status_of("service/gone"), PerfStatus::Missing);
        assert_eq!(status_of("service/new"), PerfStatus::New);
        assert_eq!(diff.regressions(), 3);
        let md = diff.render_markdown(&ServiceBench::TABLE);
        assert!(md.contains("✘ SLOWDOWN"));
        assert!(md.contains("✘ EVENT DRIFT"));
        assert!(md.contains("✘ MISSING"));

        // A generous tolerance waives the slowdown but never the drift or
        // the vanished group.
        let relaxed = compare(&current.samples(), &base.samples(), 0.5);
        assert_eq!(relaxed.regressions(), 2);
    }
}
