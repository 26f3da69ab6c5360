//! The bench-trend artifact and historical baseline comparison.
//!
//! `lab trend` distills fit-bearing sweeps into one small JSON artifact
//! (`BENCH_lab.json`): per suite, the fitted exponents with their expected
//! bands, plus cell/violation/quarantine counts and wall time. CI uploads
//! the artifact on every push, turning the repo's perf trajectory into
//! data.
//!
//! This module makes that trajectory *enforceable*: [`BenchArtifact`] is
//! the versioned model of the file ([`BENCH_SCHEMA`]), and [`compare`]
//! diffs a current artifact against a historical baseline — exponent
//! drift beyond a tolerance, band escapes, and vanished fit groups are
//! **regressions** (`lab trend --baseline` exits non-zero on any), while
//! new groups and wall-time movement are reported but not gated (wall
//! clock depends on CI hardware; the exponents do not).
//!
//! The parser ignores unknown fields and refuses every file whose
//! `schema` tag is not [`BENCH_SCHEMA`], an untagged file included.

use std::fmt;
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{json_str, SweepReport};

/// Schema tag written into new bench-trend artifacts.
pub const BENCH_SCHEMA: &str = "validity-lab/bench@3";

/// Adaptive-sampling metadata of one suite entry, as recorded in the
/// artifact: enough to see at a glance how much seed budget a
/// suite spent and whether any group failed to stabilize.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchSampling {
    /// The sweep's target precision (relative 95% CI half-width).
    pub precision: f64,
    /// Total seeds consumed across the suite's run groups.
    pub seeds_consumed: u64,
    /// Groups that hit the seed cap without stabilizing.
    pub capped: u64,
}

impl BenchSampling {
    /// Parses a suite entry's `sampling` field (shared by the artifact
    /// parser and the from-reports path, so the two cannot drift apart).
    /// `None` for an absent or `null` field — a fixed-seed sweep.
    fn from_json(v: Option<&Json>) -> Option<BenchSampling> {
        match v {
            None | Some(Json::Null) => None,
            Some(s) => Some(BenchSampling {
                precision: s.get("precision").and_then(Json::as_num).unwrap_or(0.0),
                seeds_consumed: s.get("seeds_consumed").and_then(Json::as_u64).unwrap_or(0),
                capped: s.get("capped").and_then(Json::as_u64).unwrap_or(0),
            }),
        }
    }
}

/// One fitted measure of one fit group, as recorded in the artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFit {
    /// The fit-group key (a [`crate::matrix::RunCell::fit_key`]).
    pub key: String,
    /// The fitted measure's registry name (`messages`, `words`, ...).
    pub measure: String,
    /// Fitted exponent (`None` when the sweep's points could not be fit).
    pub exponent: Option<f64>,
    /// Fitted constant.
    pub constant: Option<f64>,
    /// Coefficient of determination of the fit.
    pub r_squared: Option<f64>,
    /// Declared expected band, if the suite ships one.
    pub band: Option<(f64, f64)>,
    /// Whether the exponent sat inside the band.
    pub within_band: Option<bool>,
}

/// One suite's entry in the artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// Suite name.
    pub suite: String,
    /// Wall-clock seconds of the sweep. `None` when the artifact was
    /// assembled from merged shard reports (a merged report is
    /// byte-deterministic and so carries no wall time).
    pub wall_seconds: Option<f64>,
    /// Cell count.
    pub cells: u64,
    /// Violations (see [`SweepReport::violations`]).
    pub violations: u64,
    /// Quarantined cell count.
    pub quarantined: u64,
    /// The x-axis the suite's fits ran along (`"n"`, `"t"`, `"domain"`).
    pub axis: String,
    /// Adaptive-sampling metadata (`None` for fixed-seed sweeps).
    pub sampling: Option<BenchSampling>,
    /// Every fit row of the suite's report.
    pub fits: Vec<BenchFit>,
}

impl BenchSuite {
    /// Builds a suite entry from an in-memory sweep report.
    pub fn from_sweep(name: &str, report: &SweepReport, wall_seconds: Option<f64>) -> BenchSuite {
        BenchSuite {
            suite: name.to_string(),
            wall_seconds,
            cells: report.cells.len() as u64,
            violations: report.violations(),
            quarantined: report.quarantined.len() as u64,
            axis: report.fit_axis.name().to_string(),
            sampling: report.sampling.as_ref().map(|s| BenchSampling {
                precision: s.spec.precision,
                seeds_consumed: s.seeds_consumed(),
                capped: s.capped(),
            }),
            fits: report
                .fits
                .iter()
                .map(|f| BenchFit {
                    key: f.key.clone(),
                    measure: f.measure.name().to_string(),
                    exponent: f.fit.map(|p| p.exponent),
                    constant: f.fit.map(|p| p.constant),
                    r_squared: f.fit.map(|p| p.r_squared),
                    band: f.band,
                    within_band: f.within_band,
                })
                .collect(),
        }
    }

    /// Builds a suite entry from a **full report** JSON document (the file
    /// `lab run`/`lab merge` writes), for a trend gate that consumes
    /// merged reports instead of re-sweeping. The violation count is
    /// recomputed from the report's groups with the same arithmetic as
    /// [`SweepReport::violations`].
    pub fn from_report_json(v: &Json) -> Result<BenchSuite, String> {
        let suite = v
            .get("matrix")
            .and_then(Json::as_str)
            .ok_or("report missing 'matrix'")?
            .to_string();
        let cells = v
            .get("cell_count")
            .and_then(Json::as_u64)
            .ok_or("report missing 'cell_count'")?;
        let mut violations = 0u64;
        for g in v.get("groups").and_then(Json::as_arr).unwrap_or(&[]) {
            let count = |f: &str| g.get(f).and_then(Json::as_u64).unwrap_or(0);
            violations += count("agreement_failures")
                + count("validity_failures")
                + count("runs").saturating_sub(count("decided"));
        }
        let quarantined = v
            .get("quarantined")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64);
        let axis = v
            .get("fit_axis")
            .and_then(Json::as_str)
            .unwrap_or("n")
            .to_string();
        let sampling = BenchSampling::from_json(v.get("sampling"));
        let fits = v
            .get("fits")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(parse_fit)
            .collect::<Result<Vec<BenchFit>, String>>()?;
        Ok(BenchSuite {
            suite,
            wall_seconds: None,
            cells,
            violations,
            quarantined,
            axis,
            sampling,
            fits,
        })
    }
}

/// The whole bench-trend artifact.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BenchArtifact {
    /// One entry per swept suite, in sweep order.
    pub suites: Vec<BenchSuite>,
}

impl BenchArtifact {
    /// Renders the versioned artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(BENCH_SCHEMA));
        out.push_str("  \"suites\": [\n");
        for (si, s) in self.suites.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"suite\": {}, \"wall_seconds\": {}, \"cells\": {}, \
                 \"violations\": {}, \"quarantined\": {}, \"axis\": {}, \
                 \"sampling\": {}, \"fits\": [",
                json_str(&s.suite),
                s.wall_seconds
                    .map_or("null".to_string(), |w| format!("{w:.3}")),
                s.cells,
                s.violations,
                s.quarantined,
                json_str(&s.axis),
                match s.sampling {
                    Some(sa) => format!(
                        "{{\"precision\": {:.4}, \"seeds_consumed\": {}, \"capped\": {}}}",
                        sa.precision, sa.seeds_consumed, sa.capped
                    ),
                    None => "null".to_string(),
                },
            );
            for (fi, f) in s.fits.iter().enumerate() {
                if fi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"key\": {}, \"measure\": {}, \"exponent\": {}, \
                     \"constant\": {}, \"r_squared\": {}, \"band\": {}, \
                     \"within_band\": {}}}",
                    json_str(&f.key),
                    json_str(&f.measure),
                    opt_float(f.exponent),
                    opt_float(f.constant),
                    opt_float(f.r_squared),
                    match f.band {
                        Some((lo, hi)) => format!("[{lo:.4}, {hi:.4}]"),
                        None => "null".to_string(),
                    },
                    f.within_band.map_or("null".to_string(), |b| b.to_string()),
                );
            }
            out.push_str("]}");
            out.push_str(if si + 1 == self.suites.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses an artifact; a file tagged with any schema other than
    /// [`BENCH_SCHEMA`], or with none, is refused.
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(BENCH_SCHEMA) => {}
            other => {
                return Err(format!(
                    "unsupported bench artifact schema '{}' (this lab reads '{BENCH_SCHEMA}')",
                    other.unwrap_or("none")
                ))
            }
        }
        let suites = v
            .get("suites")
            .and_then(Json::as_arr)
            .ok_or("bench artifact missing 'suites'")?
            .iter()
            .map(|s| {
                Ok(BenchSuite {
                    suite: s
                        .get("suite")
                        .and_then(Json::as_str)
                        .ok_or("suite entry missing 'suite'")?
                        .to_string(),
                    wall_seconds: s.get("wall_seconds").and_then(Json::as_num),
                    cells: s.get("cells").and_then(Json::as_u64).unwrap_or(0),
                    violations: s.get("violations").and_then(Json::as_u64).unwrap_or(0),
                    quarantined: s.get("quarantined").and_then(Json::as_u64).unwrap_or(0),
                    axis: s
                        .get("axis")
                        .and_then(Json::as_str)
                        .ok_or("suite entry missing 'axis'")?
                        .to_string(),
                    sampling: BenchSampling::from_json(s.get("sampling")),
                    fits: s
                        .get("fits")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .map(parse_fit)
                        .collect::<Result<Vec<BenchFit>, String>>()?,
                })
            })
            .collect::<Result<Vec<BenchSuite>, String>>()?;
        Ok(BenchArtifact { suites })
    }
}

fn opt_float(f: Option<f64>) -> String {
    f.map_or("null".to_string(), |f| format!("{f:.4}"))
}

fn parse_fit(v: &Json) -> Result<BenchFit, String> {
    let band = match v.get("band") {
        None | Some(Json::Null) => None,
        Some(b) => {
            let b = b.as_arr().filter(|a| a.len() == 2).ok_or("bad 'band'")?;
            Some((
                b[0].as_num().ok_or("bad band lo")?,
                b[1].as_num().ok_or("bad band hi")?,
            ))
        }
    };
    Ok(BenchFit {
        key: v
            .get("key")
            .and_then(Json::as_str)
            .ok_or("fit missing 'key'")?
            .to_string(),
        measure: v
            .get("measure")
            .and_then(Json::as_str)
            .ok_or("fit missing 'measure'")?
            .to_string(),
        exponent: v.get("exponent").and_then(Json::as_num),
        constant: v.get("constant").and_then(Json::as_num),
        r_squared: v.get("r_squared").and_then(Json::as_num),
        band,
        within_band: v.get("within_band").and_then(Json::as_bool),
    })
}

// ---------------------------------------------------------------------------
// Baseline comparison

/// Verdict for one (suite, fit group, measure) across two artifacts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrendStatus {
    /// Present in both, exponent within tolerance and within band.
    Ok,
    /// Present only in the current artifact (informational).
    New,
    /// Present only in the baseline — a measurement vanished (regression).
    Removed,
    /// The current exponent left its declared band (regression).
    OutOfBand,
    /// The baseline had a fit but the current sweep could not produce one
    /// (regression).
    LostFit,
    /// Both fitted, but the exponent moved by more than the tolerance
    /// (regression).
    Drift,
}

impl TrendStatus {
    /// Whether this status fails the trend gate.
    pub fn is_regression(self) -> bool {
        matches!(
            self,
            TrendStatus::Removed
                | TrendStatus::OutOfBand
                | TrendStatus::LostFit
                | TrendStatus::Drift
        )
    }

    /// The label rendered in the regression table.
    pub fn label(self) -> &'static str {
        match self {
            TrendStatus::Ok => "ok",
            TrendStatus::New => "new",
            TrendStatus::Removed => "✘ REMOVED",
            TrendStatus::OutOfBand => "✘ OUT OF BAND",
            TrendStatus::LostFit => "✘ LOST FIT",
            TrendStatus::Drift => "✘ DRIFT",
        }
    }
}

impl fmt::Display for TrendStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of the regression table.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendRow {
    /// Suite name.
    pub suite: String,
    /// Fit-group key.
    pub key: String,
    /// Measure name.
    pub measure: String,
    /// Baseline exponent, when the baseline had this group.
    pub baseline_exponent: Option<f64>,
    /// Current exponent, when the current sweep fitted this group.
    pub current_exponent: Option<f64>,
    /// The verdict.
    pub status: TrendStatus,
}

/// One row of the (informational) wall-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct WallRow {
    /// Suite name.
    pub suite: String,
    /// Baseline wall seconds, if recorded.
    pub baseline: Option<f64>,
    /// Current wall seconds, if recorded.
    pub current: Option<f64>,
}

/// The full diff of a current artifact against a historical baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendDiff {
    /// Per-(suite, group, measure) verdicts, current-artifact order with
    /// removed baseline rows appended.
    pub rows: Vec<TrendRow>,
    /// Per-suite wall-time movement (never gated).
    pub walls: Vec<WallRow>,
    /// The exponent-drift tolerance the verdicts used.
    pub tolerance: f64,
}

impl TrendDiff {
    /// Number of regression rows — the trend gate fails when this is
    /// non-zero.
    pub fn regressions(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.status.is_regression())
            .count() as u64
    }

    /// Renders the regression table (and the informational wall-time
    /// table) as Markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Trend vs baseline (exponent tolerance ±{})\n",
            self.tolerance
        );
        let _ = writeln!(
            out,
            "{} group(s) compared, {} regression(s).\n",
            self.rows.len(),
            self.regressions()
        );
        out.push_str("| suite | group | measure | baseline k | current k | Δk | status |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            let delta = match (r.baseline_exponent, r.current_exponent) {
                (Some(b), Some(c)) => format!("{:+.3}", c - b),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.suite,
                r.key,
                r.measure,
                r.baseline_exponent
                    .map_or("-".to_string(), |e| format!("{e:.3}")),
                r.current_exponent
                    .map_or("-".to_string(), |e| format!("{e:.3}")),
                delta,
                r.status,
            );
        }
        if !self.walls.is_empty() {
            out.push_str("\n## Wall time (informational, never gated)\n\n");
            out.push_str("| suite | baseline s | current s | ratio |\n|---|---|---|---|\n");
            for w in &self.walls {
                let ratio = match (w.baseline, w.current) {
                    (Some(b), Some(c)) if b > 0.0 => format!("{:.2}×", c / b),
                    _ => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    w.suite,
                    w.baseline.map_or("-".to_string(), |s| format!("{s:.3}")),
                    w.current.map_or("-".to_string(), |s| format!("{s:.3}")),
                    ratio,
                );
            }
        }
        out
    }
}

/// Diffs `current` against `baseline`, matching fit rows by
/// `(suite, group key, measure)`.
///
/// Regressions are: a group that vanished, a current exponent outside its
/// declared band, a fit the current sweep lost, and an exponent that moved
/// by more than `tolerance`. New groups and wall-time movement are
/// reported without gating.
///
/// ```
/// use validity_lab::trend::{compare, BenchArtifact};
///
/// let base = BenchArtifact::parse(r#"{"schema": "validity-lab/bench@3", "suites":
///     [{"suite": "s", "axis": "n", "fits":
///       [{"key": "g", "measure": "messages", "exponent": 2.0}]}]}"#).unwrap();
/// let mut cur = base.clone();
/// assert_eq!(compare(&cur, &base, 0.25).regressions(), 0);
/// cur.suites[0].fits[0].exponent = Some(2.9); // drifted past ±0.25
/// assert_eq!(compare(&cur, &base, 0.25).regressions(), 1);
/// ```
pub fn compare(current: &BenchArtifact, baseline: &BenchArtifact, tolerance: f64) -> TrendDiff {
    let mut rows = Vec::new();
    let baseline_fits: Vec<(&BenchSuite, &BenchFit)> = baseline
        .suites
        .iter()
        .flat_map(|s| s.fits.iter().map(move |f| (s, f)))
        .collect();
    let mut matched = vec![false; baseline_fits.len()];
    for suite in &current.suites {
        for fit in &suite.fits {
            let base = baseline_fits
                .iter()
                .position(|(bs, bf)| {
                    bs.suite == suite.suite && bf.key == fit.key && bf.measure == fit.measure
                })
                .map(|i| {
                    matched[i] = true;
                    baseline_fits[i].1
                });
            let status = match base {
                None => TrendStatus::New,
                Some(b) => {
                    if fit.within_band == Some(false) {
                        TrendStatus::OutOfBand
                    } else {
                        match (b.exponent, fit.exponent) {
                            (Some(be), Some(ce)) if (ce - be).abs() > tolerance => {
                                TrendStatus::Drift
                            }
                            (Some(_), None) => TrendStatus::LostFit,
                            _ => TrendStatus::Ok,
                        }
                    }
                }
            };
            rows.push(TrendRow {
                suite: suite.suite.clone(),
                key: fit.key.clone(),
                measure: fit.measure.clone(),
                baseline_exponent: base.and_then(|b| b.exponent),
                current_exponent: fit.exponent,
                status,
            });
        }
    }
    for (i, (bs, bf)) in baseline_fits.iter().enumerate() {
        if !matched[i] {
            rows.push(TrendRow {
                suite: bs.suite.clone(),
                key: bf.key.clone(),
                measure: bf.measure.clone(),
                baseline_exponent: bf.exponent,
                current_exponent: None,
                status: TrendStatus::Removed,
            });
        }
    }
    let walls = current
        .suites
        .iter()
        .map(|s| WallRow {
            suite: s.suite.clone(),
            baseline: baseline
                .suites
                .iter()
                .find(|b| b.suite == s.suite)
                .and_then(|b| b.wall_seconds),
            current: s.wall_seconds,
        })
        .collect();
    TrendDiff {
        rows,
        walls,
        tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(key: &str, exponent: Option<f64>, within_band: Option<bool>) -> BenchFit {
        BenchFit {
            key: key.into(),
            measure: "messages".into(),
            exponent,
            constant: exponent.map(|_| 3.0),
            r_squared: exponent.map(|_| 0.999),
            band: within_band.map(|_| (1.7, 2.3)),
            within_band,
        }
    }

    fn artifact(fits: Vec<BenchFit>) -> BenchArtifact {
        BenchArtifact {
            suites: vec![BenchSuite {
                suite: "universal".into(),
                wall_seconds: Some(4.2),
                cells: 10,
                violations: 0,
                quarantined: 0,
                axis: "n".into(),
                sampling: None,
                fits,
            }],
        }
    }

    #[test]
    fn artifact_round_trips_including_nulls() {
        let a = artifact(vec![
            fit("g1", Some(1.9), Some(true)),
            fit("g2", None, None),
        ]);
        let text = a.to_json();
        assert!(text.contains(BENCH_SCHEMA));
        let back = BenchArtifact::parse(&text).expect("round-trip");
        assert_eq!(back.suites[0].suite, "universal");
        assert_eq!(back.suites[0].fits.len(), 2);
        assert_eq!(back.suites[0].fits[1].exponent, None);
        assert_eq!(back.suites[0].fits[0].band, Some((1.7, 2.3)));
        // The rendering of a parsed artifact is stable.
        assert_eq!(
            back.to_json(),
            BenchArtifact::parse(&back.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn parse_accepts_untagged_v1_and_rejects_foreign_schemas() {
        // Neither older generation is read any more: each is refused by
        // name, like any foreign tag.
        let refused = |text: &str, tag: &str| {
            assert_eq!(
                BenchArtifact::parse(text).unwrap_err(),
                format!(
                    "unsupported bench artifact schema '{tag}' (this lab reads '{BENCH_SCHEMA}')"
                )
            );
        };
        let untagged = r#"{"suites": [{"suite": "complexity", "wall_seconds": 1.5,
            "cells": 72, "violations": 0, "quarantined": 0, "fits":
            [{"key": "g", "measure": "messages", "exponent": 1.86,
              "constant": 2.0, "r_squared": 0.99, "band": [1.4, 2.3],
              "within_band": true}]}]}"#;
        refused(untagged, "none");
        refused(
            r#"{"schema": "validity-lab/bench@2", "suites": []}"#,
            "validity-lab/bench@2",
        );
        refused(
            r#"{"schema": "validity-lab/bench@99", "suites": []}"#,
            "validity-lab/bench@99",
        );
        assert!(BenchArtifact::parse("[]").is_err());
        // Unknown extra fields of the current generation are ignored.
        let extra = format!(
            r#"{{"schema": "{BENCH_SCHEMA}", "suites": [], "something_new": {{"nested": true}}}}"#
        );
        assert!(BenchArtifact::parse(&extra).is_ok());
    }

    #[test]
    fn axis_and_sampling_metadata_round_trip() {
        let mut a = artifact(vec![fit("g", Some(2.0), Some(true))]);
        a.suites[0].axis = "domain".into();
        a.suites[0].sampling = Some(BenchSampling {
            precision: 0.05,
            seeds_consumed: 50,
            capped: 1,
        });
        let text = a.to_json();
        assert!(text.contains("\"axis\": \"domain\""));
        assert!(text.contains("\"seeds_consumed\": 50"));
        let back = BenchArtifact::parse(&text).expect("round-trip");
        assert_eq!(back.suites[0].axis, "domain");
        assert_eq!(
            back.suites[0].sampling,
            Some(BenchSampling {
                precision: 0.05,
                seeds_consumed: 50,
                capped: 1,
            })
        );
    }

    #[test]
    fn compare_flags_each_regression_kind() {
        let base = artifact(vec![
            fit("stable", Some(2.0), Some(true)),
            fit("drifter", Some(2.0), None),
            fit("escapee", Some(2.0), Some(true)),
            fit("unfittable-now", Some(2.0), None),
            fit("vanished", Some(2.0), None),
        ]);
        let current = artifact(vec![
            fit("stable", Some(2.1), Some(true)),
            fit("drifter", Some(2.6), None),
            fit("escapee", Some(2.4), Some(false)),
            fit("unfittable-now", None, None),
            fit("brand-new", Some(1.0), None),
        ]);
        let diff = compare(&current, &base, 0.25);
        let status_of = |key: &str| {
            diff.rows
                .iter()
                .find(|r| r.key == key)
                .unwrap_or_else(|| panic!("no row for {key}"))
                .status
        };
        assert_eq!(status_of("stable"), TrendStatus::Ok);
        assert_eq!(status_of("drifter"), TrendStatus::Drift);
        assert_eq!(status_of("escapee"), TrendStatus::OutOfBand);
        assert_eq!(status_of("unfittable-now"), TrendStatus::LostFit);
        assert_eq!(status_of("vanished"), TrendStatus::Removed);
        assert_eq!(status_of("brand-new"), TrendStatus::New);
        assert_eq!(diff.regressions(), 4);
        let md = diff.render_markdown();
        assert!(md.contains("✘ DRIFT"));
        assert!(md.contains("✘ REMOVED"));
        assert!(md.contains("## Wall time"));
    }

    #[test]
    fn identical_artifacts_have_no_regressions() {
        let a = artifact(vec![fit("g", Some(1.86), Some(true))]);
        let diff = compare(&a, &a.clone(), 0.25);
        assert_eq!(diff.regressions(), 0);
        assert!(diff.rows.iter().all(|r| r.status == TrendStatus::Ok));
    }
}
