//! The bench-trend artifact and historical baseline comparison.
//!
//! `lab trend` distills fit-bearing sweeps into one small JSON artifact
//! (`BENCH_lab.json`): per suite, the fitted exponents with their expected
//! bands, plus cell/violation/quarantine counts. CI uploads the artifact
//! on every push, turning the repo's complexity trajectory into data.
//!
//! This module makes that trajectory *enforceable*: [`BenchArtifact`] is
//! the versioned model of the file ([`BENCH_SCHEMA`]), and [`compare`]
//! diffs a current artifact against a historical baseline — exponent
//! drift beyond a tolerance, band escapes, and vanished fit groups are
//! **regressions** (`lab trend --baseline` exits non-zero on any), while
//! new groups are reported but not gated.
//!
//! The lab measures no wall clock (the benchmark does), so `lab trend`
//! writes `"wall_seconds": null`; a number an older artifact recorded is
//! read and re-rendered, never compared.
//!
//! The parser ignores unknown fields, refuses every file whose `schema`
//! tag is not [`BENCH_SCHEMA`] (an untagged file included), and refuses a
//! missing or mistyped field by name.

use std::fmt;
use std::fmt::Write as _;

use crate::json::{Fields, Json};
use crate::matrix::FitMeasure;
use crate::report::{fit_core_json, json_str, FitRow, SweepReport};
use crate::PowerFit;

/// Schema tag written into new bench-trend artifacts.
pub const BENCH_SCHEMA: &str = "validity-lab/bench@3";

/// One suite's entry in the artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// Suite name.
    pub suite: String,
    /// Wall-clock seconds an older artifact recorded for the sweep;
    /// `None` in every artifact `lab trend` writes now.
    pub wall_seconds: Option<f64>,
    /// Cell count.
    pub cells: u64,
    /// Violations (see [`SweepReport::violations`]).
    pub violations: u64,
    /// Quarantined cell count.
    pub quarantined: u64,
    /// The axis the suite's fits are labelled with (`"n"` or `"domain"`).
    pub axis: String,
    /// Every fit row of the suite's report. The artifact records each
    /// row's fit core but not its points, so rows read back from a file
    /// have none.
    pub fits: Vec<FitRow>,
}

impl BenchSuite {
    /// Builds a suite entry from an in-memory sweep report.
    pub fn from_sweep(name: &str, report: &SweepReport) -> BenchSuite {
        BenchSuite {
            suite: name.to_string(),
            wall_seconds: None,
            cells: report.cells.len() as u64,
            violations: report.violations(),
            quarantined: report.quarantined.len() as u64,
            axis: report.fit_axis.name().to_string(),
            fits: report.fits.clone(),
        }
    }
}

/// The whole bench-trend artifact.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BenchArtifact {
    /// One entry per swept suite, in sweep order.
    pub suites: Vec<BenchSuite>,
}

impl BenchArtifact {
    /// Renders the versioned artifact. Each suite's `"sampling": null` is
    /// a constant kept for the bytes; no reader looks at it.
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
                 \"sampling\": null, \"fits\": [",
                json_str(&s.suite),
                s.wall_seconds
                    .map_or("null".to_string(), |w| format!("{w:.3}")),
                s.cells,
                s.violations,
                s.quarantined,
                json_str(&s.axis),
            );
            for (fi, f) in s.fits.iter().enumerate() {
                if fi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"key\": {}, \"measure\": {}, ",
                    json_str(&f.key),
                    json_str(f.measure.name())
                );
                fit_core_json(&mut out, f);
                out.push('}');
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
    /// [`BENCH_SCHEMA`], or with none, is refused, and so is a missing
    /// or mistyped field.
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let json = Json::parse(text)?;
        let v = Fields::tagged(&json, BENCH_SCHEMA, "bench artifact")?;
        let suites = v
            .objs("suites")?
            .into_iter()
            .map(|s| {
                let suite: String = s.get("suite")?;
                let s = s.named(format!("{} suite '{suite}'", v.at()));
                Ok(BenchSuite {
                    suite,
                    wall_seconds: s.get("wall_seconds")?,
                    cells: s.get("cells")?,
                    violations: s.get("violations")?,
                    quarantined: s.get("quarantined")?,
                    axis: s.get("axis")?,
                    fits: fits_from_json(&s)?,
                })
            })
            .collect::<Result<Vec<BenchSuite>, String>>()?;
        Ok(BenchArtifact { suites })
    }
}

/// Reads the `fits` rows of a suite entry or a report: key, measure and
/// the fit core [`fit_core_json`] writes. A report row's `points` are not
/// read.
fn fits_from_json(v: &Fields) -> Result<Vec<FitRow>, String> {
    v.objs("fits")?
        .iter()
        .map(|f| {
            let measure = f.get("measure")?;
            let fit = match f.get::<Option<f64>>("exponent")? {
                Some(exponent) => Some(PowerFit {
                    exponent,
                    constant: f.get("constant")?,
                    r_squared: f.get("r_squared")?,
                }),
                None => {
                    f.get::<()>("constant")?;
                    f.get::<()>("r_squared")?;
                    None
                }
            };
            Ok(FitRow {
                key: f.get("key")?,
                measure: FitMeasure::parse(measure)
                    .ok_or_else(|| format!("{}: unknown fit measure '{measure}'", f.at()))?,
                points: Vec::new(),
                fit,
                band: f.get("band")?,
                within_band: f.get("within_band")?,
            })
        })
        .collect()
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
    /// The fitted measure.
    pub measure: FitMeasure,
    /// Baseline exponent, when the baseline had this group.
    pub baseline_exponent: Option<f64>,
    /// Current exponent, when the current sweep fitted this group.
    pub current_exponent: Option<f64>,
    /// The verdict.
    pub status: TrendStatus,
}

/// The full diff of a current artifact against a historical baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendDiff {
    /// Per-(suite, group, measure) verdicts, current-artifact order with
    /// removed baseline rows appended.
    pub rows: Vec<TrendRow>,
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

    /// Renders the regression table as Markdown.
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
        out
    }
}

/// Diffs `current` against `baseline`, matching fit rows by
/// `(suite, group key, measure)`.
///
/// Regressions are: a group that vanished, a current exponent outside its
/// declared band, a fit the current sweep lost, and an exponent that moved
/// by more than `tolerance`. New groups are reported without gating.
///
/// ```
/// use validity_lab::trend::{compare, BenchArtifact};
///
/// let base = BenchArtifact::parse(r#"{"schema": "validity-lab/bench@3", "suites":
///     [{"suite": "s", "wall_seconds": null, "cells": 4, "violations": 0,
///       "quarantined": 0, "axis": "n", "sampling": null, "fits":
///       [{"key": "g", "measure": "messages", "exponent": 2.0, "constant": 1.0,
///         "r_squared": 1.0, "band": null, "within_band": null}]}]}"#).unwrap();
/// let mut cur = base.clone();
/// assert_eq!(compare(&cur, &base, 0.25).regressions(), 0);
/// cur.suites[0].fits[0].fit.as_mut().unwrap().exponent = 2.9; // drifted past ±0.25
/// assert_eq!(compare(&cur, &base, 0.25).regressions(), 1);
/// ```
pub fn compare(current: &BenchArtifact, baseline: &BenchArtifact, tolerance: f64) -> TrendDiff {
    let mut rows = Vec::new();
    let baseline_fits: Vec<(&BenchSuite, &FitRow)> = baseline
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
            let exponent = fit.fit.map(|p| p.exponent);
            let base_exponent = base.and_then(|b| b.fit).map(|p| p.exponent);
            let status = match base {
                None => TrendStatus::New,
                Some(_) => {
                    if fit.within_band == Some(false) {
                        TrendStatus::OutOfBand
                    } else {
                        match (base_exponent, exponent) {
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
                measure: fit.measure,
                baseline_exponent: base_exponent,
                current_exponent: exponent,
                status,
            });
        }
    }
    for (i, (bs, bf)) in baseline_fits.iter().enumerate() {
        if !matched[i] {
            rows.push(TrendRow {
                suite: bs.suite.clone(),
                key: bf.key.clone(),
                measure: bf.measure,
                baseline_exponent: bf.fit.map(|p| p.exponent),
                current_exponent: None,
                status: TrendStatus::Removed,
            });
        }
    }
    TrendDiff { rows, tolerance }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(key: &str, exponent: Option<f64>, within_band: Option<bool>) -> FitRow {
        FitRow {
            key: key.into(),
            measure: FitMeasure::Messages,
            points: Vec::new(),
            fit: exponent.map(|exponent| PowerFit {
                exponent,
                constant: 3.0,
                r_squared: 0.999,
            }),
            band: within_band.map(|_| (1.7, 2.3)),
            within_band,
        }
    }

    fn artifact(fits: Vec<FitRow>) -> BenchArtifact {
        BenchArtifact {
            suites: vec![BenchSuite {
                suite: "universal".into(),
                wall_seconds: Some(4.2),
                cells: 10,
                violations: 0,
                quarantined: 0,
                axis: "n".into(),
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
        assert_eq!(back.suites[0].fits[1].fit, None);
        assert_eq!(back.suites[0].fits[0].band, Some((1.7, 2.3)));
        // The rendering of a parsed artifact is stable.
        assert_eq!(
            back.to_json(),
            BenchArtifact::parse(&back.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn parse_refuses_untagged_and_older_schemas_by_name() {
        // Neither older generation is read any more: each is refused by
        // name, like any foreign tag.
        let refused = |text: &str, tag: &str| {
            let want = if tag == "none" {
                format!(
                    "does not look like a bench artifact: it declares no schema \
                     (expected '{BENCH_SCHEMA}')"
                )
            } else {
                format!("not a bench artifact: schema '{tag}' (expected '{BENCH_SCHEMA}')")
            };
            assert_eq!(BenchArtifact::parse(text).unwrap_err(), want);
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
        let text = a.to_json();
        assert!(text.contains("\"axis\": \"domain\""));
        assert!(text.contains("\"sampling\": null"));
        let back = BenchArtifact::parse(&text).expect("round-trip");
        assert_eq!(back.suites[0].axis, "domain");
        assert_eq!(back.to_json(), text);
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
        assert!(!md.contains("Wall time"), "the lab reports no wall clock");
    }

    #[test]
    fn identical_artifacts_have_no_regressions() {
        let a = artifact(vec![fit("g", Some(1.86), Some(true))]);
        let diff = compare(&a, &a.clone(), 0.25);
        assert_eq!(diff.regressions(), 0);
        assert!(diff.rows.iter().all(|r| r.status == TrendStatus::Ok));
    }
}
