//! Aggregation and report emission.
//!
//! Per-cell records fold into per-configuration summaries (all seeds of one
//! configuration share a group), then render to JSON (machine-readable,
//! used by `lab diff`) and Markdown (human-readable). Both emitters walk
//! records in matrix order and use only deterministic arithmetic, so report
//! bytes are a pure function of the matrix — independent of thread count.
//! When the matrix declares [`FitMeasure`]s, configurations that differ
//! only along a measure's [`FitAxis`] (system size, or the domain size for
//! the classifier's cost) additionally fold into *fit groups*:
//! per-coordinate means become `(x, y)` points, a power
//! law `y ≈ c·xᵏ` is fitted to each group, and the report gains a `fits`
//! section with exponent, constant, `r²`, and any declared expected band —
//! the paper's asymptotic shapes as first-class, regression-checked
//! outputs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use validity_simnet::{NetStats, Time};

use crate::fit::{try_fit_exponent, PowerFit};
use crate::matrix::{FitAxis, FitMeasure, RunCell, ScenarioMatrix};
use crate::runner::{CellRecord, ClassifyRecord, Outcome, RunRecord};

/// Statistics of one u64-valued measure across a group's runs.
///
/// Carries its own observation count: a measure may be observed on only a
/// subset of a group's runs (latency is only meaningful for runs that
/// decided), so the group's run count is not the right divisor.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MeasureStats {
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Sum of observations (mean = sum / count, rendered at fixed
    /// precision).
    pub sum: u64,
    /// Number of observations folded in.
    pub count: u64,
}

impl MeasureStats {
    fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.sum += v;
        self.count += 1;
    }

    /// Mean with one decimal, as a string (deterministic rendering);
    /// `"-"` when nothing was observed.
    ///
    /// Integer arithmetic with half-up rounding — floats never touch the
    /// report path, so the bytes cannot depend on the platform.
    ///
    /// ```
    /// use validity_lab::report::MeasureStats;
    ///
    /// let stats = MeasureStats { min: 10, max: 20, sum: 45, count: 3 };
    /// assert_eq!(stats.mean(), "15.0");
    /// assert_eq!(MeasureStats::default().mean(), "-");
    /// ```
    pub fn mean(&self) -> String {
        if self.count == 0 {
            return "-".into();
        }
        let scaled = (self.sum * 10 + self.count / 2) / self.count;
        format!("{}.{}", scaled / 10, scaled % 10)
    }
}

/// Aggregated view of all seeds of one run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSummary {
    /// The configuration key (a [`crate::matrix::RunCell::group_key`]).
    pub key: String,
    /// Number of runs folded in.
    pub runs: u64,
    /// Runs in which every correct process decided.
    pub decided: u64,
    /// Runs aborted on their step budget (excluded from every measure:
    /// a truncated run's counters describe the abort, not the protocol).
    pub quarantined: u64,
    /// Runs violating Agreement.
    pub agreement_failures: u64,
    /// Runs deciding an inadmissible value.
    pub validity_failures: u64,
    /// Message complexity (`[GST, ∞)`) across non-quarantined runs.
    pub messages_after_gst: MeasureStats,
    /// Word complexity (`[GST, ∞)`) across non-quarantined runs.
    pub words_after_gst: MeasureStats,
    /// Decision latency across the runs in which every correct process
    /// decided (undecided runs have no latency to observe).
    pub latency: MeasureStats,
    /// All runs' simulator counters pooled via [`NetStats::merge`] —
    /// the source of delivery/Byzantine-traffic totals, which the scalar
    /// measures above do not track.
    pub pooled: NetStats,
    /// The group's coordinate on the run measures' axis, `n` (0 when the
    /// matrix enumerates no such group).
    pub fit_x: u64,
    /// The group's [`RunCell::fit_key`] bucket (empty when the matrix
    /// enumerates no such group).
    pub fit_key: String,
}

/// One fitted measure of one fit group: the power law behind a family of
/// configurations that differ only in `(n, t)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FitRow {
    /// The fit-group key (a [`RunCell::fit_key`]).
    pub key: String,
    /// Which measure was fitted.
    pub measure: FitMeasure,
    /// The fitted points: `(n, per-size mean of the measure)`, in matrix
    /// order.
    pub points: Vec<(f64, f64)>,
    /// The fit, when the points support one (`None` for degenerate data:
    /// one size, zero measurements, ...).
    pub fit: Option<PowerFit>,
    /// The expected exponent band declared by the matrix, if any.
    pub band: Option<(f64, f64)>,
    /// Whether the fitted exponent lies inside the band: `None` without a
    /// band, `Some(false)` for a banded row the points cannot fit.
    pub within_band: Option<bool>,
}

/// Schema tag written into full-report JSON files. `lab diff` uses it to
/// refuse partial (sharded) reports and artifacts from other schema
/// generations instead of producing a silently meaningless diff.
///
/// `report@2` added the top-level `fit_axis` and `sampling` fields and the
/// per-classification `cost` counter; `sampling` is always `null` now (no
/// sweep samples adaptively) and kept so the bytes do not change. A `report@1` file would diff against
/// a `report@2` one as a wall of spurious cell differences, so full-report
/// readers accept only their own generation and `lab diff` names both tags
/// on a mismatch.
pub const REPORT_SCHEMA: &str = "validity-lab/report@2";

/// A classification cell in the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifyRow {
    /// The cell key.
    pub key: String,
    /// The classifier's output.
    pub record: ClassifyRecord,
}

/// The full, deterministic sweep report.
///
/// ```
/// use validity_lab::{suites, SweepEngine};
///
/// let matrix = suites::build("quick").expect("built-in suite");
/// let (report, _) = SweepEngine::new(2).run(&matrix);
/// assert_eq!(report.violations(), 0);
/// assert!(report.to_json().contains("\"schema\": \"validity-lab/report@2\""));
/// assert!(report.to_markdown().starts_with("# Sweep report: quick"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// Matrix/suite name.
    pub matrix: String,
    /// Every cell record, in matrix order.
    pub cells: Vec<CellRecord>,
    /// Per-configuration aggregates, in first-appearance order.
    pub groups: Vec<GroupSummary>,
    /// Classification results, in matrix order.
    pub classifications: Vec<ClassifyRow>,
    /// Power-law fits, in (measure, fit-group first-appearance) order.
    /// Empty unless the matrix declares fit measures.
    pub fits: Vec<FitRow>,
    /// The axis the fits are labelled with
    /// ([`ScenarioMatrix::fit_axis`]).
    pub fit_axis: FitAxis,
    /// Keys of quarantined cells (step budget exceeded), in matrix order.
    pub quarantined: Vec<String>,
}

impl SweepReport {
    /// Folds ordered cell records into a report for `matrix`, computing the
    /// fit groups its [`FitMeasure`]s declare and checking its expected
    /// exponent bands.
    pub fn aggregate_matrix(matrix: &ScenarioMatrix, records: &[CellRecord]) -> SweepReport {
        // Per-group metadata (fit x-coordinate, fit key) comes from
        // re-enumerating the matrix's run-group templates: records carry
        // their group key, so the lookup is order-insensitive.
        let group_meta: BTreeMap<String, RunCell> = matrix
            .run_templates()
            .into_iter()
            .map(|c| (c.group_key(), c))
            .collect();
        let mut groups: Vec<GroupSummary> = Vec::new();
        let mut classifications = Vec::new();
        let mut quarantined = Vec::new();
        for rec in records {
            match &rec.outcome {
                Outcome::Classify(c) => classifications.push(ClassifyRow {
                    key: rec.key.clone(),
                    record: c.clone(),
                }),
                Outcome::Run(r) => {
                    let group = match groups.iter_mut().find(|g| g.key == rec.group) {
                        Some(g) => g,
                        None => {
                            let meta = group_meta.get(&rec.group);
                            groups.push(GroupSummary {
                                key: rec.group.clone(),
                                runs: 0,
                                decided: 0,
                                quarantined: 0,
                                agreement_failures: 0,
                                validity_failures: 0,
                                messages_after_gst: MeasureStats::default(),
                                words_after_gst: MeasureStats::default(),
                                latency: MeasureStats::default(),
                                pooled: NetStats::default(),
                                fit_x: meta.map_or(0, |c| c.n as u64),
                                fit_key: meta.map_or_else(String::new, RunCell::fit_key),
                            });
                            groups.last_mut().expect("just pushed")
                        }
                    };
                    group.runs += 1;
                    if r.quarantined {
                        group.quarantined += 1;
                        quarantined.push(rec.key.clone());
                        continue; // truncated counters measure the abort
                    }
                    group.decided += u64::from(r.decided);
                    group.agreement_failures += u64::from(!r.agreement);
                    group.validity_failures += u64::from(r.validity_ok == Some(false));
                    group.messages_after_gst.observe(r.messages_after_gst);
                    group.words_after_gst.observe(r.words_after_gst);
                    if r.decided {
                        group.latency.observe(r.latency);
                    }
                    group.pooled.merge(&r.stats);
                }
            }
        }
        let fits = compute_fits(matrix, &groups, &classifications);
        SweepReport {
            matrix: matrix.name.clone(),
            cells: records.to_vec(),
            groups,
            classifications,
            fits,
            fit_axis: matrix.fit_axis(),
            quarantined,
        }
    }

    /// Total violations (a healthy sweep reports 0 unless it *exists* to
    /// exhibit violations, like the partition suites). Quarantined runs
    /// count: they did not decide.
    pub fn violations(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.agreement_failures + g.validity_failures + (g.runs - g.decided))
            .sum()
    }

    /// Number of fit rows whose exponent left its declared band, or that
    /// declare a band but could not be fitted — with [`Self::violations`],
    /// what `lab run` fails on.
    pub fn fits_out_of_band(&self) -> u64 {
        self.fits
            .iter()
            .filter(|f| f.within_band == Some(false))
            .count() as u64
    }

    /// Looks a fit row up by group key and measure.
    pub fn fit(&self, key: &str, measure: FitMeasure) -> Option<&FitRow> {
        self.fits
            .iter()
            .find(|f| f.key == key && f.measure == measure)
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(REPORT_SCHEMA));
        let _ = writeln!(out, "  \"matrix\": {},", json_str(&self.matrix));
        let _ = writeln!(out, "  \"fit_axis\": {},", json_str(self.fit_axis.name()));
        let _ = writeln!(out, "  \"cell_count\": {},", self.cells.len());
        out.push_str("  \"cells\": [\n");
        for (i, rec) in self.cells.iter().enumerate() {
            out.push_str("    ");
            cell_json(&mut out, rec);
            out.push_str(if i + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            out.push_str("    ");
            group_json(&mut out, g);
            out.push_str(if i + 1 == self.groups.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"fits\": [\n");
        for (i, f) in self.fits.iter().enumerate() {
            out.push_str("    ");
            fit_json(&mut out, f);
            out.push_str(if i + 1 == self.fits.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n  \"quarantined\": [");
        for (i, key) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(key));
        }
        // `sampling` is a constant `null` (see [`REPORT_SCHEMA`]).
        out.push_str("],\n  \"sampling\": null\n}\n");
        out
    }

    /// Renders the human-readable Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Sweep report: {}\n", self.matrix);
        let _ = writeln!(
            out,
            "{} cells ({} runs, {} classifications); {} violation(s).\n",
            self.cells.len(),
            self.cells.len() - self.classifications.len(),
            self.classifications.len(),
            self.violations(),
        );
        if !self.classifications.is_empty() {
            out.push_str("## Classification grid\n\n");
            out.push_str("| cell | verdict | Thm 1 | cost | certificate |\n");
            out.push_str("|---|---|---|---|---|\n");
            for row in &self.classifications {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} |",
                    row.key,
                    row.record.verdict,
                    if row.record.theorem1_consistent {
                        "✔"
                    } else {
                        "✘ VIOLATED"
                    },
                    row.record.cost,
                    md_cell(&row.record.certificate),
                );
            }
            out.push('\n');
        }
        if !self.quarantined.is_empty() {
            out.push_str("## Quarantined cells\n\n");
            out.push_str(
                "These cells exceeded the matrix's per-cell step budget and were \
                 aborted; their counters are excluded from every aggregate below.\n\n",
            );
            for key in &self.quarantined {
                let _ = writeln!(out, "- `{key}`");
            }
            out.push('\n');
        }
        if !self.groups.is_empty() {
            out.push_str("## Run groups (aggregated over seeds)\n\n");
            out.push_str(
                "| configuration | runs | decided | agree✘ | valid✘ \
                 | msgs/GST mean | msgs/GST max | words/GST mean | latency mean \
                 | deliveries Σ | byz msgs Σ |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
            for g in &self.groups {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                    g.key,
                    g.runs,
                    g.decided,
                    g.agreement_failures,
                    g.validity_failures,
                    g.messages_after_gst.mean(),
                    g.messages_after_gst.max,
                    g.words_after_gst.mean(),
                    g.latency.mean(),
                    g.pooled.deliveries,
                    g.pooled.byzantine_messages,
                );
            }
            out.push('\n');
        }
        if !self.fits.is_empty() {
            let _ = writeln!(
                out,
                "## Power-law fits (y ≈ c·xᵏ, x = {}, grouped across the axis)\n",
                self.fit_axis,
            );
            out.push_str("| group | measure | points | exponent k | constant c | R² | expected band | ok |\n");
            out.push_str("|---|---|---|---|---|---|---|---|\n");
            for f in &self.fits {
                let (exponent, constant, r2) = match &f.fit {
                    Some(p) => (
                        format!("{:.3}", p.exponent),
                        format!("{:.2}", p.constant),
                        format!("{:.4}", p.r_squared),
                    ),
                    None => ("-".into(), "-".into(), "-".into()),
                };
                let band = match f.band {
                    Some((lo, hi)) => format!("[{lo:.2}, {hi:.2}]"),
                    None => "-".into(),
                };
                let ok = match f.within_band {
                    Some(true) => "✔",
                    Some(false) => "✘ OUT OF BAND",
                    None => "-",
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} | {} |",
                    f.key,
                    f.measure,
                    f.points.len(),
                    exponent,
                    constant,
                    r2,
                    band,
                    ok,
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Folds per-coordinate means into fit rows, one per (declared measure,
/// fit-group) pair, in deterministic order, each measure along its own
/// axis: run measures fit group means against `n`, the classifier-cost
/// measure fits classification cells against the domain size.
fn compute_fits(
    matrix: &ScenarioMatrix,
    groups: &[GroupSummary],
    classifications: &[ClassifyRow],
) -> Vec<FitRow> {
    let mut rows = Vec::new();
    let mut seen_measures: Vec<FitMeasure> = Vec::new();
    for &measure in &matrix.fit_measures {
        if seen_measures.contains(&measure) {
            continue;
        }
        seen_measures.push(measure);
        rows.extend(match measure.axis() {
            FitAxis::N => run_measure_fits(matrix, groups, measure),
            FitAxis::Domain => classify_cost_fits(matrix, classifications),
        });
    }
    rows
}

/// Builds a fit row from points and the matrix's declared bands.
fn fit_row(
    matrix: &ScenarioMatrix,
    key: &str,
    measure: FitMeasure,
    points: Vec<(f64, f64)>,
) -> FitRow {
    let fit = try_fit_exponent(&points);
    let band = matrix
        .fit_bands
        .iter()
        .find(|b| b.applies_to(measure, key))
        .map(|b| (b.lo, b.hi));
    // A banded row that cannot be fitted is out of band: its band would
    // otherwise hold nothing.
    let within_band =
        band.map(|(lo, hi)| fit.is_some_and(|f| f.exponent >= lo && f.exponent <= hi));
    FitRow {
        key: key.to_string(),
        measure,
        points,
        fit,
        band,
        within_band,
    }
}

/// Fit rows of one run measure: per-size group means, fit-group keys in group (= matrix) first-appearance order.
fn run_measure_fits(
    matrix: &ScenarioMatrix,
    groups: &[GroupSummary],
    measure: FitMeasure,
) -> Vec<FitRow> {
    let mut keys: Vec<&str> = Vec::new();
    for g in groups {
        if !g.fit_key.is_empty() && !keys.contains(&g.fit_key.as_str()) {
            keys.push(&g.fit_key);
        }
    }
    keys.into_iter()
        .map(|key| {
            let points: Vec<(f64, f64)> = groups
                .iter()
                .filter(|g| g.fit_key == key)
                .filter_map(|g| {
                    let stats = match measure {
                        FitMeasure::Messages => &g.messages_after_gst,
                        FitMeasure::Words => &g.words_after_gst,
                        FitMeasure::Latency => &g.latency,
                        FitMeasure::ClassifyCost => return None,
                    };
                    (stats.count > 0)
                        .then(|| (g.fit_x as f64, stats.sum as f64 / stats.count as f64))
                })
                .collect();
            fit_row(matrix, key, measure, points)
        })
        .collect()
}

/// Fit rows of the classifier-cost measure: each classification cell is
/// one `(domain, cost)` point, grouped by [`crate::matrix::ClassifyCell::fit_key`].
fn classify_cost_fits(matrix: &ScenarioMatrix, classifications: &[ClassifyRow]) -> Vec<FitRow> {
    // The domain size behind each classification row, from the matrix's
    // own cells (rows are keyed, so the lookup is order-insensitive).
    let meta: BTreeMap<String, &crate::matrix::ClassifyCell> = matrix
        .classifications
        .iter()
        .map(|c| (c.key(), c))
        .collect();
    let mut keys: Vec<String> = Vec::new();
    for row in classifications {
        if let Some(cell) = meta.get(&row.key) {
            let key = cell.fit_key();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys.into_iter()
        .map(|key| {
            let points: Vec<(f64, f64)> = classifications
                .iter()
                .filter_map(|row| {
                    let cell = meta.get(&row.key)?;
                    (cell.fit_key() == key).then_some((cell.domain as f64, row.record.cost as f64))
                })
                .collect();
            fit_row(matrix, &key, FitMeasure::ClassifyCost, points)
        })
        .collect()
}

/// Escapes a string into a JSON literal.
///
/// ```
/// use validity_lab::report::json_str;
///
/// assert_eq!(json_str("a\"b"), r#""a\"b""#);
/// assert_eq!(json_str("⟨P1⟩"), "\"⟨P1⟩\"");
/// ```
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn md_cell(s: &str) -> String {
    s.replace('|', "\\|")
}

fn run_json(out: &mut String, r: &RunRecord) {
    let _ = write!(
        out,
        "\"decided\": {}, \"agreement\": {}, \"validity_ok\": {}, \
         \"messages_after_gst\": {}, \"words_after_gst\": {}, \
         \"messages_total\": {}, \"words_total\": {}, \"latency\": {}, \
         \"quarantined\": {}, \"decision\": {}",
        r.decided,
        r.agreement,
        match r.validity_ok {
            None => "null".to_string(),
            Some(b) => b.to_string(),
        },
        r.messages_after_gst,
        r.words_after_gst,
        r.messages_total,
        r.words_total,
        r.latency as Time,
        r.quarantined,
        json_str(&r.decision),
    );
}

fn cell_json(out: &mut String, rec: &CellRecord) {
    let _ = write!(out, "{{\"key\": {}, ", json_str(&rec.key));
    match &rec.outcome {
        Outcome::Run(r) => {
            out.push_str("\"type\": \"run\", ");
            run_json(out, r);
        }
        Outcome::Classify(c) => {
            let _ = write!(
                out,
                "\"type\": \"classify\", \"verdict\": {}, \"theorem1_consistent\": {}, \
                 \"cost\": {}, \"certificate\": {}",
                json_str(&c.verdict),
                c.theorem1_consistent,
                c.cost,
                json_str(&c.certificate),
            );
        }
    }
    out.push('}');
}

fn group_json(out: &mut String, g: &GroupSummary) {
    let _ = write!(
        out,
        "{{\"key\": {}, \"runs\": {}, \"decided\": {}, \"quarantined\": {}, \
         \"agreement_failures\": {}, \
         \"validity_failures\": {}, \"messages_after_gst_mean\": {}, \
         \"messages_after_gst_max\": {}, \"words_after_gst_mean\": {}, \
         \"latency_mean\": {}, \"deliveries_total\": {}, \
         \"byzantine_messages_total\": {}}}",
        json_str(&g.key),
        g.runs,
        g.decided,
        g.quarantined,
        g.agreement_failures,
        g.validity_failures,
        json_str(&g.messages_after_gst.mean()),
        g.messages_after_gst.max,
        json_str(&g.words_after_gst.mean()),
        json_str(&g.latency.mean()),
        g.pooled.deliveries,
        g.pooled.byzantine_messages,
    );
}

fn fit_json(out: &mut String, f: &FitRow) {
    let _ = write!(
        out,
        "{{\"key\": {}, \"measure\": {}, \"points\": [",
        json_str(&f.key),
        json_str(f.measure.name()),
    );
    for (i, (x, y)) in f.points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{x:.0}, {y:.4}]");
    }
    out.push_str("], ");
    match &f.fit {
        Some(p) => {
            let _ = write!(
                out,
                "\"exponent\": {:.4}, \"constant\": {:.4}, \"r_squared\": {:.4}",
                p.exponent, p.constant, p.r_squared
            );
        }
        None => out.push_str("\"exponent\": null, \"constant\": null, \"r_squared\": null"),
    }
    match f.band {
        Some((lo, hi)) => {
            let _ = write!(out, ", \"band\": [{lo:.4}, {hi:.4}]");
        }
        None => out.push_str(", \"band\": null"),
    }
    match f.within_band {
        Some(b) => {
            let _ = write!(out, ", \"within_band\": {b}");
        }
        None => out.push_str(", \"within_band\": null"),
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_record(msgs: u64, latency: u64) -> RunRecord {
        let mut stats = NetStats::new(2);
        stats.messages_total = msgs;
        stats.deliveries = msgs;
        RunRecord {
            events: 0,
            decided: true,
            agreement: true,
            validity_ok: Some(true),
            messages_after_gst: msgs,
            words_after_gst: msgs * 3,
            messages_total: msgs,
            words_total: msgs * 3,
            latency,
            decision: "7".into(),
            quarantined: false,
            stats,
        }
    }

    fn record(key: &str, group: &str, msgs: u64, latency: u64) -> CellRecord {
        CellRecord {
            key: key.into(),
            group: group.into(),
            outcome: Outcome::Run(run_record(msgs, latency)),
        }
    }

    #[test]
    fn aggregation_folds_by_group_in_order() {
        let records = vec![
            record("g1/s0", "g1", 10, 100),
            record("g2/s0", "g2", 50, 300),
            record("g1/s1", "g1", 20, 200),
        ];
        let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("t"), &records);
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].key, "g1");
        assert_eq!(report.groups[0].runs, 2);
        assert_eq!(report.groups[0].messages_after_gst.min, 10);
        assert_eq!(report.groups[0].messages_after_gst.max, 20);
        assert_eq!(report.groups[0].messages_after_gst.mean(), "15.0");
        assert_eq!(report.groups[0].latency.mean(), "150.0");
        // Pooled counters flow through NetStats::merge.
        assert_eq!(report.groups[0].pooled.deliveries, 30);
        assert_eq!(report.groups[1].pooled.deliveries, 50);
        assert_eq!(report.violations(), 0);
    }

    #[test]
    fn undecided_runs_do_not_skew_latency() {
        let mut undecided = run_record(5, 0);
        undecided.decided = false;
        let records = vec![
            record("g/s0", "g", 10, 100),
            CellRecord {
                key: "g/s1".into(),
                group: "g".into(),
                outcome: Outcome::Run(undecided),
            },
        ];
        let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("t"), &records);
        let g = &report.groups[0];
        assert_eq!(g.runs, 2);
        assert_eq!(g.decided, 1);
        // Latency reflects only the decided run, not a phantom zero.
        assert_eq!(g.latency.count, 1);
        assert_eq!(g.latency.min, 100);
        assert_eq!(g.latency.mean(), "100.0");
        // Message measures still cover every run.
        assert_eq!(g.messages_after_gst.count, 2);
    }

    #[test]
    fn violations_counted() {
        let mut bad = run_record(5, 10);
        bad.agreement = false;
        bad.validity_ok = Some(false);
        let records = vec![CellRecord {
            key: "g/s0".into(),
            group: "g".into(),
            outcome: Outcome::Run(bad),
        }];
        let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("t"), &records);
        assert_eq!(report.violations(), 2);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("⟨P1⟩"), "\"⟨P1⟩\"");
    }

    #[test]
    fn reports_render_and_are_deterministic() {
        let records = vec![record("g1/s0", "g1", 10, 100)];
        let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("demo"), &records);
        assert_eq!(report.to_json(), report.to_json());
        assert!(report.to_json().contains("\"matrix\": \"demo\""));
        assert!(report.to_markdown().contains("| g1 |"));
    }

    #[test]
    fn mean_rounds_half_up_deterministically() {
        let mut m = MeasureStats::default();
        m.observe(1);
        m.observe(2);
        assert_eq!(m.mean(), "1.5");
        assert_eq!(MeasureStats::default().mean(), "-");
    }

    #[test]
    fn quarantined_runs_are_listed_and_excluded_from_measures() {
        let mut bad = run_record(999_999, 0);
        bad.quarantined = true;
        bad.decided = false;
        let records = vec![
            record("g/s0", "g", 10, 100),
            CellRecord {
                key: "g/s1".into(),
                group: "g".into(),
                outcome: Outcome::Run(bad),
            },
        ];
        let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("t"), &records);
        assert_eq!(report.quarantined, vec!["g/s1".to_string()]);
        let g = &report.groups[0];
        assert_eq!(g.runs, 2);
        assert_eq!(g.quarantined, 1);
        // The truncated run's absurd counters must not leak into measures.
        assert_eq!(g.messages_after_gst.count, 1);
        assert_eq!(g.messages_after_gst.max, 10);
        // A quarantined run did not decide: it is a violation.
        assert_eq!(report.violations(), 1);
        // Both emitters surface the quarantine.
        assert!(report.to_json().contains("\"quarantined\": [\"g/s1\"]"));
        assert!(report.to_markdown().contains("## Quarantined cells"));
        assert!(report.to_markdown().contains("- `g/s1`"));
    }

    mod fits {
        use super::*;
        use crate::matrix::{
            CellSpec, FitBand, ProtocolAxis, ScenarioMatrix, ScheduleSpec, ValiditySpec,
        };
        use validity_adversary::BehaviorId;
        use validity_protocols::find_vector;

        /// A matrix over three sizes, with synthetic records following an
        /// exact power law `messages = 3·n²`, `words = 2·n³`.
        fn matrix_and_records() -> (ScenarioMatrix, Vec<CellRecord>) {
            let mut m = ScenarioMatrix::new("fit-test");
            m.protocols = vec![ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap())];
            m.validities = vec![ValiditySpec::Strong];
            m.behaviors = vec![BehaviorId::Silent];
            m.faults = vec![0];
            m.schedules = vec![ScheduleSpec::Synchronous];
            m.systems = vec![(4, 1), (7, 2), (10, 3)];
            m.seeds = 0..2;
            m.fit_measures = vec![FitMeasure::Messages, FitMeasure::Words];
            m.fit_bands = vec![
                FitBand {
                    measure: FitMeasure::Messages,
                    lo: 1.9,
                    hi: 2.1,
                    filter: String::new(),
                },
                FitBand {
                    measure: FitMeasure::Words,
                    lo: 5.0,
                    hi: 6.0,
                    filter: String::new(),
                },
            ];
            let records: Vec<CellRecord> = m
                .cells()
                .iter()
                .filter_map(|c| match c {
                    CellSpec::Run(r) => Some(r),
                    CellSpec::Classify(_) => None,
                })
                .map(|c| {
                    let n = c.n as u64;
                    let mut rec = run_record(3 * n * n, 100);
                    rec.words_after_gst = 2 * n * n * n;
                    CellRecord {
                        key: c.key(),
                        group: c.group_key(),
                        outcome: Outcome::Run(rec),
                    }
                })
                .collect();
            (m, records)
        }

        #[test]
        fn fit_groups_recover_the_power_law_across_sizes() {
            let (m, records) = matrix_and_records();
            let report = SweepReport::aggregate_matrix(&m, &records);
            assert_eq!(report.fits.len(), 2, "{:?}", report.fits);
            let msgs = &report.fits[0];
            assert_eq!(msgs.measure, FitMeasure::Messages);
            assert_eq!(msgs.key, "fit/universal/alg1-auth/strong/silentx0/sync");
            assert_eq!(msgs.points.len(), 3);
            let fit = msgs.fit.expect("three sizes fit");
            assert!((fit.exponent - 2.0).abs() < 1e-9, "{fit:?}");
            assert!((fit.constant - 3.0).abs() < 1e-6, "{fit:?}");
            assert_eq!(msgs.band, Some((1.9, 2.1)));
            assert_eq!(msgs.within_band, Some(true));
            // The words band [5, 6] does not contain the cubic exponent.
            let words = &report.fits[1];
            assert_eq!(words.within_band, Some(false));
            assert_eq!(report.fits_out_of_band(), 1);
            // Emitters carry the section.
            assert!(report.to_json().contains("\"fits\": [\n"));
            assert!(report.to_json().contains("\"within_band\": false"));
            assert!(report.to_markdown().contains("## Power-law fits"));
            assert!(report.to_markdown().contains("✘ OUT OF BAND"));
        }

        #[test]
        fn aggregate_without_matrix_has_no_fit_section() {
            let (_, records) = matrix_and_records();
            // An empty matrix declares no fit measure.
            let report = SweepReport::aggregate_matrix(&ScenarioMatrix::new("fit-test"), &records);
            assert!(report.fits.is_empty());
            assert!(report.to_json().contains("\"fits\": [\n  ]"));
        }

        /// The matrix and records cut down to the one size `(4, 1)`.
        fn one_size() -> (ScenarioMatrix, Vec<CellRecord>) {
            let (mut m, records) = matrix_and_records();
            m.systems = vec![(4, 1)];
            let records = records
                .into_iter()
                .filter(|r| r.key.contains("n4t1"))
                .collect();
            (m, records)
        }

        #[test]
        fn single_size_matrix_yields_an_unfittable_row() {
            let (mut m, records) = one_size();
            m.fit_bands.clear();
            let report = SweepReport::aggregate_matrix(&m, &records);
            assert_eq!(report.fits.len(), 2);
            assert_eq!(report.fits[0].points.len(), 1);
            assert!(report.fits[0].fit.is_none());
            assert_eq!(report.fits[0].within_band, None);
            assert_eq!(report.fits_out_of_band(), 0);
            assert!(report.to_json().contains("\"exponent\": null"));
        }

        /// A declared band the points cannot be fitted against is out of
        /// band, not silently disarmed.
        #[test]
        fn a_banded_row_that_cannot_be_fitted_is_out_of_band() {
            let (mut m, records) = one_size();
            m.fit_bands.retain(|b| b.measure == FitMeasure::Messages);
            let report = SweepReport::aggregate_matrix(&m, &records);
            let (msgs, words) = (&report.fits[0], &report.fits[1]);
            assert!(msgs.fit.is_none() && words.fit.is_none());
            assert_eq!(msgs.within_band, Some(false));
            assert_eq!(words.within_band, None, "an unbanded row has no verdict");
            assert_eq!(report.fits_out_of_band(), 1);
            assert!(report.to_json().contains("\"within_band\": false"));
            assert!(report.to_markdown().contains("✘ OUT OF BAND"));
        }
    }
}
