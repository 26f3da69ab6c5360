//! Adaptive sampling: precision-targeted seed budgets per run group.
//!
//! A fixed-seed sweep spends the same budget on every group, over-sampling
//! stable configurations and under-sampling volatile ones. With a
//! [`SamplingSpec`] the engine instead runs each group's seeds in
//! deterministic batches and stops as soon as the group's fitted measures
//! are estimated precisely enough — in the spirit of the sequential
//! estimation used by population-protocol experiments, where the sample
//! size is an output of the noise, not an input.
//!
//! **Stopping rule.** After each batch, every fitted run measure's
//! *relative half-width* of the 95% confidence interval on the mean is
//! computed over all of the group's observations so far:
//!
//! ```text
//! ρ = 1.96 · s / (√k · x̄)
//! ```
//!
//! (`s` the sample standard deviation, `k` the observation count, `x̄` the
//! sample mean). The group is **stable** once `ρ ≤ precision` for every
//! measure; it then stops. A group that never stabilizes stops when the
//! next batch would exceed the seed cap and is flagged as **capped** (not
//! quarantined — its runs are healthy, only its spread is wide).
//!
//! **Determinism.** Observations are folded in seed order, the arithmetic
//! is plain IEEE `f64` (identical on every platform), and the decision
//! depends only on the group's own records. The same group therefore stops
//! at the same seed count on 1 worker or 16, unsharded or on whichever
//! shard owns it — which is what lets `lab merge` re-derive ("commit")
//! every shard's stopping decision from the records alone and refuse a
//! merge in which any shard disagrees with the rule.

use std::fmt::Write as _;

use crate::matrix::{FitMeasure, SamplingSpec};
use crate::report::json_str;
use crate::runner::{CellRecord, Outcome};

/// The 95% normal quantile used for confidence half-widths.
pub const Z_95: f64 = 1.96;

/// One run group's sampling outcome, as recorded in the report's
/// `sampling` section and in a partial report's measure-phase claims.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSampling {
    /// The group key (a [`crate::matrix::RunCell::group_key`]).
    pub key: String,
    /// Seeds consumed (= run records produced).
    pub consumed: u64,
    /// Batches consumed.
    pub batches: u64,
    /// Whether the group met the precision target (`false` = capped).
    pub stable: bool,
    /// Achieved precision: the worst relative CI half-width across the
    /// fitted measures over every consumed seed. `None` when some measure
    /// cannot support an estimate (fewer than two observations, or a
    /// non-positive mean with spread).
    pub achieved: Option<f64>,
}

impl GroupSampling {
    /// Renders the compact JSON object shared by full reports and partial
    /// claims.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"key\": {}, \"consumed\": {}, \"batches\": {}, \"stable\": {}, \"achieved\": {}}}",
            json_str(&self.key),
            self.consumed,
            self.batches,
            self.stable,
            self.achieved
                .map_or("null".to_string(), |a| format!("{a:.4}")),
        );
        out
    }
}

/// Splits a record list into its consecutive run-group slices, skipping
/// classification records — the walk both the report's `sampling` section
/// and a partial's measure-phase claims are derived with, shared so the
/// two can never disagree about where a group's records begin and end.
///
/// Records of one group are contiguous in matrix/unit order (the only
/// orders the lab produces), so one pass suffices.
pub fn group_slices(records: &[CellRecord]) -> Vec<(&str, &[CellRecord])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < records.len() {
        if matches!(records[i].outcome, Outcome::Classify(_)) {
            i += 1;
            continue;
        }
        let key = records[i].group.as_str();
        let start = i;
        while i < records.len() && records[i].group == key {
            i += 1;
        }
        out.push((key, &records[start..i]));
    }
    out
}

/// The observations of one measure across a group's records, in record
/// (= seed) order, mirroring the aggregation rules: quarantined runs are
/// excluded entirely, and latency is observed only on decided runs.
fn observations(records: &[CellRecord], measure: FitMeasure) -> Vec<f64> {
    records
        .iter()
        .filter_map(|rec| match &rec.outcome {
            Outcome::Run(r) if !r.quarantined => match measure {
                FitMeasure::Messages => Some(r.messages_after_gst as f64),
                FitMeasure::Words => Some(r.words_after_gst as f64),
                FitMeasure::Latency => r.decided.then_some(r.latency as f64),
                FitMeasure::ClassifyCost => None,
            },
            _ => None,
        })
        .collect()
}

/// Relative half-width of the 95% CI on the mean of `values`.
///
/// Returns `Some(0.0)` for a spread-free sample (stable regardless of the
/// mean), and `None` when no estimate exists: fewer than two observations,
/// or a non-positive mean with non-zero spread (a *relative* width is
/// undefined there, and such a group can never stabilize).
///
/// ```
/// use validity_lab::sampling::relative_half_width;
///
/// assert_eq!(relative_half_width(&[7.0, 7.0, 7.0]), Some(0.0));
/// assert_eq!(relative_half_width(&[7.0]), None);
/// let rho = relative_half_width(&[90.0, 100.0, 110.0]).unwrap();
/// assert!(rho > 0.0 && rho < 1.0);
/// ```
pub fn relative_half_width(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let k = values.len() as f64;
    let mean = values.iter().sum::<f64>() / k;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (k - 1.0);
    let s = var.sqrt();
    if s == 0.0 {
        return Some(0.0);
    }
    if mean <= 0.0 {
        return None;
    }
    Some(Z_95 * s / (k.sqrt() * mean))
}

/// The worst relative CI half-width across the fitted run measures, over
/// all of `records`. `None` when any measure lacks an estimate.
pub fn achieved_precision(records: &[CellRecord], measures: &[FitMeasure]) -> Option<f64> {
    let mut worst = 0.0f64;
    let mut any = false;
    for &measure in measures.iter().filter(|m| m.is_run_measure()) {
        any = true;
        let rho = relative_half_width(&observations(records, measure))?;
        worst = worst.max(rho);
    }
    any.then_some(worst)
}

/// Whether a group's records meet the precision target on every fitted
/// run measure. With no run measure declared the group is vacuously
/// stable (there is nothing to estimate).
pub fn is_stable(records: &[CellRecord], measures: &[FitMeasure], precision: f64) -> bool {
    measures
        .iter()
        .filter(|m| m.is_run_measure())
        .all(|&measure| {
            relative_half_width(&observations(records, measure)).is_some_and(|rho| rho <= precision)
        })
}

/// The stopping rule, checked after each batch: a group stops once its
/// records meet the precision target, or when one more batch would pass
/// the seed cap. The executor's seed ladder and the merge's replay
/// ([`expected_consumed`]) both ask this one predicate.
pub fn should_stop(records: &[CellRecord], spec: &SamplingSpec, measures: &[FitMeasure]) -> bool {
    is_stable(records, measures, spec.precision)
        || records.len() as u64 + spec.batch_size() > spec.max_seeds
}

/// Replays the stopping rule over a group's records and returns the seed
/// count the rule commits to — the "commit" half of the two-phase shard
/// protocol. A complete group satisfies `expected_consumed == len`; any
/// other length means the producer stopped early or late and the records
/// must be refused.
pub fn expected_consumed(
    records: &[CellRecord],
    spec: &SamplingSpec,
    measures: &[FitMeasure],
) -> u64 {
    let batch = spec.batch_size();
    let mut k = batch;
    loop {
        if (k as usize) > records.len() {
            // The producer stopped before the rule did: return the rule's
            // next checkpoint so the caller sees the length mismatch.
            return k;
        }
        if should_stop(&records[..k as usize], spec, measures) {
            return k;
        }
        k += batch;
    }
}

/// Evaluates a completed group's sampling outcome for the report.
pub fn evaluate(
    key: &str,
    records: &[CellRecord],
    spec: &SamplingSpec,
    measures: &[FitMeasure],
) -> GroupSampling {
    let batch = spec.batch_size();
    let consumed = records.len() as u64;
    GroupSampling {
        key: key.to_string(),
        consumed,
        batches: consumed.div_ceil(batch),
        stable: is_stable(records, measures, spec.precision),
        achieved: achieved_precision(records, measures),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunRecord;
    use validity_simnet::NetStats;

    fn run(key: &str, msgs: u64, decided: bool, quarantined: bool) -> CellRecord {
        CellRecord {
            key: format!("g/s{key}"),
            group: "g".into(),
            outcome: Outcome::Run(RunRecord {
                events: 0,
                decided,
                agreement: true,
                validity_ok: Some(true),
                messages_after_gst: msgs,
                words_after_gst: msgs * 3,
                messages_total: msgs,
                words_total: msgs * 3,
                latency: msgs / 2,
                decision: "0".into(),
                quarantined,
                stats: NetStats::new(2),
            }),
        }
    }

    fn records(msgs: &[u64]) -> Vec<CellRecord> {
        msgs.iter()
            .enumerate()
            .map(|(i, &m)| run(&i.to_string(), m, true, false))
            .collect()
    }

    const SPEC: SamplingSpec = SamplingSpec {
        precision: 0.05,
        batch: 2,
        max_seeds: 8,
    };

    #[test]
    fn half_width_handles_degenerate_samples() {
        assert_eq!(relative_half_width(&[]), None);
        assert_eq!(relative_half_width(&[5.0]), None);
        // Zero spread is exactly stable, even at mean 0.
        assert_eq!(relative_half_width(&[0.0, 0.0]), Some(0.0));
        // Spread around a zero mean has no relative width.
        assert_eq!(relative_half_width(&[-5.0, 5.0]), None);
        // A textbook sample: x̄ = 100, s = 10, k = 4 → ρ = 1.96·10/(2·100).
        let rho = relative_half_width(&[90.0, 110.0, 90.0, 110.0]).unwrap();
        let s = (4.0f64 / 3.0 * 100.0).sqrt();
        assert!((rho - 1.96 * s / (2.0 * 100.0)).abs() < 1e-12, "{rho}");
    }

    #[test]
    fn zero_variance_group_stops_after_the_first_batch() {
        let recs = records(&[100, 100]);
        assert!(is_stable(&recs, &[FitMeasure::Messages], 0.0));
        assert_eq!(
            expected_consumed(&recs, &SPEC, &[FitMeasure::Messages]),
            2,
            "a spread-free pilot batch must commit immediately"
        );
        let s = evaluate("g", &recs, &SPEC, &[FitMeasure::Messages]);
        assert!(s.stable);
        assert_eq!((s.consumed, s.batches), (2, 1));
        assert_eq!(s.achieved, Some(0.0));
    }

    #[test]
    fn never_stabilizing_group_commits_to_the_cap() {
        // Wild alternation: no prefix ever meets a 5% target.
        let recs = records(&[10, 1000, 10, 1000, 10, 1000, 10, 1000]);
        assert_eq!(
            expected_consumed(&recs, &SPEC, &[FitMeasure::Messages]),
            8,
            "an unstable group must run to the cap"
        );
        let s = evaluate("g", &recs, &SPEC, &[FitMeasure::Messages]);
        assert!(!s.stable, "capped, not stable");
        assert_eq!((s.consumed, s.batches), (8, 4));
        assert!(s.achieved.unwrap() > 0.05);
    }

    #[test]
    fn stabilizing_group_stops_at_its_first_stable_prefix() {
        // Noisy pilot, then the running CI tightens under 20% at 6 seeds.
        let msgs = [80, 120, 100, 100, 100, 100, 100, 100];
        let spec = SamplingSpec {
            precision: 0.2,
            ..SPEC
        };
        let recs = records(&msgs);
        let expected = expected_consumed(&recs, &spec, &[FitMeasure::Messages]);
        assert!(expected > 2 && expected < 8, "expected {expected}");
        assert!(is_stable(
            &recs[..expected as usize],
            &[FitMeasure::Messages],
            0.2
        ));
        assert!(!is_stable(
            &recs[..(expected - spec.batch) as usize],
            &[FitMeasure::Messages],
            0.2
        ));
    }

    #[test]
    fn truncated_records_are_detected_by_replay() {
        // The rule wants to continue past what the producer supplied: the
        // committed count exceeds the record count, exposing the gap.
        let recs = records(&[10, 1000]);
        let expected = expected_consumed(&recs, &SPEC, &[FitMeasure::Messages]);
        assert!(expected > recs.len() as u64);
    }

    #[test]
    fn quarantined_and_undecided_runs_shape_the_observations() {
        let mut recs = records(&[100, 100]);
        recs.push(run("2", 999_999, true, true)); // quarantined: excluded
        assert_eq!(
            observations(&recs, FitMeasure::Messages),
            vec![100.0, 100.0]
        );
        let mut undecided = records(&[100, 100]);
        undecided.push(run("2", 100, false, false));
        // Messages observes all three; latency only the two decided.
        assert_eq!(observations(&undecided, FitMeasure::Messages).len(), 3);
        assert_eq!(observations(&undecided, FitMeasure::Latency).len(), 2);
    }

    #[test]
    fn no_run_measures_is_vacuously_stable() {
        let recs = records(&[10, 1000]);
        assert!(is_stable(&recs, &[], 0.0));
        assert!(is_stable(&recs, &[FitMeasure::ClassifyCost], 0.0));
        assert_eq!(expected_consumed(&recs, &SPEC, &[]), 2);
        assert_eq!(achieved_precision(&recs, &[]), None);
    }

    #[test]
    fn group_sampling_renders_deterministic_json() {
        let s = GroupSampling {
            key: "g".into(),
            consumed: 4,
            batches: 2,
            stable: true,
            achieved: Some(0.01234),
        };
        assert_eq!(
            s.to_json(),
            "{\"key\": \"g\", \"consumed\": 4, \"batches\": 2, \"stable\": true, \
             \"achieved\": 0.0123}"
        );
        let capped = GroupSampling {
            achieved: None,
            stable: false,
            ..s
        };
        assert!(capped.to_json().contains("\"achieved\": null"));
    }
}
