//! Sweep observability: per-cell engine metrics and their renderings.
//!
//! When the engine runs with [`crate::SweepEngine::observe`], every run
//! cell (or adaptive work unit) executes with a
//! [`validity_simnet::Metrics`] probe attached and the sweep returns one
//! [`CellObservation`] per observed unit. This module renders those
//! observations:
//!
//! * [`observe_markdown`] — the non-canonical `## Observability` section
//!   `lab run --observe` appends to the Markdown report (mirroring the
//!   `--timing` section's contract: *never* part of canonical artifacts);
//! * [`observe_json`] — the deterministic `validity-lab/observe@1` side
//!   artifact with the full histograms and per-round counters;
//! * [`timeline_for`] — re-runs one labeled cell with a
//!   [`validity_simnet::Timeline`] probe for JSONL / Chrome-trace export;
//! * [`profile_markdown`] — the `lab profile` summary (hottest cells,
//!   queue/slab occupancy).
//!
//! Observations are deterministic (probes count simulator events, not
//! wall clock), so the Markdown section and the JSON artifact are
//! byte-stable across runs and thread counts — but they stay out of the
//! canonical report, whose fingerprints must not depend on whether a run
//! was observed.

use std::time::Duration;

use validity_simnet::{Hist, Metrics, Timeline};

use crate::executor::CellTiming;
use crate::matrix::{CellSpec, ScenarioMatrix, WorkUnit};
use crate::report::json_str;
use crate::runner::{execute_run_with_probe, GroupContext};

/// The `--observe` artifact schema tag.
pub const OBSERVE_SCHEMA: &str = "validity-lab/observe@1";

/// Engine metrics for one executed cell (fixed sweeps) or one work unit
/// (adaptive sweeps — the whole seed ladder pooled).
#[derive(Clone, Debug)]
pub struct CellObservation {
    /// The cell key (fixed sweeps) or group key (adaptive units).
    pub label: String,
    /// The pooled engine metrics.
    pub metrics: Metrics,
    /// Equivocations the cell's adversary reported about itself (zero for
    /// every oblivious behaviour).
    pub equivocations: u64,
    /// Omissions the cell's adversary reported about itself.
    pub omissions: u64,
}

fn hist_cells(h: &Hist) -> String {
    format!("{} / {} / {}", h.quantile(50), h.quantile(99), h.max())
}

/// Renders the non-canonical `## Observability` Markdown section.
pub fn observe_markdown(observed: &[CellObservation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("## Observability (engine metrics; never part of canonical reports)\n\n");
    out.push_str(
        "Latency and queue-depth columns are `p50 / p99 / max` from \
         log2-bucketed histograms (quantiles are bucket upper bounds).\n\n",
    );
    out.push_str(
        "| cell | events | msgs | words | dropped | duped | equiv | omit | delivery latency | \
         queue depth | q high | slab high |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut total = Metrics::new(1);
    let (mut total_equiv, mut total_omit) = (0u64, 0u64);
    for o in observed {
        let m = &o.metrics;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            o.label,
            m.events,
            m.messages,
            m.words,
            m.dropped,
            m.duplicated,
            o.equivocations,
            o.omissions,
            hist_cells(&m.latency),
            hist_cells(&m.queue_depth),
            m.queue_high_water,
            m.slab_high_water,
        );
        total.merge(m);
        total_equiv += o.equivocations;
        total_omit += o.omissions;
    }
    let _ = writeln!(
        out,
        "| **total** | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
        total.events,
        total.messages,
        total.words,
        total.dropped,
        total.duplicated,
        total_equiv,
        total_omit,
        hist_cells(&total.latency),
        hist_cells(&total.queue_depth),
        total.queue_high_water,
        total.slab_high_water,
    );
    out
}

fn hist_json(h: &Hist) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"buckets\": [",
        h.count(),
        h.sum(),
        h.mean(),
        h.quantile(50),
        h.quantile(99),
        h.max()
    );
    for (i, (bucket, count)) in h.nonzero().enumerate() {
        let _ = write!(out, "{}[{bucket}, {count}]", if i == 0 { "" } else { ", " });
    }
    out.push_str("]}");
    out
}

/// Renders the deterministic `validity-lab/observe@1` JSON artifact.
pub fn observe_json(suite: &str, observed: &[CellObservation]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json_str(OBSERVE_SCHEMA));
    let _ = writeln!(out, "  \"suite\": {},", json_str(suite));
    out.push_str("  \"cells\": [");
    for (i, o) in observed.iter().enumerate() {
        let m = &o.metrics;
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = writeln!(out, "    {{\n      \"cell\": {},", json_str(&o.label));
        let _ = writeln!(
            out,
            "      \"events\": {}, \"starts\": {}, \"deliveries\": {}, \
             \"timer_fires\": {}, \"decides\": {}, \"halts\": {},",
            m.events, m.starts, m.deliveries, m.timer_fires, m.decides, m.halts
        );
        let _ = writeln!(
            out,
            "      \"messages\": {}, \"words\": {}, \"dropped\": {}, \"duplicated\": {}, \
             \"queue_pushes\": {}, \"queue_pops\": {}, \"queue_high_water\": {}, \
             \"slab_high_water\": {},",
            m.messages,
            m.words,
            m.dropped,
            m.duplicated,
            m.queue_pushes,
            m.queue_pops,
            m.queue_high_water,
            m.slab_high_water
        );
        let _ = writeln!(out, "      \"round_width\": {},", m.round_width());
        let _ = writeln!(out, "      \"latency\": {},", hist_json(&m.latency));
        let _ = writeln!(out, "      \"queue_depth\": {},", hist_json(&m.queue_depth));
        out.push_str("      \"rounds\": [");
        for (j, (round, msgs, words)) in m.rounds().enumerate() {
            let _ = write!(
                out,
                "{}[{round}, {msgs}, {words}]",
                if j == 0 { "" } else { ", " }
            );
        }
        out.push_str("]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Re-runs the labeled cell (fixed sweeps) or the labeled group's first
/// seed (adaptive sweeps) with a [`Timeline`] probe and returns the
/// recorded timeline. Deterministic: the replay is the same seeded
/// execution the sweep ran. Returns `None` for classification cells and
/// unknown labels.
pub fn timeline_for(matrix: &ScenarioMatrix, label: &str) -> Option<Timeline> {
    if matrix.sampling.is_some() {
        for unit in matrix.work_units() {
            if let WorkUnit::Group(template) = unit {
                if template.group_key() == label {
                    let ctx = GroupContext::new(&template, matrix.max_steps);
                    let (_, timeline) =
                        execute_run_with_probe(&ctx, matrix.seeds.start, Timeline::new());
                    return Some(timeline);
                }
            }
        }
        return None;
    }
    for cell in matrix.cells() {
        if let CellSpec::Run(c) = cell {
            if c.key() == label {
                let ctx = GroupContext::new(&c, matrix.max_steps);
                let (_, timeline) = execute_run_with_probe(&ctx, c.seed, Timeline::new());
                return Some(timeline);
            }
        }
    }
    None
}

/// The label of the hottest observed unit by simulator events —
/// deterministic (events are seeded), so it is the natural default target
/// for timeline export. Ties break toward the earlier unit.
pub fn hottest_by_events(observed: &[CellObservation]) -> Option<&CellObservation> {
    observed.iter().reduce(|best, o| {
        if o.metrics.events > best.metrics.events {
            o
        } else {
            best
        }
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders the `lab profile` report: top-`top` hottest cells by events and
/// by wall clock, and queue/slab occupancy summaries. Wall-clock figures
/// are nondeterministic; event and occupancy figures are exact.
pub fn profile_markdown(
    suite: &str,
    timings: &[CellTiming],
    observed: &[CellObservation],
    top: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Profile: {suite}");

    let mut by_events: Vec<&CellTiming> = timings.iter().collect();
    by_events.sort_by(|a, b| b.events.cmp(&a.events).then(a.label.cmp(&b.label)));
    out.push_str("\n## Hottest cells by events\n\n| cell | events | wall ms |\n|---|---|---|\n");
    for t in by_events.iter().take(top) {
        let _ = writeln!(out, "| {} | {} | {:.3} |", t.label, t.events, ms(t.wall));
    }

    let mut by_wall: Vec<&CellTiming> = timings.iter().collect();
    by_wall.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.label.cmp(&b.label)));
    out.push_str(
        "\n## Hottest cells by wall clock\n\n| cell | wall ms | events |\n|---|---|---|\n",
    );
    for t in by_wall.iter().take(top) {
        let _ = writeln!(out, "| {} | {:.3} | {} |", t.label, ms(t.wall), t.events);
    }

    let mut total_m = Metrics::new(1);
    for o in observed {
        total_m.merge(&o.metrics);
    }
    out.push_str("\n## Occupancy\n\n");
    let _ = writeln!(
        out,
        "- events: {} dispatched ({} starts, {} deliveries, {} timer fires, \
         {} decides, {} halts)",
        total_m.events,
        total_m.starts,
        total_m.deliveries,
        total_m.timer_fires,
        total_m.decides,
        total_m.halts
    );
    let _ = writeln!(
        out,
        "- traffic: {} messages, {} words",
        total_m.messages, total_m.words
    );
    let _ = writeln!(
        out,
        "- queue depth p50 / p99 / max: {} (high water {} across {} pushes)",
        hist_cells(&total_m.queue_depth),
        total_m.queue_high_water,
        total_m.queue_pushes
    );
    let _ = writeln!(
        out,
        "- delivery latency p50 / p99 / max: {} ticks",
        hist_cells(&total_m.latency)
    );
    let _ = writeln!(
        out,
        "- payload slab high water: {} live slots",
        total_m.slab_high_water
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepEngine;
    use crate::matrix::{ProtocolAxis, ScheduleSpec, ValiditySpec};
    use validity_adversary::BehaviorId;
    use validity_protocols::find_vector;

    fn matrix() -> ScenarioMatrix {
        let mut m = ScenarioMatrix::new("observe-test");
        m.protocols = vec![ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap())];
        m.validities = vec![ValiditySpec::Strong];
        m.behaviors = vec![BehaviorId::Silent];
        m.faults = vec![1];
        m.schedules = vec![ScheduleSpec::Synchronous];
        m.systems = vec![(4, 1)];
        m.seeds = 0..2;
        m
    }

    #[test]
    fn markdown_and_json_are_deterministic_and_tagged() {
        let m = matrix();
        let a = SweepEngine::new(1).observe(true).execute(&m);
        let b = SweepEngine::new(2).observe(true).execute(&m);
        let md_a = observe_markdown(&a.observed);
        let md_b = observe_markdown(&b.observed);
        assert_eq!(md_a, md_b, "observations must not depend on threads");
        assert!(md_a.contains("## Observability"));
        let json = observe_json("observe-test", &a.observed);
        assert_eq!(json, observe_json("observe-test", &b.observed));
        assert!(json.contains(OBSERVE_SCHEMA));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"rounds\""));
    }

    #[test]
    fn timeline_replays_the_labeled_cell() {
        let m = matrix();
        let run = SweepEngine::new(1).observe(true).execute(&m);
        let hot = hottest_by_events(&run.observed).expect("observed cells");
        let timeline = timeline_for(&m, &hot.label).expect("run cell label resolves");
        assert!(!timeline.is_empty());
        // Fixed sweep: the replay is the same seeded run the sweep
        // observed, so the timeline's entries are exactly the per-process
        // events the metrics counted (dispatches plus decides and halts).
        let hm = &hot.metrics;
        assert_eq!(
            timeline.len() as u64,
            hm.starts + hm.deliveries + hm.timer_fires + hm.decides + hm.halts
        );
        assert!(timeline_for(&m, "no-such-cell").is_none());
        // Both export formats render.
        assert!(timeline.to_jsonl().lines().count() == timeline.len());
        assert!(timeline.to_chrome_trace().contains("traceEvents"));
    }

    #[test]
    fn profile_markdown_has_all_sections() {
        let m = matrix();
        let run = SweepEngine::new(1).observe(true).execute(&m);
        let md = profile_markdown("observe-test", &run.timings, &run.observed, 3);
        assert!(md.contains("## Hottest cells by events"));
        assert!(md.contains("## Hottest cells by wall clock"));
        assert!(md.contains("## Occupancy"));
        assert!(md.contains("payload slab high water"));
    }
}
