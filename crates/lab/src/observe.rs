//! Sweep observability: per-cell engine metrics and their renderings.
//!
//! When the engine runs with [`crate::SweepEngine::observe`], every run
//! cell executes with a [`validity_simnet::Metrics`] probe attached and
//! the sweep returns one [`CellObservation`] per run cell. This module renders those
//! observations:
//!
//! * [`observe_markdown`] — the non-canonical `## Observability` section
//!   `lab run --observe` appends to the Markdown report (*never* part of
//!   canonical artifacts);
//! * [`observe_json`] — the deterministic `validity-lab/observe@1` side
//!   artifact with the full histograms and per-round counters;
//! * [`timeline_for`] — re-runs one labeled cell with a
//!   [`validity_simnet::Timeline`] probe for JSONL / Chrome-trace export.
//!
//! Observations are deterministic (probes count simulator events, not
//! wall clock), so the Markdown section and the JSON artifact are
//! byte-stable across runs and thread counts — but they stay out of the
//! canonical report, whose fingerprints must not depend on whether a run
//! was observed.

use validity_core::SystemParams;
use validity_protocols::{ProtocolContext, Universal};
use validity_simnet::{Hist, Metrics, Timeline};

use crate::matrix::ScenarioMatrix;
use crate::report::json_str;
use crate::runner::{simulate, simulate_engine};

/// The `--observe` artifact schema tag.
pub const OBSERVE_SCHEMA: &str = "validity-lab/observe@1";

/// Engine metrics for one executed run cell.
#[derive(Clone, Debug)]
pub struct CellObservation {
    /// The cell key.
    pub label: String,
    /// The cell's engine metrics.
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

/// Re-runs the labeled run cell with a [`Timeline`] probe and returns the
/// recorded timeline. Deterministic: the replay is the same seeded
/// execution the sweep ran. A `Universal` cell replays Algorithm 2
/// itself, so its decide entries show the values `Λ` chose rather than
/// the vectors. Returns `None` for classification cells and unknown
/// labels.
pub fn timeline_for(matrix: &ScenarioMatrix, label: &str) -> Option<Timeline> {
    let cell = matrix.run_cells().find(|c| c.key() == label)?;
    let timeline = |_| Timeline::new();
    Some(match cell.validity.filter(|_| cell.protocol.universal) {
        Some(validity) => {
            let engine = cell.protocol.engine;
            let params =
                SystemParams::new(cell.n, cell.t).expect("matrix enumerated a valid (n, t)");
            let universal = |ctx: &ProtocolContext, p, input| {
                let lambda = validity
                    .lambda(params)
                    .expect("matrix only pairs Universal with Λ-bearing properties");
                Universal::new(engine.machine(ctx, p, input), lambda)
            };
            simulate(&cell, matrix.max_steps, timeline, universal).1
        }
        None => simulate_engine(&cell, matrix.max_steps, timeline).1,
    })
}

/// The hottest observed cell by simulator events — deterministic (events
/// are seeded), so it is the natural default target for timeline export.
/// Ties break toward the earlier cell.
pub fn hottest_by_events(observed: &[CellObservation]) -> Option<&CellObservation> {
    observed.iter().reduce(|best, o| {
        if o.metrics.events > best.metrics.events {
            o
        } else {
            best
        }
    })
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
        let (_, a) = SweepEngine::new(1).observe(true).run(&m);
        let (_, b) = SweepEngine::new(2).observe(true).run(&m);
        let md_a = observe_markdown(&a);
        let md_b = observe_markdown(&b);
        assert_eq!(md_a, md_b, "observations must not depend on threads");
        assert!(md_a.contains("## Observability"));
        let json = observe_json("observe-test", &a);
        assert_eq!(json, observe_json("observe-test", &b));
        assert!(json.contains(OBSERVE_SCHEMA));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"rounds\""));
    }

    #[test]
    fn timeline_replays_the_labeled_cell() {
        let m = matrix();
        let (_, observed) = SweepEngine::new(1).observe(true).run(&m);
        let hot = hottest_by_events(&observed).expect("observed cells");
        let timeline = timeline_for(&m, &hot.label).expect("run cell label resolves");
        assert!(!timeline.is_empty());
        // The replay is the same seeded run the sweep observed, so the
        // timeline's entries are exactly the per-process events the
        // metrics counted (dispatches plus decides and halts).
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
}
