//! Service-mode sweeps: repeated-consensus (SMR-style) pipelines measured
//! as a throughput lab.
//!
//! Where [`crate::matrix::ScenarioMatrix`] measures *one* consensus
//! instance per cell, a [`ServiceMatrix`] runs a
//! [`validity_protocols::service::Replicated`] driver — a sequence of
//! consensus slots multiplexed into one deterministic simulation — and
//! reports service-level measures:
//!
//! * **decisions/sec** — committed slots per simulated second (1000
//!   simulator ticks ≡ 1 simulated second), a pure function of the
//!   execution, so reports stay byte-identical across thread counts;
//! * **per-slot latency** — open→decide distributions over every
//!   `(correct replica, slot)` pair, with p50/p99 from the probe layer's
//!   deterministic [`Hist`];
//! * **amortized message cost** — messages (and words) per committed
//!   decision, the quantity the batching knob is supposed to shrink.
//!
//! The executor mirrors [`crate::executor::SweepEngine`]: cells fan out
//! over the same worker pool, results are collected in matrix order, and the
//! report is a deterministic rendering of deterministic runs — the
//! `service` suite carries the same byte-identity guarantee as every
//! other lab artifact.

use std::ops::Range;
use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_core::{ProcessId, SystemParams};
use validity_protocols::registry::{find_vector, ProtocolContext, VectorSpec};
use validity_protocols::service::{batch_proposal, Replicated, ServiceConfig};
use validity_simnet::{agreement_holds, Hist, NodeKind, RunOutcome, Time};

use crate::executor::CellTiming;
use crate::matrix::ScheduleSpec;
use crate::pool;
use crate::report::json_str;

/// Schema tag of the service report artifact.
pub const SERVICE_SCHEMA: &str = "validity-lab/service@1";

/// One service run, fully determined by its fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceCell {
    /// The consensus engine every slot runs.
    pub engine: VectorSpec,
    /// Byzantine behaviour filling the faulty slots.
    pub behavior: BehaviorId,
    /// Number of faulty replicas (`≤ t`).
    pub byz: usize,
    /// Network schedule.
    pub schedule: ScheduleSpec,
    /// System size.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// Slot count and the pipelining/batching knobs.
    pub service: ServiceConfig,
    /// Simulation seed (also derives the PKI).
    pub seed: u64,
}

impl ServiceCell {
    /// The key all seeds of this configuration share.
    pub fn group_key(&self) -> String {
        format!(
            "service/{}/{}x{}/{}/n{}t{}/k{}p{}b{}",
            self.engine.name(),
            self.behavior,
            self.byz,
            self.schedule,
            self.n,
            self.t,
            self.service.slots,
            self.service.pipeline_window(),
            self.service.batch_size(),
        )
    }

    /// The full per-cell key (group key + seed).
    pub fn key(&self) -> String {
        format!("{}/s{}", self.group_key(), self.seed)
    }
}

/// The cartesian product of the service-mode axes.
#[derive(Clone, Debug)]
pub struct ServiceMatrix {
    /// Matrix name.
    pub name: String,
    /// Consensus engines (the registry's vector specs).
    pub engines: Vec<VectorSpec>,
    /// Byzantine-behaviour axis.
    pub behaviors: Vec<BehaviorId>,
    /// Fault-load axis (each clamped to the cell's `t`).
    pub faults: Vec<usize>,
    /// Schedule axis.
    pub schedules: Vec<ScheduleSpec>,
    /// `(n, t)` axis.
    pub systems: Vec<(usize, usize)>,
    /// Slots every service commits.
    pub slots: u32,
    /// Pipeline-window axis.
    pub pipelines: Vec<u32>,
    /// Batch-size axis.
    pub batches: Vec<u32>,
    /// Seed axis.
    pub seeds: Range<u64>,
}

impl ServiceMatrix {
    /// An empty matrix with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceMatrix {
            name: name.into(),
            engines: Vec::new(),
            behaviors: vec![BehaviorId::Silent],
            faults: vec![0],
            schedules: Vec::new(),
            systems: Vec::new(),
            slots: 4,
            pipelines: vec![1],
            batches: vec![1],
            seeds: 0..1,
        }
    }

    /// The built-in `service` suite: Algorithm 1 as a replicated service,
    /// sequential vs pipelined, unbatched vs batched, fault-free and under
    /// maximum silent load, across two system sizes.
    pub fn suite() -> ServiceMatrix {
        let mut m = ServiceMatrix::new("service");
        m.engines = vec![find_vector("alg1-auth").expect("registered")];
        m.behaviors = vec![BehaviorId::Silent];
        m.faults = vec![0, usize::MAX];
        m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        m.systems = vec![(4, 1), (7, 2)];
        m.slots = 4;
        m.pipelines = vec![1, 2];
        m.batches = vec![1, 8];
        m.seeds = 0..2;
        m
    }

    /// Enumerates the matrix into a deterministically ordered cell list
    /// (engine, behavior, fault load, schedule, system, pipeline, batch,
    /// seed). Like the scenario matrix, a zero fault load collapses the
    /// behaviour axis and invalid `(n, t)` pairs are skipped. Fault loads
    /// are clamped to each cell's `t`, and two axis values that clamp to
    /// the same load for a given `(n, t)` (e.g. `1` and `usize::MAX` at
    /// `t = 1`) enumerate only once — otherwise the duplicates would
    /// share a key and double-count runs in the pooled groups.
    pub fn cells(&self) -> Vec<ServiceCell> {
        let mut out = Vec::new();
        for &engine in &self.engines {
            for &behavior in &self.behaviors {
                for (fi, &fault) in self.faults.iter().enumerate() {
                    if fault == 0 && behavior != self.behaviors[0] {
                        continue;
                    }
                    for &schedule in &self.schedules {
                        for &(n, t) in &self.systems {
                            if SystemParams::new(n, t).is_err() {
                                continue;
                            }
                            if self.faults[..fi].iter().any(|&f| f.min(t) == fault.min(t)) {
                                continue;
                            }
                            for &pipeline in &self.pipelines {
                                for &batch in &self.batches {
                                    for seed in self.seeds.clone() {
                                        out.push(ServiceCell {
                                            engine,
                                            behavior,
                                            byz: fault.min(t),
                                            schedule,
                                            n,
                                            t,
                                            service: ServiceConfig {
                                                slots: self.slots,
                                                pipeline,
                                                batch,
                                            },
                                            seed,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// Whether the matrix enumerates no cells.
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }
}

/// Condensed result of one service run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Slots committed by *every* correct replica (the service's committed
    /// prefix width; equals `slots` on a healthy run).
    pub committed: u32,
    /// Whether every correct replica finished all slots.
    pub decided: bool,
    /// Whether the per-replica slot digests agree.
    pub agreement: bool,
    /// Time of the last correct replica finishing its last slot (0 when
    /// nothing finished).
    pub duration: Time,
    /// Open→decide latency over every `(correct replica, slot)` pair.
    pub latency: Hist,
    /// Messages over the whole execution.
    pub messages_total: u64,
    /// Words over the whole execution.
    pub words_total: u64,
    /// Whether the run hit the simulator's event/time backstop.
    pub quarantined: bool,
}

/// Executes one service cell (pure function of the cell).
pub fn execute_service(cell: &ServiceCell) -> ServiceRecord {
    let params = SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
    let service = Replicated::new(
        cell.engine,
        ProtocolContext::new(params, cell.seed),
        cell.service,
    );
    let builder = cell.schedule.builder(params, cell.seed);
    let gst = builder.config().gst;
    let batch = cell.service.batch_size();
    // Face 0 is the canonical workload; other faces (the two-faced
    // adversary) shift every slot proposal, modelling a replica that lies
    // about its batch.
    let mk = |p: ProcessId, face: u64| {
        service.replica_with(p, move |slot| {
            batch_proposal(slot, batch).wrapping_add(face)
        })
    };
    let nodes = cell.behavior.populate(params, cell.byz, gst, &mk);
    let mut sim = builder
        .build(nodes)
        .expect("matrix-derived configurations always validate");
    let outcome = sim.run_until_decided();
    let quarantined = matches!(outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit);
    let decided = sim.all_correct_decided();
    let agreement = agreement_holds(sim.decisions());
    let stats = sim.stats().clone();

    let mut latency = Hist::new();
    let mut committed = u32::MAX;
    let mut duration: Time = 0;
    for i in 0..params.n() - cell.byz {
        let NodeKind::Correct(mux) = sim.node(ProcessId::from_index(i)) else {
            unreachable!("correct replicas occupy the first n − byz slots")
        };
        let slots = mux.decisions();
        committed = committed.min(slots.len() as u32);
        for d in slots {
            latency.record(d.decided_at.saturating_sub(d.opened_at));
            duration = duration.max(d.decided_at);
        }
    }
    if committed == u32::MAX {
        committed = 0;
    }
    ServiceRecord {
        committed,
        decided,
        agreement,
        duration,
        latency,
        messages_total: stats.messages_total,
        words_total: stats.words_total,
        quarantined,
    }
}

/// Per-group aggregation of a service sweep (all seeds of one
/// configuration pooled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceGroup {
    /// The group key.
    pub key: String,
    /// Seeds pooled into this group.
    pub runs: u64,
    /// Committed slots summed over the pooled runs.
    pub committed: u64,
    /// Client requests committed (`committed × batch`).
    pub requests: u64,
    /// Summed service durations (simulated ticks).
    pub duration: Time,
    /// Pooled per-slot latency distribution.
    pub latency: Hist,
    /// Summed messages.
    pub messages: u64,
    /// Summed words.
    pub words: u64,
    /// Runs that failed (undecided, disagreement, or quarantined).
    pub failures: u64,
}

impl ServiceGroup {
    /// Committed decisions per simulated second, in fixed-point
    /// thousandths (1000 simulator ticks ≡ 1 simulated second). Integer
    /// arithmetic end to end, so the rendering is deterministic.
    pub fn decisions_per_sec_milli(&self) -> u64 {
        fixed_point(self.committed, 1_000_000, self.duration)
    }

    /// Committed client requests per simulated second, in fixed-point
    /// thousandths — the batching knob's payoff.
    pub fn requests_per_sec_milli(&self) -> u64 {
        fixed_point(self.requests, 1_000_000, self.duration)
    }

    /// Amortized messages per committed decision, in fixed-point
    /// hundredths.
    pub fn messages_per_decision_centi(&self) -> u64 {
        fixed_point(self.messages, 100, self.committed)
    }

    /// Amortized words per committed decision, in fixed-point hundredths.
    pub fn words_per_decision_centi(&self) -> u64 {
        fixed_point(self.words, 100, self.committed)
    }
}

/// `sum · scale / count`, or 0 when `count` is 0. The product is taken in
/// `u128`, so a sum past `u64::MAX / scale` cannot wrap; a quotient past
/// `u64::MAX` saturates. Wherever the `u64` product fits, the value is
/// the same.
fn fixed_point(sum: u64, scale: u64, count: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let quotient = u128::from(sum) * u128::from(scale) / u128::from(count);
    u64::try_from(quotient).unwrap_or(u64::MAX)
}

/// The aggregated, deterministic service report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceReport {
    /// Matrix name.
    pub name: String,
    /// Per-cell keys and records, in matrix order.
    pub cells: Vec<(String, ServiceRecord)>,
    /// Per-group aggregates, in first-appearance (matrix) order.
    pub groups: Vec<ServiceGroup>,
}

impl ServiceReport {
    /// Aggregates per-cell records (already in matrix order).
    pub fn build(name: &str, cells: Vec<(ServiceCell, ServiceRecord)>) -> ServiceReport {
        let mut groups: Vec<ServiceGroup> = Vec::new();
        let mut rows = Vec::with_capacity(cells.len());
        for (cell, record) in cells {
            let key = cell.group_key();
            let group = match groups.iter_mut().find(|g| g.key == key) {
                Some(g) => g,
                None => {
                    groups.push(ServiceGroup {
                        key,
                        runs: 0,
                        committed: 0,
                        requests: 0,
                        duration: 0,
                        latency: Hist::new(),
                        messages: 0,
                        words: 0,
                        failures: 0,
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.runs += 1;
            let healthy = record.decided && record.agreement && !record.quarantined;
            if healthy {
                // The sums saturate: a report never wraps or panics, and
                // wherever a sum fits it is the plain one.
                let committed = u64::from(record.committed);
                let requests = committed.saturating_mul(cell.service.batch_size() as u64);
                group.committed = group.committed.saturating_add(committed);
                group.requests = group.requests.saturating_add(requests);
                group.duration = group.duration.saturating_add(record.duration);
                group.latency.merge(&record.latency);
                group.messages = group.messages.saturating_add(record.messages_total);
                group.words = group.words.saturating_add(record.words_total);
            } else {
                group.failures += 1;
            }
            rows.push((cell.key(), record));
        }
        ServiceReport {
            name: name.to_string(),
            cells: rows,
            groups,
        }
    }

    /// Total failed runs across all groups.
    pub fn failures(&self) -> u64 {
        self.groups.iter().map(|g| g.failures).sum()
    }

    /// Deterministic JSON rendering (schema [`SERVICE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SERVICE_SCHEMA));
        let _ = writeln!(out, "  \"matrix\": {},", json_str(&self.name));
        out.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let comma = if i + 1 < self.groups.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"key\": {}, \"runs\": {}, \"failures\": {}, \
                 \"decisions\": {}, \"requests\": {}, \"duration_ticks\": {}, \
                 \"decisions_per_sec_milli\": {}, \"requests_per_sec_milli\": {}, \
                 \"latency_p50\": {}, \"latency_p99\": {}, \"latency_max\": {}, \
                 \"messages_per_decision_centi\": {}, \"words_per_decision_centi\": {}}}{comma}",
                json_str(&g.key),
                g.runs,
                g.failures,
                g.committed,
                g.requests,
                g.duration,
                g.decisions_per_sec_milli(),
                g.requests_per_sec_milli(),
                g.latency.quantile(50),
                g.latency.quantile(99),
                g.latency.max(),
                g.messages_per_decision_centi(),
                g.words_per_decision_centi(),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, (key, r)) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"key\": {}, \"committed\": {}, \"decided\": {}, \
                 \"agreement\": {}, \"duration_ticks\": {}, \"messages\": {}, \
                 \"words\": {}, \"quarantined\": {}}}{comma}",
                json_str(key),
                r.committed,
                r.decided,
                r.agreement,
                r.duration,
                r.messages_total,
                r.words_total,
                r.quarantined,
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Deterministic Markdown rendering: the per-group service table.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# Service sweep `{}`\n", self.name);
        let _ = writeln!(
            out,
            "{} run(s) over {} group(s); {} failure(s). Throughput is in \
             decisions per *simulated* second (1000 ticks ≡ 1 s), so every \
             number below is deterministic.\n",
            self.cells.len(),
            self.groups.len(),
            self.failures(),
        );
        out.push_str(
            "| group | runs | dec/s | req/s | p50 | p99 | msgs/dec | words/dec | fail |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for g in &self.groups {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                g.key,
                g.runs,
                milli(g.decisions_per_sec_milli()),
                milli(g.requests_per_sec_milli()),
                g.latency.quantile(50),
                g.latency.quantile(99),
                centi(g.messages_per_decision_centi()),
                centi(g.words_per_decision_centi()),
                g.failures,
            );
        }
        out
    }
}

/// Renders fixed-point thousandths (`12345` → `"12.345"`).
fn milli(x: u64) -> String {
    format!("{}.{:03}", x / 1000, x % 1000)
}

/// Renders fixed-point hundredths (`1234` → `"12.34"`).
fn centi(x: u64) -> String {
    format!("{}.{:02}", x / 100, x % 100)
}

/// Runs a service matrix on `threads` workers (0 = one per core) and
/// aggregates in matrix order — the report bytes are independent of the
/// worker count, exactly like the scenario sweep engine. The wall clock
/// and per-cell timings (in matrix order) are the benchmark's; no lab
/// command reports them.
pub fn run_service(
    matrix: &ServiceMatrix,
    threads: usize,
) -> (ServiceReport, Duration, Vec<CellTiming>) {
    let started = Instant::now();
    let cells = matrix.cells();
    let results = pool::ordered_map(threads, cells.len(), |i| execute_service(&cells[i]));
    let mut records = Vec::with_capacity(cells.len());
    let mut timings = Vec::with_capacity(cells.len());
    for ((record, wall), cell) in results.zip(&cells) {
        timings.push(CellTiming { events: 0, wall });
        records.push((*cell, record));
    }
    let report = ServiceReport::build(&matrix.name, records);
    (report, started.elapsed(), timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServiceMatrix {
        let mut m = ServiceMatrix::suite();
        m.name = "service-tiny".into();
        m.systems = vec![(4, 1)];
        m.schedules = vec![ScheduleSpec::Synchronous];
        m.batches = vec![1, 8];
        m.pipelines = vec![1, 2];
        m.seeds = 0..1;
        m
    }

    #[test]
    fn suite_enumerates_deterministically() {
        let m = ServiceMatrix::suite();
        assert!(!m.is_empty());
        let a: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        let b: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "duplicate cells");
    }

    #[test]
    fn fault_axis_dedups_post_clamp_per_system() {
        // Two axis values that clamp to the same load must enumerate
        // once, and the dedup is per (n, t): at t = 1 both 1 and
        // usize::MAX clamp to byz 1, while at t = 2 they stay distinct.
        let mut m = tiny();
        m.systems = vec![(4, 1), (7, 2)];
        m.faults = vec![1, usize::MAX];
        let cells = m.cells();
        let keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "clamped duplicate cells");
        assert!(cells.iter().all(|c| c.t != 1 || c.byz == 1));
        assert!(cells.iter().any(|c| c.t == 2 && c.byz == 1));
        assert!(cells.iter().any(|c| c.t == 2 && c.byz == 2));
    }

    #[test]
    fn healthy_service_commits_every_slot() {
        let cell = ServiceCell {
            engine: find_vector("alg1-auth").unwrap(),
            behavior: BehaviorId::Silent,
            byz: 1,
            schedule: ScheduleSpec::Synchronous,
            n: 4,
            t: 1,
            service: ServiceConfig {
                slots: 3,
                pipeline: 2,
                batch: 4,
            },
            seed: 1,
        };
        let r = execute_service(&cell);
        assert!(r.decided && r.agreement && !r.quarantined);
        assert_eq!(r.committed, 3);
        assert_eq!(r.latency.count(), 9); // 3 correct replicas × 3 slots
        assert!(r.duration > 0);
    }

    #[test]
    fn batching_amortizes_messages_per_request() {
        // Same service, batch 1 vs 8: identical message cost per *slot*,
        // so the per-request cost must drop by the batch factor.
        let mk = |batch: u32| ServiceCell {
            engine: find_vector("alg1-auth").unwrap(),
            behavior: BehaviorId::Silent,
            byz: 0,
            schedule: ScheduleSpec::Synchronous,
            n: 4,
            t: 1,
            service: ServiceConfig {
                slots: 4,
                pipeline: 1,
                batch,
            },
            seed: 0,
        };
        let lean = execute_service(&mk(1));
        let fat = execute_service(&mk(8));
        assert_eq!(lean.messages_total, fat.messages_total);
        assert_eq!(lean.committed, fat.committed);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let m = tiny();
        let (one, _, _) = run_service(&m, 1);
        let (many, _, _) = run_service(&m, 0);
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.to_markdown(), many.to_markdown());
    }

    #[test]
    fn timings_name_every_cell_in_matrix_order() {
        let m = tiny();
        let (report, _, timings) = run_service(&m, 2);
        let keys: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        // A timing is named by its position: the cell at the same index.
        assert_eq!(timings.len(), keys.len());
        let reported: Vec<&str> = report.cells.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(reported, keys);
    }

    #[test]
    fn groups_pool_seeds_and_count_failures() {
        let mut m = tiny();
        m.seeds = 0..2;
        let (report, _, _) = run_service(&m, 0);
        assert!(report.groups.iter().all(|g| g.runs == 2));
        assert_eq!(report.failures(), 0);
        for g in &report.groups {
            assert!(g.committed > 0);
            assert!(g.decisions_per_sec_milli() > 0);
            assert!(g.latency.quantile(99) >= g.latency.quantile(50));
        }
    }

    #[test]
    fn fixed_point_rates_neither_wrap_nor_panic_on_huge_sums() {
        let group = |committed, duration, messages| ServiceGroup {
            key: "huge".into(),
            runs: 1,
            committed,
            requests: committed,
            duration,
            latency: Hist::new(),
            messages,
            words: messages,
            failures: 0,
        };
        // Products far past `u64::MAX`, quotients that fit.
        let g = group(u64::MAX / 3, u64::MAX / 2, u64::MAX - 1);
        assert_eq!(g.decisions_per_sec_milli(), 666_666);
        assert_eq!(g.requests_per_sec_milli(), 666_666);
        assert_eq!(g.messages_per_decision_centi(), 299);
        assert_eq!(g.words_per_decision_centi(), 299);
        // Quotients past `u64::MAX` saturate.
        let g = group(u64::MAX, 1, u64::MAX);
        assert_eq!(g.decisions_per_sec_milli(), u64::MAX);
        assert_eq!(g.requests_per_sec_milli(), u64::MAX);
        let g = group(1, 1, u64::MAX);
        assert_eq!(g.messages_per_decision_centi(), u64::MAX);
        assert_eq!(g.words_per_decision_centi(), u64::MAX);
        // In range, the value is the plain `u64` expression's.
        let g = group(7, 1_234, 900);
        assert_eq!(g.decisions_per_sec_milli(), 7 * 1_000_000 / 1_234);
        assert_eq!(g.messages_per_decision_centi(), 900 * 100 / 7);
        assert_eq!(group(0, 0, 5).decisions_per_sec_milli(), 0);
        assert_eq!(group(0, 0, 5).messages_per_decision_centi(), 0);
    }

    #[test]
    fn group_sums_saturate_instead_of_wrapping() {
        let cell = tiny()
            .cells()
            .into_iter()
            .find(|cell| cell.service.batch_size() > 1)
            .expect("the tiny matrix batches");
        let batch = u64::from(cell.service.batch_size());
        let record = |duration, messages| ServiceRecord {
            committed: u32::MAX,
            decided: true,
            agreement: true,
            duration,
            latency: Hist::new(),
            messages_total: messages,
            words_total: messages,
            quarantined: false,
        };
        let report = ServiceReport::build(
            "huge",
            vec![
                (cell, record(u64::MAX - 1, u64::MAX / 2 + 1)),
                (cell, record(2, u64::MAX / 2 + 1)),
            ],
        );
        let [g] = report.groups.as_slice() else {
            panic!("one cell, one group: {:?}", report.groups);
        };
        assert_eq!(g.runs, 2);
        assert_eq!(g.committed, 2 * u64::from(u32::MAX));
        assert_eq!(g.requests, 2 * u64::from(u32::MAX) * batch);
        assert_eq!(
            (g.duration, g.messages, g.words),
            (u64::MAX, u64::MAX, u64::MAX)
        );
        // Below the ceiling the sums are the plain ones.
        let report = ServiceReport::build("fits", vec![(cell, record(3, 4)), (cell, record(5, 6))]);
        let g = &report.groups[0];
        assert_eq!((g.duration, g.messages, g.words), (8, 10, 10));
    }
}
