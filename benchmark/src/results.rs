//! Result sets: what a benchmark run writes and `compare` reads.
//!
//! A set holds any subset of the three modes' output — end-to-end metrics
//! per workload (`run`), fixed-input layer metrics (`layers`), traced
//! per-layer metrics per workload (`trace`) — so each child process of
//! `all` writes a one-part set and the parent merges them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use validity_lab::json::Json;
use validity_lab::report::json_str;

use crate::stats::median;

/// Schema tag of result files.
pub const RESULTS_SCHEMA: &str = "validity-benchmark/results@1";

/// One metric value. When a set pools several runs of a workload,
/// `samples` holds each run's value and `value` is their median —
/// `compare` takes the run-to-run quartiles from them.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The unit.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// Per-run values (empty for a single run).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single run's value.
    pub fn single(unit: &str, value: f64) -> Metric {
        Metric {
            unit: unit.to_string(),
            value,
            samples: Vec::new(),
        }
    }

    /// A value pooled over `samples`.
    pub fn of(unit: &str, value: f64, samples: Vec<f64>) -> Metric {
        Metric {
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// Metrics by name.
pub type Metrics = BTreeMap<String, Metric>;

/// One workload's end-to-end result.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Cells per pass.
    pub cells: u64,
    /// Simulator events per pass (run cells).
    pub events: u64,
    /// Admissibility evaluations per pass (classification cells).
    pub evals: u64,
    /// Quarantined cells per pass.
    pub quarantined: u64,
    /// SHA-256 of the pass's canonical records.
    pub digest: String,
    /// Timed passes (over every pooled run).
    pub passes: u64,
    /// Cells attempted over every pass (warm-ups and the `nproc`-worker
    /// check included).
    pub attempted: u64,
    /// Cells that failed a correctness check.
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: Metrics,
}

impl WorkloadResult {
    /// Pools another run of the same workload into this result: counts
    /// and digest must be identical, every metric gains a sample and
    /// reports the median.
    fn pool(&mut self, other: WorkloadResult) -> Result<(), String> {
        let same = (
            self.cells,
            self.events,
            self.evals,
            self.quarantined,
            &self.digest,
        ) == (
            other.cells,
            other.events,
            other.evals,
            other.quarantined,
            &other.digest,
        );
        if !same {
            return Err("two runs of one workload disagree on counts or digest".into());
        }
        self.passes += other.passes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, m) in &mut self.metrics {
            let run = other
                .metrics
                .get(name)
                .ok_or_else(|| format!("a pooled run lacks {name}"))?;
            if m.samples.is_empty() {
                m.samples.push(m.value);
            }
            m.samples.push(run.value);
            m.value = median(&m.samples);
        }
        Ok(())
    }
}

/// Where the numbers were taken.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// CPU model (first `model name` of `/proc/cpuinfo`).
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Host {
    /// Describes the current host.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            cpu,
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
        }
    }
}

/// A result set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    /// The workload seed.
    pub seed: u64,
    /// `full` or `smoke`.
    pub size: String,
    /// Where it ran.
    pub host: Host,
    /// `run` mode, per workload.
    pub workloads: BTreeMap<String, WorkloadResult>,
    /// `layers` mode.
    pub layers: Metrics,
    /// `trace` mode, per workload.
    pub trace: BTreeMap<String, Metrics>,
}

/// A JSON number: Rust prints the shortest decimal that round-trips —
/// every digit measured, nothing invented.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn num(out: &mut String, v: f64) {
    out.push_str(&json_number(v));
}

fn metrics_json(out: &mut String, metrics: &Metrics, indent: &str) {
    out.push('{');
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  {}: {{\"unit\": {}, \"value\": ",
            json_str(name),
            json_str(&m.unit)
        );
        num(out, m.value);
        if !m.samples.is_empty() {
            out.push_str(", \"samples\": [");
            for (j, s) in m.samples.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                num(out, *s);
            }
            out.push(']');
        }
        out.push('}');
    }
    let _ = write!(out, "\n{indent}}}");
}

fn parse_metrics(v: &Json) -> Result<Metrics, String> {
    let Json::Obj(map) = v else {
        return Err("metrics are not an object".into());
    };
    map.iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name} lacks a unit"))?;
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("metric {name} lacks a value"))?;
            let samples = match m.get("samples") {
                None => Vec::new(),
                Some(s) => s
                    .as_arr()
                    .ok_or_else(|| format!("metric {name}: samples are not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_num()
                            .ok_or_else(|| format!("metric {name}: bad sample"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            Ok((name.clone(), Metric::of(unit, value, samples)))
        })
        .collect()
}

impl ResultSet {
    /// An empty set for `(seed, size)` on this host.
    pub fn new(seed: u64, size: &str) -> ResultSet {
        ResultSet {
            seed,
            size: size.to_string(),
            host: Host::current(),
            ..ResultSet::default()
        }
    }

    /// Folds another part of the same run into this set; a workload
    /// measured again pools with its earlier runs.
    pub fn absorb(&mut self, other: ResultSet) -> Result<(), String> {
        if (other.seed, &other.size) != (self.seed, &self.size) {
            return Err(format!(
                "cannot merge a seed-{} {} part into a seed-{} {} set",
                other.seed, other.size, self.seed, self.size
            ));
        }
        for (name, run) in other.workloads {
            match self.workloads.get_mut(&name) {
                Some(pooled) => pooled.pool(run).map_err(|e| format!("{name}: {e}"))?,
                None => {
                    self.workloads.insert(name, run);
                }
            }
        }
        self.layers.extend(other.layers);
        self.trace.extend(other.trace);
        Ok(())
    }

    /// Renders the set.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{RESULTS_SCHEMA}\",\n  \"seed\": {},\n  \"size\": {},\n  \
             \"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}}},\n  \"workloads\": {{",
            self.seed,
            json_str(&self.size),
            self.host.nproc,
            json_str(&self.host.cpu),
            json_str(&self.host.rustc),
        );
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\n      \"cells\": {}, \"events\": {}, \"evals\": {}, \
                 \"quarantined\": {}, \"digest\": {},\n      \"passes\": {}, \"attempted\": {}, \
                 \"failed\": {},\n      \"metrics\": ",
                json_str(name),
                w.cells,
                w.events,
                w.evals,
                w.quarantined,
                json_str(&w.digest),
                w.passes,
                w.attempted,
                w.failed,
            );
            metrics_json(&mut out, &w.metrics, "      ");
            out.push_str("\n    }");
        }
        out.push_str("\n  },\n  \"layers\": ");
        metrics_json(&mut out, &self.layers, "  ");
        out.push_str(",\n  \"trace\": {");
        for (i, (name, metrics)) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: ", json_str(name));
            metrics_json(&mut out, metrics, "    ");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a result file.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let json = Json::parse(text)?;
        if json.get("schema").and_then(Json::as_str) != Some(RESULTS_SCHEMA) {
            return Err(format!("not a {RESULTS_SCHEMA} file"));
        }
        let whole = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing whole number '{k}'"))
        };
        let text_of = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string '{k}'"))
        };
        let section = |k: &str| match json.get(k) {
            Some(Json::Obj(map)) => Ok(map),
            _ => Err(format!("missing object '{k}'")),
        };
        let host = json.get("host").ok_or("missing object 'host'")?;
        let mut set = ResultSet {
            seed: whole(&json, "seed")?,
            size: text_of(&json, "size")?,
            host: Host {
                nproc: whole(host, "nproc")?,
                cpu: text_of(host, "cpu")?,
                rustc: text_of(host, "rustc")?,
            },
            layers: parse_metrics(json.get("layers").ok_or("missing object 'layers'")?)?,
            ..ResultSet::default()
        };
        for (name, w) in section("workloads")? {
            let result = WorkloadResult {
                cells: whole(w, "cells")?,
                events: whole(w, "events")?,
                evals: whole(w, "evals")?,
                quarantined: whole(w, "quarantined")?,
                digest: text_of(w, "digest")?,
                passes: whole(w, "passes")?,
                attempted: whole(w, "attempted")?,
                failed: whole(w, "failed")?,
                metrics: parse_metrics(w.get("metrics").ok_or("workload lacks metrics")?)?,
            };
            set.workloads.insert(name.clone(), result);
        }
        for (name, metrics) in section("trace")? {
            set.trace.insert(name.clone(), parse_metrics(metrics)?);
        }
        Ok(set)
    }

    /// Reads and parses a result file.
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the set, creating the parent directory.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ResultSet {
        let mut set = ResultSet::new(0, "full");
        let mut metrics = Metrics::new();
        metrics.insert("cells_per_s".into(), Metric::single("cells/s", 157.25));
        metrics.insert("peak_rss_mb".into(), Metric::single("MB", 12.5));
        set.workloads.insert(
            "auth_sweep".into(),
            WorkloadResult {
                cells: 288,
                events: 592_989,
                evals: 0,
                quarantined: 0,
                digest: "ab".repeat(32),
                passes: 3,
                attempted: 1440,
                failed: 0,
                metrics,
            },
        );
        set.layers
            .insert("crypto.sig.sign_ns".into(), Metric::single("ns", 412.0625));
        let mut trace = Metrics::new();
        trace.insert("simnet.events".into(), Metric::single("count", 592_989.0));
        set.trace.insert("auth_sweep".into(), trace);
        set
    }

    #[test]
    fn sets_roundtrip_through_json() {
        let set = sample_set();
        assert_eq!(ResultSet::parse(&set.to_json()), Ok(set));
    }

    #[test]
    fn parts_merge_only_within_one_run() {
        let mut set = ResultSet::new(0, "full");
        set.absorb(sample_set()).unwrap();
        assert_eq!(set.workloads.len(), 1);
        assert_eq!(set.layers.len(), 1);
        assert!(set.workloads["auth_sweep"].metrics["peak_rss_mb"]
            .samples
            .is_empty());
        // A second and third run of the workload pool: samples, median.
        let rss = |set: &mut ResultSet, v: f64| {
            let w = set.workloads.get_mut("auth_sweep").unwrap();
            w.metrics.get_mut("peak_rss_mb").unwrap().value = v;
        };
        let mut second = sample_set();
        rss(&mut second, 14.5);
        set.absorb(second).unwrap();
        let mut third = sample_set();
        rss(&mut third, 30.0);
        set.absorb(third).unwrap();
        let pooled = &set.workloads["auth_sweep"];
        assert_eq!(pooled.metrics["peak_rss_mb"].samples, [12.5, 14.5, 30.0]);
        assert_eq!(pooled.metrics["peak_rss_mb"].value, 14.5);
        assert_eq!((pooled.passes, pooled.attempted), (9, 3 * 1440));
        // Runs that disagree on what they computed do not pool.
        let mut drifted = sample_set();
        drifted.workloads.get_mut("auth_sweep").unwrap().events += 1;
        assert!(set.absorb(drifted).unwrap_err().contains("disagree"));

        let mut other_seed = sample_set();
        other_seed.seed = 1;
        assert!(set.absorb(other_seed).is_err());
    }

    #[test]
    fn foreign_files_are_refused() {
        assert!(ResultSet::parse("{\"schema\": \"something/else@1\"}").is_err());
        assert!(ResultSet::parse("[1, 2").is_err());
    }
}
