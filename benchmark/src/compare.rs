//! `compare A.json B.json`: is B no worse than A?
//!
//! Applies each end-to-end metric's bound per workload — every
//! (metric, workload) pairing gets its own row; there is no combined
//! score — and requires the count metrics and record digests to be
//! identical. This is the tool the two-set acceptance check and every
//! later performance claim use.

use std::fmt::Write as _;

use crate::results::{Metric, ResultSet};
use crate::stats::{quartiles, relative_spread};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// The share of A's median by which B may be worse before the row
    /// reads `regressed`. These are `BENCHMARK.json`'s bounds.
    pub bound: f64,
}

/// The end-to-end metrics, with the bounds the benchmark fixes.
///
/// The bounds are as wide as the driver allows because the box is shared:
/// quiet runs repeat to 1–4 %, but the whole box drifts 10–20 % for minutes
/// at a time (the memory-heavy `nonauth_flood` and the CPU-bound
/// `classify_grid` show it most), and a bound has to hold the
/// interquartile spread of ten runs taken across such a phase — ten-seed
/// spreads in the driver's form measured 1–12 % on the time metrics and
/// 1–4 % on `peak_rss_mb`. A pooled `compare` (`all --runs R`, run-to-run
/// quartiles beside every median) is the sharper instrument for a claim.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "floor_pass_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cell_ms_p95",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    // Any increase is a regression. The driver reads failures from the
    // result line's `failed` / `attempted`, so `BENCHMARK.json` does not
    // list this one (its metrics must never be 0).
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.0,
    },
];

/// A row's verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and the
    /// spread is narrow enough to say so.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The observations behind a metric: its per-run samples, or its single
/// value.
fn observations(m: &Metric) -> Vec<f64> {
    if m.samples.is_empty() {
        vec![m.value]
    } else {
        m.samples.clone()
    }
}

/// Judges one (metric, workload) pairing. Returns the verdict and B's
/// worsening as a share of A's value (negative = B is better).
pub fn judge(spec: &EndToEnd, a: &Metric, b: &Metric) -> (Verdict, f64) {
    let worsening = if a.value == 0.0 {
        // Ratio metrics at zero (fail_ratio): any increase is infinite
        // worsening, equality is none.
        match b.value.total_cmp(&a.value) {
            std::cmp::Ordering::Greater if !spec.higher_is_better => f64::INFINITY,
            std::cmp::Ordering::Less if spec.higher_is_better => f64::INFINITY,
            _ => 0.0,
        }
    } else if spec.higher_is_better {
        (a.value - b.value) / a.value.abs()
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let (oa, ob) = (observations(a), observations(b));
    let wide = relative_spread(&oa).max(relative_spread(&ob)) > spec.bound;
    if wide {
        // Unresolved — unless every observation of B reads better than
        // every observation of A.
        let dominates = if spec.higher_is_better {
            ob.iter().copied().fold(f64::INFINITY, f64::min)
                > oa.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            ob.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < oa.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let verdict = if dominates {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
        return (verdict, worsening);
    }
    if worsening > spec.bound {
        (Verdict::Regressed, worsening)
    } else {
        (Verdict::Ok, worsening)
    }
}

/// The outcome of a comparison.
pub struct Comparison {
    /// The printed report.
    pub text: String,
    /// Rows that read `regressed`.
    pub regressed: usize,
    /// Rows that read `unresolved`.
    pub unresolved: usize,
    /// Count metrics or digests that differ, or parts missing from B.
    pub drifted: usize,
}

impl Comparison {
    /// Whether `compare` exits 0.
    pub fn passes(&self) -> bool {
        self.regressed == 0 && self.drifted == 0
    }
}

fn describe(m: &Metric) -> String {
    let o = observations(m);
    if o.len() < 2 {
        format!("{:.6}", m.value)
    } else {
        let (q1, q3) = quartiles(&o);
        format!("{:.6} [{:.6}, {:.6}] n={}", m.value, q1, q3, o.len())
    }
}

/// Compares B against A.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Comparison {
    let mut text = String::new();
    let (mut regressed, mut unresolved, mut drifted) = (0, 0, 0);
    let _ = writeln!(
        text,
        "A: seed {} {} on {} × {} ({})\nB: seed {} {} on {} × {} ({})",
        a.seed,
        a.size,
        a.host.nproc,
        a.host.cpu,
        a.host.rustc,
        b.seed,
        b.size,
        b.host.nproc,
        b.host.cpu,
        b.host.rustc,
    );
    if (a.seed, &a.size) != (b.seed, &b.size) {
        let _ = writeln!(
            text,
            "DRIFT  the sets measure different inputs (seed or size)"
        );
        drifted += 1;
    }
    let _ = writeln!(
        text,
        "\n{:<18} {:<13} {:<11} {:>9}  A value [q1, q3]  →  B value [q1, q3]",
        "workload", "metric", "verdict", "worse by"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            let _ = writeln!(text, "DRIFT  {name}: missing from B");
            drifted += 1;
            continue;
        };
        for (what, x, y) in [
            ("cells", wa.cells, wb.cells),
            ("events", wa.events, wb.events),
            ("evals", wa.evals, wb.evals),
            ("quarantined", wa.quarantined, wb.quarantined),
        ] {
            if x != y {
                let _ = writeln!(text, "DRIFT  {name}: {what} {x} → {y}");
                drifted += 1;
            }
        }
        if wa.digest != wb.digest {
            let _ = writeln!(text, "DRIFT  {name}: digest {} → {}", wa.digest, wb.digest);
            drifted += 1;
        }
        for spec in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metrics.get(spec.name), wb.metrics.get(spec.name))
            else {
                let _ = writeln!(text, "DRIFT  {name}: {} missing from a set", spec.name);
                drifted += 1;
                continue;
            };
            let (verdict, worsening) = judge(spec, ma, mb);
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let _ = writeln!(
                text,
                "{:<18} {:<13} {:<11} {:>+8.2}%  {}  →  {} {}   (of A's {:.6}; bound {:.0}%)",
                name,
                spec.name,
                verdict.label(),
                worsening * 100.0,
                describe(ma),
                describe(mb),
                spec.unit,
                ma.value,
                spec.bound * 100.0,
            );
        }
    }
    // Count metrics of the traced run repeat exactly on a deterministic
    // simulator; timings do not and are not compared here.
    for (name, ta) in &a.trace {
        let Some(tb) = b.trace.get(name) else {
            let _ = writeln!(text, "DRIFT  trace {name}: missing from B");
            drifted += 1;
            continue;
        };
        for (metric, ma) in ta.iter().filter(|(_, m)| m.unit == "count") {
            match tb.get(metric) {
                Some(mb) if mb.value == ma.value => {}
                other => {
                    let _ = writeln!(
                        text,
                        "DRIFT  trace {name}: {metric} {} → {}",
                        ma.value,
                        other.map_or("missing".to_string(), |m| m.value.to_string())
                    );
                    drifted += 1;
                }
            }
        }
    }
    let _ = writeln!(
        text,
        "\n{regressed} regressed, {unresolved} unresolved, {drifted} count/digest drifts"
    );
    Comparison {
        text,
        regressed,
        unresolved,
        drifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{Metrics, WorkloadResult};

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|s| s.name == name).unwrap()
    }

    fn tight(value: f64) -> Metric {
        Metric::of(
            "x",
            value,
            (0..9)
                .map(|i| value * (1.0 + 0.001 * (i as f64 - 4.0)))
                .collect(),
        )
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let s = spec("cells_per_s"); // higher is better, bound 25%
        assert_eq!(judge(s, &tight(100.0), &tight(80.0)).0, Verdict::Ok);
        assert_eq!(judge(s, &tight(100.0), &tight(130.0)).0, Verdict::Ok);
        let (verdict, worsening) = judge(s, &tight(100.0), &tight(70.0));
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worsening - 0.30).abs() < 1e-9, "ratio base is A's value");
        let s = spec("floor_pass_s"); // lower is better, bound 25%
        assert_eq!(judge(s, &tight(1.0), &tight(1.20)).0, Verdict::Ok);
        assert_eq!(judge(s, &tight(1.0), &tight(1.30)).0, Verdict::Regressed);
        assert_eq!(judge(s, &tight(1.0), &tight(0.5)).0, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_dominates() {
        let s = spec("cells_per_s");
        let noisy = |center: f64| {
            Metric::of(
                "x",
                center,
                (0..9)
                    .map(|i| center * (1.0 + 0.08 * (i as f64 - 4.0)))
                    .collect(),
            )
        };
        assert_eq!(judge(s, &noisy(100.0), &noisy(90.0)).0, Verdict::Unresolved);
        assert_eq!(
            judge(s, &noisy(100.0), &noisy(100.0)).0,
            Verdict::Unresolved
        );
        // Every B observation above every A observation: a clear win.
        assert_eq!(judge(s, &noisy(100.0), &noisy(300.0)).0, Verdict::Ok);
    }

    #[test]
    fn any_increase_of_the_fail_ratio_regresses() {
        let s = spec("fail_ratio");
        let zero = Metric::single("ratio", 0.0);
        assert_eq!(judge(s, &zero, &zero).0, Verdict::Ok);
        assert_eq!(
            judge(s, &zero, &Metric::single("ratio", 0.001)).0,
            Verdict::Regressed
        );
    }

    /// `BENCHMARK.json` is the contract the driver runs the benchmark by:
    /// its workloads must be this code's gated ones and its end-to-end
    /// metrics this code's.
    #[test]
    fn benchmark_json_declares_this_codes_workloads_and_bounds() {
        use validity_lab::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let gated: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names("workloads"), gated);
        let declared = json.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bounded: Vec<&EndToEnd> = END_TO_END.iter().filter(|s| s.bound > 0.0).collect();
        assert_eq!(declared.len(), bounded.len());
        for (d, s) in declared.iter().zip(bounded) {
            assert_eq!(d.get("name").and_then(Json::as_str), Some(s.name));
            assert_eq!(d.get("unit").and_then(Json::as_str), Some(s.unit));
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(d.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(d.get("bound").and_then(Json::as_num), Some(s.bound));
        }
    }

    fn set(rate: f64, events: u64) -> ResultSet {
        let mut metrics = Metrics::new();
        for s in &END_TO_END {
            let value = match s.name {
                "cells_per_s" => rate,
                "fail_ratio" => 0.0,
                _ => 1.0,
            };
            metrics.insert(s.name.into(), tight(value));
        }
        let mut out = ResultSet {
            size: "full".into(),
            ..ResultSet::default()
        };
        out.workloads.insert(
            "auth_sweep".into(),
            WorkloadResult {
                cells: 288,
                events,
                evals: 0,
                quarantined: 0,
                digest: "d".into(),
                passes: 9,
                attempted: 1,
                failed: 0,
                metrics,
            },
        );
        let mut trace = Metrics::new();
        trace.insert(
            "simnet.events".into(),
            Metric::single("count", events as f64),
        );
        trace.insert("simnet.run.self_s".into(), Metric::single("s", rate));
        out.trace.insert("auth_sweep".into(), trace);
        out
    }

    #[test]
    fn sets_of_the_same_code_compare_clean_both_ways() {
        let (a, b) = (set(100.0, 500), set(97.0, 500));
        for (x, y) in [(&a, &b), (&b, &a)] {
            let c = compare(x, y);
            assert!(c.passes(), "{}", c.text);
            assert_eq!((c.regressed, c.unresolved, c.drifted), (0, 0, 0));
        }
    }

    #[test]
    fn regressions_and_count_drift_fail_the_comparison() {
        let c = compare(&set(100.0, 500), &set(60.0, 500));
        assert_eq!((c.regressed, c.drifted), (1, 0));
        assert!(!c.passes());
        assert!(c.text.contains("regressed"), "{}", c.text);
        // The same pair the other way round is an improvement.
        assert!(compare(&set(60.0, 500), &set(100.0, 500)).passes());

        // Event-count drift: once in the workload, once in the trace;
        // trace timings are not compared.
        let c = compare(&set(100.0, 500), &set(100.0, 501));
        assert_eq!((c.regressed, c.drifted), (0, 2));
        assert!(!c.passes());

        let mut missing = set(100.0, 500);
        missing.workloads.clear();
        assert!(!compare(&set(100.0, 500), &missing).passes());
    }
}
