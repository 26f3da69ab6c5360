//! Curated built-in suites.
//!
//! Each suite is a [`ScenarioMatrix`] reproducing (and extending) one of
//! the paper's experiment families. `lab run --suite <name>` executes one
//! and exits non-zero on any violation or out-of-band fit;
//! `tests/paper_suites.rs` asserts the claims the complexity suites carry.
//!
//! Every fit row of a fit-bearing suite has a declared band, one table
//! line per band: the bands are the lab's only complexity contract. A
//! band is the exponent the suite measured when the band was declared,
//! ± 0.25, rounded inward to two decimals and kept inside any wider
//! paper-derived band the row had before. The ladders stop at n = 13
//! (19 for `universal`), where lower-order terms still pull the measured
//! exponents below the asymptotic ones, so several bands exclude the
//! paper's exponent; each suite says which.

use validity_adversary::BehaviorId;
use validity_protocols::{find_vector, vector_registry};

use crate::matrix::{
    ClassifyCell, FitBand, FitMeasure, ProtocolAxis, ScenarioMatrix, ScheduleSpec, ValiditySpec,
};
use FitMeasure::{ClassifyCost, Latency, Messages, Words};

/// Names of all built-in suites, in presentation order.
pub const ALL: [&str; 10] = [
    "fig1",
    "schedules",
    "complexity",
    "universal",
    "nonauth",
    "subcubic",
    "classifier-domain",
    "quick",
    "netchaos",
    "adaptive",
];

/// One-line description of a suite.
///
/// ```
/// use validity_lab::suites;
///
/// assert!(suites::describe("universal").unwrap().contains("Theorem 5"));
/// assert_eq!(suites::describe("nope"), None);
/// ```
pub fn describe(name: &str) -> Option<&'static str> {
    match name {
        "fig1" => Some(
            "Figure 1: the full classification grid, plus simulation runs \
             verifying every solvable property end-to-end",
        ),
        "schedules" => Some(
            "schedule-insensitivity ablation: the same measurement point \
             across seeds × pre-GST policies",
        ),
        "complexity" => Some(
            "message/word complexity of Algorithms 1, 3, 6 across (n, t) \
             at optimal resilience",
        ),
        "universal" => Some(
            "Theorem 5: Universal solves four C_S properties in Θ(n²) \
             messages, ± Byzantine load, with fitted exponents",
        ),
        "nonauth" => Some(
            "Appendix B.2: Algorithm 3 (no signatures) vs Algorithm 1 — \
             the O(n⁴)-vs-O(n²) message gap, with fitted exponents",
        ),
        "subcubic" => Some(
            "Appendix B.3: Algorithm 6 (subcubic words) vs Algorithm 1 — \
             fewer words, exponential latency, with fitted exponents",
        ),
        "classifier-domain" => Some(
            "classification cost vs domain size |V|: the decision \
             procedure's admissibility evaluations fitted as a power law \
             in |V|, per property",
        ),
        "quick" => Some("a seconds-scale smoke sweep touching every axis"),
        "netchaos" => Some(
            "network-fault ablation: every chaos schedule (loss, \
             duplication, partition, churn, composed) across engines and \
             behaviors — safety must never flip",
        ),
        "adaptive" => Some(
            "adaptive-adversary ablation: every observing behavior \
             (target-leader, last-minute, split-brain, adaptive-flood) \
             across engines and schedules — safety must never flip",
        ),
        _ => None,
    }
}

/// Builds a suite by name.
///
/// ```
/// use validity_lab::suites;
///
/// for name in suites::ALL {
///     let matrix = suites::build(name).expect(name);
///     assert!(!matrix.is_empty());
/// }
/// assert!(suites::build("nope").is_none());
/// ```
pub fn build(name: &str) -> Option<ScenarioMatrix> {
    match name {
        "fig1" => Some(fig1()),
        "schedules" => Some(schedules()),
        "complexity" => Some(complexity()),
        "universal" => Some(universal()),
        "nonauth" => Some(nonauth()),
        "subcubic" => Some(subcubic()),
        "classifier-domain" => Some(classifier_domain()),
        "quick" => Some(quick()),
        "netchaos" => Some(netchaos()),
        "adaptive" => Some(adaptive()),
        _ => None,
    }
}

/// Declared exponent bands, one `(key filter, measure, lo, hi)` line each:
/// the band applies to every fit row of `measure` whose key contains the
/// filter (see [`FitBand::applies_to`]).
fn bands(table: &[(&str, FitMeasure, f64, f64)]) -> Vec<FitBand> {
    table
        .iter()
        .map(|&(filter, measure, lo, hi)| FitBand {
            measure,
            lo,
            hi,
            filter: filter.into(),
        })
        .collect()
}

/// A generous per-cell budget for the complexity-family suites: far above
/// any healthy run at these sizes, so a diverging cell quarantines instead
/// of stalling a CI sweep.
const COMPLEXITY_BUDGET: u64 = 5_000_000;

/// The Figure-1 grid: classify every cataloged property at every regime
/// the figure distinguishes, then *run* each solvable non-trivial property
/// (Universal over Algorithm 1) under representative adversaries and
/// schedules, checking each decision's admissibility — the classification
/// table and its operational meaning in one sweep.
pub fn fig1() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("fig1");
    for (n, t, domain) in [
        (3usize, 1usize, 2u64),
        (6, 2, 2),
        (4, 1, 2),
        (4, 1, 3),
        (7, 2, 2),
    ] {
        for validity in ValiditySpec::ALL {
            m.classifications.push(ClassifyCell {
                validity,
                n,
                t,
                domain,
            });
        }
    }
    m.protocols = vec![ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap())];
    m.validities = ValiditySpec::RUNNABLE.to_vec();
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::Crash, BehaviorId::TwoFaced];
    m.faults = vec![0, usize::MAX]; // usize::MAX clamps to t: "maximum load"
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = vec![(4, 1), (7, 2), (10, 3)];
    m.seeds = 0..8;
    m
}

/// The schedule-insensitivity ablation, as a matrix: one protocol, one
/// point, every schedule, many seeds.
pub fn schedules() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("schedules");
    m.protocols = vec![
        ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0];
    m.schedules = ScheduleSpec::LEGACY.to_vec();
    m.systems = vec![(10, 3)];
    m.seeds = 0..5;
    m
}

/// Complexity growth: all three vector-consensus engines, raw, across
/// `(n, t)` at optimal resilience, fault-free and under maximum silent
/// load, with a fitted growth exponent per curve.
pub fn complexity() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("complexity");
    m.protocols = vector_registry()
        .into_iter()
        .map(ProtocolAxis::raw)
        .collect();
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous];
    m.systems = vec![(4, 1), (7, 2), (10, 3), (13, 4)];
    m.seeds = 0..3;
    m.fit_measures = vec![Messages, Words];
    // Paper: Algorithm 1 O(n²) messages and O(n³) words, Algorithm 3
    // O(n⁴) messages, Algorithm 6 O(n² log n) words. At n ≤ 13 no
    // Algorithm 1 band contains the paper's exponent (2 and 3), nor does
    // either Algorithm 3 message band (4); Algorithm 6's word bands and
    // its fault-free message band contain 2.
    m.fit_bands = bands(&[
        ("alg1-auth/vector/silentx0/", Messages, 1.45, 1.94),
        ("alg1-auth/vector/silentxmax/", Messages, 1.36, 1.85),
        ("alg3-nonauth/vector/silentx0/", Messages, 2.70, 3.19),
        ("alg3-nonauth/vector/silentxmax/", Messages, 2.62, 3.11),
        ("alg6-fast/vector/silentx0/", Messages, 1.54, 2.03),
        ("alg6-fast/vector/silentxmax/", Messages, 1.48, 1.97),
        ("alg1-auth/vector/silentx0/", Words, 2.17, 2.66),
        ("alg1-auth/vector/silentxmax/", Words, 2.06, 2.55),
        ("alg3-nonauth/vector/silentx0/", Words, 2.70, 3.19),
        ("alg3-nonauth/vector/silentxmax/", Words, 2.61, 3.10),
        ("alg6-fast/vector/silentx0/", Words, 1.63, 2.12),
        ("alg6-fast/vector/silentxmax/", Words, 1.57, 2.06),
    ]);
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// **Theorem 5** as a sweep: `Universal` over Algorithm 1 solves four
/// different validity properties on the *same* machine, in `Θ(n²)`
/// messages — across `(n, t)` at optimal resilience, fault-free and under
/// maximum silent load, with the message-growth exponent fitted per
/// property.
pub fn universal() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("universal");
    m.protocols = vec![ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap())];
    m.validities = vec![
        ValiditySpec::Strong,
        ValiditySpec::Median,
        ValiditySpec::ConvexHull,
        ValiditySpec::CorrectProposal,
    ];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous];
    m.systems = vec![(4, 1), (7, 2), (10, 3), (13, 4), (16, 5), (19, 6)];
    m.seeds = 0..2;
    m.fit_measures = vec![Messages, Words];
    // The paper's headline is Θ(n²) messages, but through n = 19 the
    // fault-free exponent is ≈ 1.74 and climbs toward 2 as lower-order
    // terms fade; under full silent load fewer correct senders exist and
    // the curve sits lower. No band here contains 2 (messages) or 3 (the
    // O(n³) words). The four properties run the same machine, so one line
    // per measure and load bands all four.
    m.fit_bands = bands(&[
        ("silentx0/", Messages, 1.70, 1.98),
        ("silentxmax/", Messages, 1.41, 1.90),
        ("silentx0/", Words, 2.24, 2.73),
        ("silentxmax/", Words, 2.14, 2.63),
    ]);
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// **Appendix B.2** as a sweep: Algorithm 3 (non-authenticated) pays
/// `O(n⁴)` messages where Algorithm 1 pays `O(n²)` — identical inputs and
/// seeds, growth exponents fitted per algorithm.
pub fn nonauth() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("nonauth");
    m.protocols = vec![
        ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::raw(find_vector("alg3-nonauth").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0];
    m.schedules = vec![ScheduleSpec::Synchronous];
    m.systems = vec![(4, 1), (7, 2), (10, 3), (13, 4)];
    m.seeds = 0..2;
    m.fit_measures = vec![Messages, Words];
    // The same fault-free rows as `complexity`, so the same bands; none
    // contains the paper's exponent (2 for Algorithm 1, 4 for Algorithm 3).
    m.fit_bands = bands(&[
        ("alg1-auth/", Messages, 1.45, 1.94),
        ("alg3-nonauth/", Messages, 2.70, 3.19),
        ("alg1-auth/", Words, 2.17, 2.66),
        ("alg3-nonauth/", Words, 2.70, 3.19),
    ]);
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// **Appendix B.3** as a sweep: Algorithm 6 brings words down to
/// `O(n² log n)` (vs Algorithm 1's `O(n³)`) at the price of exponential
/// latency — word-growth exponents fitted per algorithm, latency measured
/// under maximum load too.
pub fn subcubic() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("subcubic");
    m.protocols = vec![
        ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::raw(find_vector("alg6-fast").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent];
    m.faults = vec![0, usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous];
    m.systems = vec![(4, 1), (7, 2), (10, 3), (13, 4)];
    m.seeds = 0..2;
    m.fit_measures = vec![Words, Latency];
    // Words: Algorithm 1 measures ≈ n^2.4 (its bands exclude the paper's
    // 3), Algorithm 6 ≈ n^1.9 (its bands contain 2). Latency
    // has no power-law claim: Algorithm 1's is flat and fits poorly
    // (R² ≈ 0.65), and Algorithm 6's grows exponentially in t, which a
    // power law in n only tracks over this short ladder.
    m.fit_bands = bands(&[
        ("alg1-auth/vector/silentx0/", Words, 2.17, 2.66),
        ("alg1-auth/vector/silentxmax/", Words, 2.06, 2.55),
        ("alg6-fast/vector/silentx0/", Words, 1.64, 2.13),
        ("alg6-fast/vector/silentxmax/", Words, 1.56, 2.05),
        ("alg1-auth/vector/silentx0/", Latency, -0.32, 0.17),
        ("alg1-auth/vector/silentxmax/", Latency, -0.14, 0.35),
        ("alg6-fast/vector/silentx0/", Latency, 0.29, 0.78),
        ("alg6-fast/vector/silentxmax/", Latency, 0.36, 0.85),
    ]);
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// Classification cost against the domain size: the decision procedure's
/// admissibility-evaluation count, fitted as a power law in `|V|` per
/// property at a fixed `(n, t)` — the proposition-space analogue of the
/// message-complexity fits (the exponent tracks `n − t`, the quorum the
/// similarity condition enumerates over).
pub fn classifier_domain() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("classifier-domain");
    for validity in [
        ValiditySpec::Strong,
        ValiditySpec::Weak,
        ValiditySpec::Median,
        ValiditySpec::ConvexHull,
    ] {
        for domain in 2u64..=6 {
            m.classifications.push(ClassifyCell {
                validity,
                n: 4,
                t: 1,
                domain,
            });
        }
    }
    m.fit_measures = vec![ClassifyCost];
    // Measured at (4, 1) over |V| ∈ 2..=6: strong/weak ≈ |V|^4.8–5.0,
    // median/convex-hull ≈ |V|^4.25 (their admissible sets prune the
    // similarity enumeration earlier). One generous band covers the
    // family; a classifier rewrite that changes the *shape* escapes it.
    m.fit_bands = bands(&[("", ClassifyCost, 3.8, 5.4)]);
    m
}

/// A fast sweep touching every axis once — the demo/smoke suite.
pub fn quick() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("quick");
    m.classifications = vec![
        ClassifyCell {
            validity: ValiditySpec::Strong,
            n: 4,
            t: 1,
            domain: 2,
        },
        ClassifyCell {
            validity: ValiditySpec::Parity,
            n: 4,
            t: 1,
            domain: 2,
        },
    ];
    m.protocols = vec![
        ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::raw(find_vector("alg3-nonauth").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::Stale];
    m.faults = vec![usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = vec![(4, 1)];
    m.seeds = 0..2;
    m
}

/// Every registered vector engine, raw and under `Universal`: the protocol
/// axis of the two robustness suites, so each engine is an oracle there
/// both for vector validity and for every property the suite wraps.
fn every_engine() -> Vec<ProtocolAxis> {
    vector_registry()
        .into_iter()
        .flat_map(|engine| [ProtocolAxis::raw(engine), ProtocolAxis::wrapped(engine)])
        .collect()
}

/// The network-fault ablation: every chaos schedule — bounded loss,
/// duplication, a healing partition, crash-recovery churn, and their
/// composition — swept across every engine (raw, and under `Universal`
/// for Strong and Median), fault-free and at full load of the two
/// standard oblivious adversaries and of every adaptive behavior (an
/// adversary that watches the run, attacking *through* a faulty
/// network). The point of the suite is the *absence* of movement:
/// pre-GST network faults may slow decisions but must never flip safety,
/// so every cell is checked exactly like a clean-schedule cell, and a
/// quarantined cell fails the sweep like a violation.
pub fn netchaos() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("netchaos");
    m.protocols = every_engine();
    m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    m.behaviors.extend(BehaviorId::ADAPTIVE);
    m.faults = vec![0, usize::MAX];
    m.schedules = ScheduleSpec::CHAOS.to_vec();
    m.systems = vec![(4, 1), (7, 2)];
    m.seeds = 0..3;
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// The adaptive-adversary ablation: every observing behavior — the
/// frontrunner-targeting equivocator, the decision-triggered sleeper, the
/// majority-splitting partitioner, and the queue-seeking flooder — swept
/// across every engine (raw, and under `Universal` for Strong and Median)
/// on both clean schedules. Like [`netchaos`], the suite's point is the
/// *absence* of movement: an adversary that reacts to the execution may
/// cost complexity, but every cell must still decide, agree and decide
/// admissibly within its budget.
pub fn adaptive() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("adaptive");
    m.protocols = every_engine();
    m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
    m.behaviors = BehaviorId::ADAPTIVE.to_vec();
    m.faults = vec![usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = vec![(4, 1), (7, 2)];
    m.seeds = 0..3;
    // adaptive-flood keeps the network busy forever; the budget turns a
    // starved cell into a quarantine (a failed sweep) instead of a stall.
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{FitAxis, RunCell};
    use crate::report::SweepReport;

    #[test]
    fn every_suite_builds_and_is_nonempty() {
        for name in ALL {
            let m = build(name).expect(name);
            assert!(!m.is_empty(), "suite {name} enumerates no cells");
            assert!(describe(name).is_some());
        }
        assert!(build("nope").is_none());
        assert_eq!(ALL.len(), 10);
    }

    /// Fails unless `suite` runs every run group of `union` over at least
    /// its seeds: the union is the axes of the grids that once asked the
    /// suite's question separately (the suite itself and a crosscheck
    /// grid), so a suite that drops one of their cells fails here.
    fn assert_covers(suite: &ScenarioMatrix, union: &ScenarioMatrix) {
        let groups: std::collections::BTreeSet<String> = suite
            .run_templates()
            .iter()
            .map(RunCell::group_key)
            .collect();
        let wanted = union.run_templates();
        assert!(!wanted.is_empty());
        for cell in wanted {
            let group = cell.group_key();
            assert!(groups.contains(&group), "{} misses {group}", suite.name);
        }
        assert!(suite.seeds.start <= union.seeds.start && union.seeds.end <= suite.seeds.end);
    }

    /// The union of both robustness questions' former grids, over
    /// `behaviors`, `faults` and `schedules`: every registry engine, raw
    /// and wrapped, under Strong and Median, at (4, 1) and (7, 2), seeds
    /// 0..3.
    fn union(
        behaviors: &[BehaviorId],
        faults: &[usize],
        schedules: &[ScheduleSpec],
    ) -> ScenarioMatrix {
        let mut m = ScenarioMatrix::new("union");
        for engine in vector_registry() {
            m.protocols.push(ProtocolAxis::raw(engine));
            m.protocols.push(ProtocolAxis::wrapped(engine));
        }
        m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
        m.behaviors = behaviors.to_vec();
        m.faults = faults.to_vec();
        m.schedules = schedules.to_vec();
        m.systems = vec![(4, 1), (7, 2)];
        m.seeds = 0..3;
        m
    }

    #[test]
    fn adaptive_sweeps_exactly_the_observing_behaviors() {
        let m = adaptive();
        assert!(m.behaviors.iter().all(|b| b.is_adaptive()));
        assert_eq!(m.behaviors.len(), BehaviorId::ADAPTIVE.len());
        assert!(m.max_steps.is_some(), "adaptive cells need a step budget");
        let clean = [ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        assert_covers(&m, &union(&BehaviorId::ADAPTIVE, &[usize::MAX], &clean));
        // 3 engines × 4 behaviors × 2 schedules × 2 sizes × 3 seeds, each
        // execution read raw and under Strong and Median.
        assert_eq!(m.len(), 144 * 3);
    }

    #[test]
    fn netchaos_sweeps_exactly_the_chaos_schedules() {
        let m = netchaos();
        assert!(m.schedules.iter().all(|s| s.is_chaos()));
        assert_eq!(m.schedules.len(), ScheduleSpec::CHAOS.len());
        assert!(m.max_steps.is_some(), "chaos cells need a step budget");
        let mut behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        behaviors.extend(BehaviorId::ADAPTIVE);
        assert_covers(
            &m,
            &union(&behaviors, &[0, usize::MAX], &ScheduleSpec::CHAOS),
        );
        // 3 engines × (1 fault-free + 6 loaded behaviors) × 5 schedules ×
        // 2 sizes × 3 seeds, each read raw and under Strong and Median.
        assert_eq!(m.len(), 630 * 3);
    }

    #[test]
    fn classifier_domain_fits_cost_against_the_domain_axis() {
        let m = classifier_domain();
        assert_eq!(m.fit_axis(), FitAxis::Domain);
        assert_eq!(m.fit_measures, vec![FitMeasure::ClassifyCost]);
        assert!(!m.fit_bands.is_empty());
        // 4 properties × 5 domain sizes, no run cells at all.
        assert_eq!(m.classifications.len(), 20);
        assert_eq!(m.len(), 20);
    }

    /// A fit's x-axis follows from its measure, and a report's `fit_axis`
    /// label from the measures its suite declares.
    #[test]
    fn each_measure_fits_along_its_own_axis() {
        let axes: Vec<(FitMeasure, FitAxis)> =
            FitMeasure::ALL.iter().map(|&m| (m, m.axis())).collect();
        assert_eq!(
            axes,
            [
                (FitMeasure::Messages, FitAxis::N),
                (FitMeasure::Words, FitAxis::N),
                (FitMeasure::Latency, FitAxis::N),
                (FitMeasure::ClassifyCost, FitAxis::Domain),
            ]
        );
        for name in ALL {
            let m = build(name).expect(name);
            let want = if name == "classifier-domain" {
                "domain"
            } else {
                "n"
            };
            let json = SweepReport::aggregate_matrix(&m, &[]).to_json();
            let label = format!("\"fit_axis\": \"{want}\"");
            assert!(json.contains(&label), "{name} is not labelled {want}");
        }
    }

    #[test]
    fn complexity_family_suites_declare_fits_and_budgets() {
        for name in ["complexity", "universal", "nonauth", "subcubic"] {
            let m = build(name).expect(name);
            assert!(!m.fit_measures.is_empty(), "{name} has no fit measures");
            assert!(!m.fit_bands.is_empty(), "{name} has no expected bands");
            assert!(m.max_steps.is_some(), "{name} has no step budget");
        }
    }

    #[test]
    fn fig1_covers_the_whole_catalog_grid() {
        let m = fig1();
        // 8 properties × 5 (n, t, domain) regimes.
        assert_eq!(m.classifications.len(), 40);
        // And it actually runs things too.
        assert!(m.len() > m.classifications.len());
    }
}
