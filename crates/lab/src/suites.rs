//! Curated built-in suites.
//!
//! Each suite is a [`ScenarioMatrix`] reproducing (and extending) one of
//! the paper's experiment families. `lab run --suite <name>` executes one;
//! `tests/paper_suites.rs` asserts the claims the complexity suites carry.

use validity_adversary::BehaviorId;
use validity_protocols::{find_vector, vector_registry};

use crate::matrix::{
    ClassifyCell, FitAxis, FitBand, FitMeasure, ProtocolAxis, ScenarioMatrix, ScheduleSpec,
    ValiditySpec,
};

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
/// `(n, t)` at optimal resilience, with fitted growth exponents for the
/// fault-free curves.
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
    m.fit_measures = vec![FitMeasure::Messages, FitMeasure::Words];
    m.fit_bands = vec![
        // Algorithm 1 is the paper's Θ(n²)-message benchmark; at these
        // sizes the measured exponent sits just under 2 (lower-order terms
        // still bite at n = 4).
        FitBand {
            measure: FitMeasure::Messages,
            lo: 1.4,
            hi: 2.3,
            filter: "fit/alg1-auth/vector/silentx0".into(),
        },
        // Algorithm 3 (O(n⁴) asymptotically) must grow at least a full
        // polynomial degree faster than Algorithm 1.
        FitBand {
            measure: FitMeasure::Messages,
            lo: 2.5,
            hi: 4.3,
            filter: "fit/alg3-nonauth/vector/silentx0".into(),
        },
    ];
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
    m.fit_measures = vec![FitMeasure::Messages, FitMeasure::Words];
    // The paper's headline: Θ(n²) messages. The fault-free measured
    // exponent at these sizes is ≈ 1.74 (it climbs toward 2 as lower-order
    // terms fade); under full Byzantine load fewer correct senders exist,
    // so that curve sits lower and gets no band.
    m.fit_bands = vec![FitBand {
        measure: FitMeasure::Messages,
        lo: 1.7,
        hi: 2.3,
        filter: "silentx0".into(),
    }];
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
    m.fit_measures = vec![FitMeasure::Messages, FitMeasure::Words];
    m.fit_bands = vec![
        FitBand {
            measure: FitMeasure::Messages,
            lo: 1.4,
            hi: 2.3,
            filter: "fit/alg1-auth".into(),
        },
        FitBand {
            measure: FitMeasure::Messages,
            lo: 2.5,
            hi: 4.3,
            filter: "fit/alg3-nonauth".into(),
        },
    ];
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
    m.fit_measures = vec![FitMeasure::Words, FitMeasure::Latency];
    m.fit_bands = vec![
        // Algorithm 1: O(n³) words; ≈ n^2.4 measured at these sizes.
        FitBand {
            measure: FitMeasure::Words,
            lo: 2.0,
            hi: 3.1,
            filter: "fit/alg1-auth/vector/silentx0".into(),
        },
        // Algorithm 6: O(n² log n) words; ≈ n^1.9 measured.
        FitBand {
            measure: FitMeasure::Words,
            lo: 1.4,
            hi: 2.4,
            filter: "fit/alg6-fast/vector/silentx0".into(),
        },
    ];
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
    m.fit_axis = FitAxis::Domain;
    m.fit_measures = vec![FitMeasure::ClassifyCost];
    // Measured at (4, 1) over |V| ∈ 2..=6: strong/weak ≈ |V|^4.8–5.0,
    // median/convex-hull ≈ |V|^4.25 (their admissible sets prune the
    // similarity enumeration earlier). One generous band covers the
    // family; a classifier rewrite that changes the *shape* escapes it.
    m.fit_bands = vec![FitBand {
        measure: FitMeasure::ClassifyCost,
        lo: 3.8,
        hi: 5.4,
        filter: String::new(),
    }];
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

/// The network-fault ablation: every chaos schedule — bounded loss,
/// duplication, a healing partition, crash-recovery churn, and their
/// composition — swept across both vector engines, the two standard
/// oblivious adversaries, and every adaptive behavior (an adversary that
/// watches the run, attacking *through* a faulty network). The point of
/// the suite is the *absence* of movement: pre-GST network faults may
/// slow decisions but must never flip safety, so every cell is checked
/// exactly like a clean-schedule cell.
pub fn netchaos() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("netchaos");
    m.protocols = vec![
        ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    m.behaviors.extend(BehaviorId::ADAPTIVE);
    m.faults = vec![usize::MAX];
    m.schedules = ScheduleSpec::CHAOS.to_vec();
    m.systems = vec![(4, 1), (7, 2)];
    m.seeds = 0..3;
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

/// The adaptive-adversary ablation: every observing behavior — the
/// frontrunner-targeting equivocator, the decision-triggered sleeper, the
/// majority-splitting partitioner, and the queue-seeking flooder — swept
/// across raw and `Universal`-wrapped Algorithm 1 on both clean schedules.
/// Like [`netchaos`], the suite's point is the *absence* of movement: an
/// adversary that reacts to the execution may cost liveness or complexity,
/// but safety must never flip, so every cell is checked exactly like an
/// oblivious-adversary cell.
pub fn adaptive() -> ScenarioMatrix {
    let mut m = ScenarioMatrix::new("adaptive");
    m.protocols = vec![
        ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
        ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
    ];
    m.validities = vec![ValiditySpec::Strong];
    m.behaviors = BehaviorId::ADAPTIVE.to_vec();
    m.faults = vec![usize::MAX];
    m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
    m.systems = vec![(4, 1), (7, 2)];
    m.seeds = 0..3;
    // adaptive-flood keeps the network busy forever; the budget turns the
    // starved cells into quarantines instead of stalled sweeps.
    m.max_steps = Some(COMPLEXITY_BUDGET);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn adaptive_sweeps_exactly_the_observing_behaviors() {
        let m = adaptive();
        assert!(m.behaviors.iter().all(|b| b.is_adaptive()));
        assert_eq!(m.behaviors.len(), BehaviorId::ADAPTIVE.len());
        assert!(m.max_steps.is_some(), "adaptive cells need a step budget");
    }

    #[test]
    fn netchaos_sweeps_exactly_the_chaos_schedules() {
        let m = netchaos();
        assert!(m.schedules.iter().all(|s| s.is_chaos()));
        assert_eq!(m.schedules.len(), ScheduleSpec::CHAOS.len());
        assert!(m.max_steps.is_some(), "chaos cells need a step budget");
    }

    #[test]
    fn classifier_domain_fits_cost_against_the_domain_axis() {
        let m = classifier_domain();
        assert_eq!(m.fit_axis, FitAxis::Domain);
        assert_eq!(m.fit_measures, vec![FitMeasure::ClassifyCost]);
        assert!(!m.fit_bands.is_empty());
        // 4 properties × 5 domain sizes, no run cells at all.
        assert_eq!(m.classifications.len(), 20);
        assert_eq!(m.len(), 20);
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
