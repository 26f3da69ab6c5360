//! Theorem-level integration tests: each of the paper's five main results
//! checked end-to-end through the public API.

mod common;

use std::collections::BTreeMap;

use common::{all_but_last, decide, run_cell};
use consensus_validity::prelude::*;
use validity_adversary::{half_t, LeaderEcho, QuorumVote, Refusal};
use validity_core::{compare, enumerate_configs_of_size, Comparison, DynValidity, Value};
use validity_lab::suites::fig1;
use validity_lab::{try_fit_exponent, ScheduleSpec, ValiditySpec};

/// A constructor for the `Λ` plugged into `Universal`.
type LambdaFactory = fn() -> Box<dyn LambdaFn<u64, u64>>;
use validity_simnet::DEFAULT_DELTA;

/// **Theorem 1**: with n ≤ 3t, solvable ⇒ trivial — checked for the whole
/// catalog by the classifier, and demonstrated operationally by the
/// partition attack on the `QuorumVote` strawman and on Algorithm 1.
#[test]
fn theorem_1_triviality_below_threshold() {
    let domain = Domain::binary();
    for (n, t) in [(3usize, 1usize), (4, 2), (6, 2)] {
        let params = SystemParams::new(n, t).unwrap();
        let props: Vec<DynValidity<u64>> = vec![
            Box::new(StrongValidity),
            Box::new(WeakValidity),
            Box::new(CorrectProposalValidity),
            Box::new(MedianValidity::with_slack(t)),
            Box::new(ConvexHullValidity),
            Box::new(ParityValidity),
            Box::new(TrivialValidity::new(0u64)),
        ];
        for prop in props {
            let c = classify(&prop, params, &domain);
            assert!(
                !c.is_solvable() || c.is_trivial(),
                "Theorem 1 violated at ({n},{t}) by {}",
                prop.name()
            );
        }
        // Operational half: the partition adversary splits a quorum
        // protocol, and Algorithm 1 into two decided vectors.
        let exhibit = break_partition(params, 100, 99, |_, face| QuorumVote::new(face))
            .unwrap_or_else(|r| panic!("QuorumVote at ({n},{t}): {r}"));
        assert_ne!(exhibit.one.value, exhibit.other.value);
        assert!(exhibit.faulty <= t);
        let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
        for (seed, delta) in [7u64, 99, 2023]
            .into_iter()
            .flat_map(|s| [(s, 10), (s, 100)])
        {
            let ctx = ProtocolContext::new(params, seed);
            let exhibit =
                break_partition(params, delta, seed, |p, face| alg1.machine(&ctx, p, face))
                    .unwrap_or_else(|r| {
                        panic!("Algorithm 1 at ({n},{t}), seed {seed}, δ {delta}: {r}")
                    });
            assert_ne!(exhibit.one.value, exhibit.other.value);
            assert!(exhibit.faulty <= t);
            // Both sides decide while A ↔ C is still held (GST = 200δ).
            assert!(
                exhibit.one.at.max(exhibit.other.at) < 200 * delta,
                "{exhibit:?}"
            );
        }
    }
}

/// **Theorem 2**: for trivial properties the always-admissible witness is
/// an executable zero-message decision procedure.
#[test]
fn theorem_2_always_admissible_procedure() {
    let domain = Domain::binary();
    let params = SystemParams::new(6, 2).unwrap();
    let prop = TrivialValidity::new(1u64);
    match classify(&prop, params, &domain) {
        Classification::Trivial { witness } => {
            // deciding `witness` unconditionally satisfies the property in
            // every enumerable input configuration:
            for c in validity_core::enumerate_all_configs(params, &domain) {
                assert!(prop.is_admissible(&c, &witness));
            }
        }
        other => panic!("expected trivial, got {other:?}"),
    }
}

/// **Theorem 3** (necessity of C_S): properties violating the similarity
/// condition admit no Λ — across the `fig1` grid, exactly the cells the
/// classifier reports as C_S violations, each witness certifying that the
/// admissible sets over its similar configurations share no value.
#[test]
fn theorem_3_similarity_condition_necessity() {
    let mut violations = Vec::new();
    for cell in fig1().classifications {
        let params = SystemParams::new(cell.n, cell.t).unwrap();
        let domain = Domain::range(cell.domain);
        let prop = cell.validity.property(cell.t);
        if let Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config }) =
            classify(&prop, params, &domain)
        {
            let truth = admissible_intersection(&prop, &config, &domain);
            assert!(
                truth.is_empty(),
                "{}: the witness must certify ∩ = ∅",
                cell.key()
            );
            violations.push((cell.validity, cell.n, cell.t, cell.domain));
        }
    }
    use ValiditySpec::{CorrectProposal, ExactMedian, Parity};
    assert_eq!(
        violations,
        [
            (ExactMedian, 4, 1, 2),
            (Parity, 4, 1, 2),
            (CorrectProposal, 4, 1, 3),
            (ExactMedian, 4, 1, 3),
            (Parity, 4, 1, 3),
            (ExactMedian, 7, 2, 2),
            (Parity, 7, 2, 2),
        ]
    );
}

/// **Theorem 4**: Universal stays above the (⌈t/2⌉)² floor under the
/// E_base adversary at every `t`, its cost growing quadratically in `t`,
/// so the merge construction refuses it; the sub-quadratic strawman is
/// broken outright.
#[test]
fn theorem_4_lower_bound() {
    // floor respected by the real algorithm
    let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
    let mut points = Vec::new();
    for t in 1..=6usize {
        let params = SystemParams::new(3 * t + 1, t).unwrap();
        let ctx = ProtocolContext::new(params, 13);
        let mk = |p: ProcessId, face: u64| {
            Universal::new(alg1.machine(&ctx, p, p.index() as u64 + face), StrongLambda)
        };
        let report = run_e_base(params, DEFAULT_DELTA, 13, |p| mk(p, 0));
        assert!(report.decided, "t = {t}");
        assert!(report.exceeds_bound, "{report:?}");
        points.push((t as f64, report.messages_after_gst as f64));
        if t <= 4 {
            // E_base's witness hears more than it ignores: no β_Q to merge.
            let refusal = break_subquadratic(params, DEFAULT_DELTA, 13, mk).unwrap_err();
            assert_eq!(
                refusal,
                Refusal::WitnessHeard {
                    q: report.q,
                    received: report.q_received,
                    ignored: half_t(t),
                },
                "t = {t}"
            );
        }
    }
    let fit = try_fit_exponent(&points).expect("six distinct sizes");
    assert!(fit.exponent > 1.45, "sub-quadratic growth in t: {fit:?}");

    // strawman broken by the merge
    let params = SystemParams::new(7, 2).unwrap();
    let exhibit = break_subquadratic(params, 100, 13, |_, face| LeaderEcho::new(1 - face))
        .unwrap_or_else(|r| panic!("the merge splits LeaderEcho: {r}"));
    // Q = P7 decides its own 1 in isolation at the 10δ timeout (β_Q); with
    // Q silent the rest decide 0 by 100 (E_v); the merge has no fault.
    let (q, other) = (exhibit.one, exhibit.other);
    assert_eq!((q.p, q.value, q.at), (ProcessId(6), 1, 1000));
    assert_eq!((other.p, other.value, other.at), (ProcessId(1), 0, 100));
    assert_eq!(exhibit.faulty, 0);
}

/// **Theorem 5** (sufficiency of C_S): for every property the classifier
/// declares solvable-non-trivial, Universal actually decides an admissible
/// value, using the Λ-table entry matching the decided vector.
#[test]
fn theorem_5_universal_solves_classified_properties() {
    let domain = Domain::binary();
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [0u64, 1, 0, 1];

    // Binary-domain catalog at (4,1): all of these satisfy C_S.
    let cases: Vec<(DynValidity<u64>, LambdaFactory)> = vec![
        (Box::new(StrongValidity), || Box::new(StrongLambda)),
        (Box::new(WeakValidity), || Box::new(WeakLambda)),
        (Box::new(CorrectProposalValidity), || {
            Box::new(CorrectProposalLambda)
        }),
        (Box::new(ConvexHullValidity), || Box::new(ConvexHullLambda)),
    ];
    for (prop, lambda) in cases {
        let verdict = classify(&prop, params, &domain);
        assert!(
            matches!(verdict, Classification::SolvableNonTrivial { .. }),
            "{} should satisfy C_S over the binary domain",
            prop.name()
        );
        for byz in [0usize, 1] {
            let actual = all_but_last(params, byz, &inputs);
            let decided = decide("alg1-auth", &actual, 14, ScheduleSpec::PartialSync, |m| {
                Universal::new(m, lambda())
            });
            assert!(
                prop.is_admissible(&actual, &decided),
                "{}: decided {decided} ∉ val({actual:?})",
                prop.name()
            );
        }
    }
}

/// **Lemma 1** (canonical similarity): in canonical executions (silent
/// faulty processes) the decision lies in the *intersection* of admissible
/// sets over all similar configurations — strictly stronger than plain
/// validity, and our runs satisfy it at every quorum-size configuration
/// of (4, 1) over the binary domain.
#[test]
fn lemma_1_canonical_similarity_bound() {
    let params = SystemParams::new(4, 1).unwrap();
    let domain = Domain::binary();
    let configs = enumerate_configs_of_size(params, &domain, params.quorum());
    assert_eq!(configs.len(), 32);
    for actual in configs {
        // the process outside π(c) is silent ⇒ canonical execution
        let decided = decide("alg1-auth", &actual, 15, ScheduleSpec::PartialSync, |m| {
            Universal::new(m, StrongLambda)
        });
        check_canonical_decision(&StrongValidity, &actual, &decided, &domain)
            .unwrap_or_else(|e| panic!("Lemma 1 violated: {e}"));
    }
}

/// The headline: the same Universal machine with a different Λ yields a
/// different consensus variant at identical message cost (§5.2.2, "no
/// additional cost") — and that cost is the upper half of the Θ(n²)
/// sandwich: `msgs/n²` stays bounded while Theorem 4's floor grows.
#[test]
fn vector_validity_is_a_strongest_property() {
    let universal_alg1 = |validity, n, byz, seed| {
        let run = run_cell(
            "alg1-auth",
            Some(validity),
            byz,
            ScheduleSpec::Synchronous,
            n,
            seed,
        );
        assert!(run.decided && run.agreement, "{validity} at n = {n}");
        run.messages_after_gst
    };
    let costs = [
        ValiditySpec::Strong,
        ValiditySpec::Weak,
        ValiditySpec::ConvexHull,
    ]
    .map(|validity| universal_alg1(validity, 7, 2, 16));
    assert!(
        costs.windows(2).all(|w| w[0] == w[1]),
        "identical cost expected: {costs:?}"
    );

    let sizes = [4usize, 7, 10, 13, 16];
    for n in sizes {
        let msgs = universal_alg1(ValiditySpec::Strong, n, 0, 55);
        assert!(msgs <= 4 * (n * n) as u64, "n = {n}: {msgs} messages");
    }
    let floor = |n: usize| half_t((n - 1) / 3).pow(2);
    assert!(floor(sizes[0]) < floor(sizes[4]));
}

/// The mirror image of a comparison: what `compare(b, a)` must return when
/// `compare(a, b)` returned `c`.
fn mirror<V: Value>(c: Comparison<V>) -> Comparison<V> {
    match c {
        Comparison::Equivalent => Comparison::Equivalent,
        Comparison::Refines { strict_at } => Comparison::RefinedBy { strict_at },
        Comparison::RefinedBy { strict_at } => Comparison::Refines { strict_at },
        Comparison::Incomparable {
            val1_exceeds_at,
            val2_exceeds_at,
        } => Comparison::Incomparable {
            val1_exceeds_at: val2_exceeds_at,
            val2_exceeds_at: val1_exceeds_at,
        },
    }
}

/// **§1 — the hierarchy of validity properties.** `val₁` refines `val₂`
/// when `val₁(c) ⊆ val₂(c)` everywhere, so any algorithm for `val₁` solves
/// `val₂`: across every `fig1` regime, solvability and triviality pass
/// from each property to every property it refines into, while every
/// `n > 3t` regime has a solvable property refined by an unsolvable one.
#[test]
fn refinement_preserves_solvability_upward_only() {
    let mut regimes: BTreeMap<(usize, usize, u64), Vec<ValiditySpec>> = BTreeMap::new();
    for cell in fig1().classifications {
        regimes
            .entry((cell.n, cell.t, cell.domain))
            .or_default()
            .push(cell.validity);
    }
    let mut relations = BTreeMap::new();
    let mut downward = Vec::new();
    for (&regime, specs) in &regimes {
        let (n, t, d) = regime;
        let params = SystemParams::new(n, t).unwrap();
        let domain = Domain::range(d);
        let props: Vec<_> = specs
            .iter()
            .map(|&spec| {
                let prop = spec.property(t);
                let verdict = classify(&prop, params, &domain);
                (spec, prop, verdict)
            })
            .collect();
        for (a, prop_a, verdict_a) in &props {
            // (a) reflexivity
            assert_eq!(
                compare(prop_a, prop_a, params, &domain),
                Comparison::Equivalent,
                "{a} at {regime:?}"
            );
            for (b, prop_b, verdict_b) in &props {
                if a == b {
                    continue;
                }
                let ab = compare(prop_a, prop_b, params, &domain);
                // (b) the two directions are mirror images
                assert_eq!(
                    mirror(ab.clone()),
                    compare(prop_b, prop_a, params, &domain),
                    "{a} vs {b} at {regime:?}"
                );
                if ab.is_refinement() {
                    // (c) upward closure
                    assert!(
                        !verdict_a.is_solvable() || verdict_b.is_solvable(),
                        "{a} ⊑ {b} at {regime:?}: solvable refines unsolvable"
                    );
                    assert!(
                        !verdict_a.is_trivial() || verdict_b.is_trivial(),
                        "{a} ⊑ {b} at {regime:?}: trivial refines non-trivial"
                    );
                    if !verdict_a.is_solvable() && verdict_b.is_solvable() {
                        downward.push((regime, *a, *b));
                    }
                }
                relations.insert((regime, *a, *b), ab);
            }
        }
        // (d) the downward direction fails wherever non-trivial properties
        // are solvable at all
        if params.supports_non_trivial() {
            assert!(
                downward.iter().any(|&(r, ..)| r == regime),
                "no unsolvable refinement of a solvable property at {regime:?}"
            );
        }
    }

    // (e) the relations the catalog is known for
    use ValiditySpec::*;
    let refines = |regime, a, b| matches!(relations[&(regime, a, b)], Comparison::Refines { .. });
    for (&regime, specs) in &regimes {
        for &spec in specs.iter().filter(|&&spec| spec != Trivial) {
            assert!(
                refines(regime, spec, Trivial),
                "{spec} ⋢ trivial at {regime:?}"
            );
        }
    }
    for (a, b) in [
        (CorrectProposal, Strong),
        (Strong, Weak),
        (ExactMedian, Median),
        (Median, ConvexHull),
    ] {
        assert!(refines((4, 1, 3), a, b), "{a} ⋢ {b} at (4, 1, 3)");
    }
    assert!(refines((4, 1, 2), Strong, Weak));
    assert!(downward.contains(&((4, 1, 2), ExactMedian, Median)));
    assert!(matches!(
        relations[&((4, 1, 2), Parity, Strong)],
        Comparison::Incomparable { .. }
    ));
}
