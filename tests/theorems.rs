//! Theorem-level integration tests: each of the paper's five main results
//! checked end-to-end through the public API.

mod common;

use common::{all_but_last, decide, run_cell};
use consensus_validity::prelude::*;
use validity_adversary::half_t;
use validity_core::{enumerate_configs_of_size, DynValidity};
use validity_lab::{try_fit_exponent, ScheduleSpec, ValiditySpec};

/// A constructor for the `Λ` plugged into `Universal`.
type LambdaFactory = fn() -> Box<dyn LambdaFn<u64, u64>>;
use validity_simnet::DEFAULT_DELTA;

/// **Theorem 1**: with n ≤ 3t, solvable ⇒ trivial — checked for the whole
/// catalog by the classifier, and demonstrated operationally by the
/// partition attack.
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
        // Operational half: the partition adversary splits a quorum protocol.
        let exhibit = break_quorum_vote(params, 100, 99);
        assert_ne!(exhibit.decision_a, exhibit.decision_c);
        assert!(exhibit.faulty <= t);
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
/// condition admit no Λ — and the brute-force Λ indeed fails exactly where
/// the classifier says.
#[test]
fn theorem_3_similarity_condition_necessity() {
    let domain = Domain::binary();
    let params = SystemParams::new(4, 1).unwrap();
    match classify(&ParityValidity, params, &domain) {
        Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config }) => {
            let truth = admissible_intersection(&ParityValidity, &config, &domain);
            assert!(truth.is_empty(), "the witness must certify ∩ = ∅");
        }
        other => panic!("parity must violate C_S, got {other:?}"),
    }
}

/// **Theorem 4**: Universal stays above the (⌈t/2⌉)² floor under the
/// E_base adversary at every `t`, its cost growing quadratically in `t`;
/// the sub-quadratic strawman is broken outright.
#[test]
fn theorem_4_lower_bound() {
    // floor respected by the real algorithm
    let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
    let mut points = Vec::new();
    for t in 1..=6usize {
        let params = SystemParams::new(3 * t + 1, t).unwrap();
        let ctx = ProtocolContext::new(params, 13);
        let report = run_e_base(params, DEFAULT_DELTA, 13, |p| {
            Universal::new(alg1.machine(&ctx, p, p.index() as u64), StrongLambda)
        });
        assert!(report.decided, "t = {t}");
        assert!(report.exceeds_bound, "{report:?}");
        points.push((t as f64, report.messages_after_gst as f64));
    }
    let fit = try_fit_exponent(&points).expect("six distinct sizes");
    assert!(fit.exponent > 1.45, "sub-quadratic growth in t: {fit:?}");

    // strawman broken by the merge
    let params = SystemParams::new(7, 2).unwrap();
    let exhibit = break_leader_echo(params, 100, 13);
    assert_ne!(exhibit.v_q, exhibit.v_other);
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
