//! Theorem-level integration tests: each of the paper's five main results
//! checked end-to-end through the public API.

use consensus_validity::prelude::*;
use validity_bench::runs;
use validity_core::{DynValidity, StrongLambda};

/// A constructor for the `Λ` plugged into `Universal`.
type LambdaFactory = fn() -> Box<dyn LambdaFn<u64, u64>>;

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
/// E_base adversary; the sub-quadratic strawman is broken outright.
#[test]
fn theorem_4_lower_bound() {
    // floor respected by the real algorithm
    let params = SystemParams::new(7, 2).unwrap();
    let inputs: Vec<u64> = (0..7).collect();
    let report = runs::universal_e_base(
        params,
        &inputs,
        || Box::new(StrongLambda) as Box<dyn LambdaFn<u64, u64>>,
        13,
    );
    assert!(report.decided);
    assert!(report.exceeds_bound, "{report:?}");

    // strawman broken by the merge
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
            let stats = runs::run("alg1-auth", Some(&lambda), params, byz, &inputs, 14, false);
            assert!(stats.decided && stats.agreement, "{}", prop.name());
            let decided: u64 = stats.decision.parse().unwrap();
            let actual = runs::actual_config(params, byz, &inputs);
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
/// validity, and our runs satisfy it.
#[test]
fn lemma_1_canonical_similarity_bound() {
    let params = SystemParams::new(4, 1).unwrap();
    let domain = Domain::binary();
    for inputs in [[0u64, 0, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]] {
        let stats = runs::run(
            "alg1-auth",
            Some(&|| Box::new(StrongLambda)),
            params,
            1, // silent byzantine ⇒ canonical execution
            &inputs,
            15,
            false,
        );
        let decided: u64 = stats.decision.parse().unwrap();
        let actual = runs::actual_config(params, 1, &inputs);
        check_canonical_decision(&StrongValidity, &actual, &decided, &domain)
            .unwrap_or_else(|e| panic!("Lemma 1 violated: {e}"));
    }
}

/// The headline: the same Universal machine with a different Λ yields a
/// different consensus variant at identical message cost (§5.2.2, "no
/// additional cost").
#[test]
fn vector_validity_is_a_strongest_property() {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs: Vec<u64> = (0..7).collect();
    let mut costs = Vec::new();
    let lambdas: Vec<LambdaFactory> =
        vec![|| Box::new(StrongLambda), || Box::new(WeakLambda), || {
            Box::new(ConvexHullLambda)
        }];
    for lambda in lambdas {
        let stats = runs::run("alg1-auth", Some(&lambda), params, 2, &inputs, 16, true);
        assert!(stats.decided && stats.agreement);
        costs.push(stats.messages_after_gst);
    }
    assert!(
        costs.windows(2).all(|w| w[0] == w[1]),
        "identical cost expected: {costs:?}"
    );
}
