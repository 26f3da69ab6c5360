//! Property-based integration tests (proptest): randomized inputs, fault
//! placements, seeds and schedules — safety and the formalism's invariants
//! must never break.

mod common;

use common::{all_but_last, decide, run_cell};
use proptest::prelude::*;
use validity_core::{
    admissible_intersection, is_similar, BruteForceLambda, ConvexHullLambda, ConvexHullValidity,
    Domain, InputConfig, LambdaFn, MedianValidity, RankLambda, StrongLambda, StrongValidity,
    SystemParams, ValidityProperty,
};
use validity_lab::ScheduleSpec;
use validity_protocols::{Codec, Universal};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Universal over Algorithm 1: Agreement + Strong Validity for random
    /// binary inputs, fault counts, and seeds (partially synchronous).
    #[test]
    fn universal_safety_random_runs(
        inputs in prop::collection::vec(0u64..2, 7),
        byz in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let params = SystemParams::new(7, 2).unwrap();
        let actual = all_but_last(params, byz, &inputs);
        let decided = decide("alg1-auth", &actual, seed, ScheduleSpec::PartialSync, |m| {
            Universal::new(m, StrongLambda)
        });
        prop_assert!(StrongValidity.is_admissible(&actual, &decided));
    }

    /// The simulation is a deterministic function of (nodes, config).
    #[test]
    fn simulation_is_deterministic(seed in 0u64..10_000) {
        let run = || run_cell("alg1-auth", None, 1, ScheduleSpec::PartialSync, 4, seed);
        prop_assert_eq!(run(), run());
    }

    /// Input configurations round-trip through the wire codec.
    #[test]
    fn input_config_codec_roundtrip(
        values in prop::collection::vec(0u64..100, 5..8),
        n in 7usize..10,
    ) {
        let t = (n - 1) / 3;
        let params = SystemParams::new(n, t).unwrap();
        let x = values.len().clamp(params.quorum(), n);
        let cfg = InputConfig::from_pairs(
            params,
            values.iter().take(x).enumerate().map(|(i, &v)| (i, v)),
        );
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        let bytes = cfg.encode();
        prop_assert_eq!(InputConfig::<u64>::decode_all(&bytes), Some(cfg));
    }

    /// Λ closed forms stay inside the brute-force intersection on random
    /// quorum-size configurations (binary domain, n = 4..6).
    #[test]
    fn closed_form_lambdas_sound_on_random_configs(
        n in 4usize..7,
        raw in prop::collection::vec(0u64..2, 6),
        seed_bits in 0u64..64,
    ) {
        let t = (n - 1) / 3;
        let params = SystemParams::new(n, t).unwrap();
        let domain = Domain::binary();
        // Pick the correct set deterministically from seed bits.
        let q = params.quorum();
        let mut members: Vec<usize> = (0..n).collect();
        members.rotate_left((seed_bits as usize) % n);
        members.truncate(q);
        let cfg = InputConfig::from_pairs(
            params,
            members.iter().enumerate().map(|(k, &i)| (i, raw[k % raw.len()])),
        ).unwrap();

        let truth = admissible_intersection(&StrongValidity, &cfg, &domain);
        let v = StrongLambda.lambda(&cfg).unwrap();
        prop_assert!(truth.contains(&v), "Λ_strong({cfg:?}) = {v} ∉ {truth:?}");

        let truth = admissible_intersection(&ConvexHullValidity, &cfg, &domain);
        let v = ConvexHullLambda.lambda(&cfg).unwrap();
        prop_assert!(truth.contains(&v), "Λ_hull({cfg:?}) = {v} ∉ {truth:?}");

        let truth = admissible_intersection(&MedianValidity::with_slack(t), &cfg, &domain);
        let v = RankLambda::median(t, 0u64, 1).lambda(&cfg).unwrap();
        prop_assert!(truth.contains(&v), "Λ_median({cfg:?}) = {v} ∉ {truth:?}");
    }

    /// Brute-force Λ results are always members of the intersection, and
    /// the intersection is monotone under the similarity relation's
    /// symmetry: v ∈ ∩sim(c) ⟹ v admissible for c itself.
    #[test]
    fn intersection_subset_of_own_admissible_set(
        raw in prop::collection::vec(0u64..2, 3),
    ) {
        let params = SystemParams::new(4, 1).unwrap();
        let domain = Domain::binary();
        let cfg = InputConfig::from_pairs(
            params,
            raw.iter().enumerate().map(|(i, &v)| (i, v)),
        ).unwrap();
        let inter = admissible_intersection(&StrongValidity, &cfg, &domain);
        for v in &inter {
            prop_assert!(StrongValidity.is_admissible(&cfg, v));
        }
        let bf = BruteForceLambda::new(StrongValidity, domain.clone());
        if let Ok(v) = bf.lambda(&cfg) {
            prop_assert!(inter.contains(&v));
        } else {
            prop_assert!(inter.is_empty());
        }
    }

    /// Vector-consensus decisions are similar to the actual input
    /// configuration (the Lemma 8 fact), for random inputs and faults.
    #[test]
    fn decided_vector_is_similar_to_actual_config(
        inputs in prop::collection::vec(0u64..5, 4),
        byz in 0usize..2,
        seed in 0u64..100,
    ) {
        let params = SystemParams::new(4, 1).unwrap();
        let actual = all_but_last(params, byz, &inputs);
        let vector = decide("alg1-auth", &actual, seed, ScheduleSpec::PartialSync, |m| m);
        prop_assert!(is_similar(&actual, &vector), "{vector:?} ≁ {actual:?}");
    }
}
