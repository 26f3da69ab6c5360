//! End-to-end integration: `Universal` (Algorithm 2) over all three vector
//! consensus implementations, across validity properties and fault
//! configurations — the full stack of the paper exercised through the
//! public API.

use validity_bench::runs;
use validity_core::{
    check_decision, ConvexHullLambda, ConvexHullValidity, MedianValidity, RankLambda, StrongLambda,
    StrongValidity, SystemParams, ValidityProperty, WeakLambda, WeakValidity,
};

/// Display name and registry name of the three vector-consensus engines.
const ENGINES: [(&str, &str); 3] = [
    ("algorithm 1", "alg1-auth"),
    ("algorithm 3", "alg3-nonauth"),
    ("algorithm 6", "alg6-fast"),
];

/// All three vector-consensus implementations are interchangeable under
/// Universal (§5.2.2): same interface, same guarantees.
#[test]
fn universal_strong_validity_over_all_three_algorithms() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [9u64, 9, 9, 9];
    for (name, engine) in ENGINES {
        for byz in [0usize, 1] {
            let stats = runs::run(
                engine,
                Some(&|| Box::new(StrongLambda)),
                params,
                byz,
                &inputs,
                77,
                false, // partially synchronous: chaos before GST
            );
            assert!(stats.decided, "{name} (byz={byz}): no termination");
            assert!(stats.agreement, "{name} (byz={byz}): agreement violated");
            assert_eq!(
                stats.decision, "9",
                "{name} (byz={byz}): strong validity violated"
            );
        }
    }
}

#[test]
fn universal_weak_validity_over_all_three_algorithms() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [3u64, 3, 3, 3];
    for (name, engine) in ENGINES {
        let stats = runs::run(
            engine,
            Some(&|| Box::new(WeakLambda)),
            params,
            0,
            &inputs,
            78,
            false,
        );
        assert!(stats.decided && stats.agreement, "{name} failed");
        // all processes correct + unanimous ⇒ that value (Weak Validity)
        assert_eq!(stats.decision, "3", "{name}: weak validity violated");
        let actual = runs::actual_config(params, 0, &inputs);
        assert!(check_decision(&WeakValidity, &actual, &3).is_ok());
    }
}

#[test]
fn universal_median_and_hull_validity_decisions_are_admissible() {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs = [10u64, 20, 30, 40, 50, 60, 70];
    for byz in [0usize, 2] {
        let actual = runs::actual_config(params, byz, &inputs);

        let stats = runs::run(
            "alg1-auth",
            Some(&|| Box::new(RankLambda::median(2, 0u64, 1000))),
            params,
            byz,
            &inputs,
            79,
            false,
        );
        assert!(stats.decided && stats.agreement);
        let decided: u64 = stats.decision.parse().unwrap();
        assert!(
            MedianValidity::with_slack(2).is_admissible(&actual, &decided),
            "median validity violated by {decided} (byz={byz})"
        );

        let stats = runs::run(
            "alg1-auth",
            Some(&|| Box::new(ConvexHullLambda)),
            params,
            byz,
            &inputs,
            80,
            false,
        );
        let decided: u64 = stats.decision.parse().unwrap();
        assert!(
            ConvexHullValidity.is_admissible(&actual, &decided),
            "hull validity violated by {decided} (byz={byz})"
        );
    }
}

/// The three implementations must produce *identical complexity ordering*:
/// messages(alg1) < messages(alg3) and words(alg6) < words(alg1) at scale.
#[test]
fn complexity_ordering_between_algorithms() {
    let params = SystemParams::new(10, 3).unwrap();
    let inputs: Vec<u64> = (0..10).collect();
    let [s1, s3, s6] =
        ENGINES.map(|(_, engine)| runs::run(engine, None, params, 0, &inputs, 81, true));
    assert!(
        s1.messages_after_gst < s3.messages_after_gst,
        "alg1 beats alg3 on messages"
    );
    assert!(
        s6.words_after_gst < s1.words_after_gst,
        "alg6 beats alg1 on words"
    );
    assert!(s6.latency > s1.latency, "alg6 pays in latency");
}

/// Universal's decision must depend only on the vector-consensus decision,
/// not on which implementation produced it: with identical (failure-free,
/// synchronous) inputs, Algorithms 1 and 3 may decide different *vectors*,
/// but both decisions must be admissible under the same property.
#[test]
fn cross_algorithm_validity_consistency() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [2u64, 2, 5, 5];
    let actual = runs::actual_config(params, 0, &inputs);
    for (name, engine) in ENGINES {
        let stats = runs::run(
            engine,
            Some(&|| Box::new(StrongLambda)),
            params,
            0,
            &inputs,
            83,
            true,
        );
        let decided: u64 = stats.decision.parse().unwrap();
        assert!(
            StrongValidity.is_admissible(&actual, &decided),
            "{name}: {decided} inadmissible"
        );
    }
}

/// Message complexity counted from GST only (§3.1): a long asynchronous
/// prefix must not inflate the measured complexity.
#[test]
fn pre_gst_chaos_does_not_count() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [1u64, 2, 3, 4];
    let sync = runs::run("alg1-auth", None, params, 1, &inputs, 84, true);
    let psync = runs::run("alg1-auth", None, params, 1, &inputs, 84, false);
    // In the partially synchronous run much happens before GST; the
    // after-GST count can only be smaller or comparable.
    assert!(psync.messages_after_gst <= psync.messages_total);
    assert!(sync.messages_after_gst == sync.messages_total); // GST = 0
}
