//! End-to-end integration: `Universal` (Algorithm 2) over all three vector
//! consensus implementations, across validity properties and fault
//! configurations — the full stack of the paper exercised through the
//! public API.

mod common;

use common::{all_but_last, decide, run_cell};
use validity_core::{
    check_decision, ConvexHullLambda, ConvexHullValidity, MedianValidity, RankLambda, StrongLambda,
    StrongValidity, SystemParams, ValidityProperty, WeakLambda, WeakValidity,
};
use validity_lab::ScheduleSpec;
use validity_protocols::Universal;

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
            let decided = decide(
                engine,
                &all_but_last(params, byz, &inputs),
                77,
                ScheduleSpec::PartialSync, // chaos before GST
                |m| Universal::new(m, StrongLambda),
            );
            assert_eq!(decided, 9, "{name} (byz={byz}): strong validity violated");
        }
    }
}

#[test]
fn universal_weak_validity_over_all_three_algorithms() {
    let params = SystemParams::new(4, 1).unwrap();
    let inputs = [3u64, 3, 3, 3];
    let actual = all_but_last(params, 0, &inputs);
    for (name, engine) in ENGINES {
        let decided = decide(engine, &actual, 78, ScheduleSpec::PartialSync, |m| {
            Universal::new(m, WeakLambda)
        });
        // all processes correct + unanimous ⇒ that value (Weak Validity)
        assert_eq!(decided, 3, "{name}: weak validity violated");
        assert!(check_decision(&WeakValidity, &actual, &3).is_ok());
    }
}

#[test]
fn universal_median_and_hull_validity_decisions_are_admissible() {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs = [10u64, 20, 30, 40, 50, 60, 70];
    for byz in [0usize, 2] {
        let actual = all_but_last(params, byz, &inputs);

        let decided = decide("alg1-auth", &actual, 79, ScheduleSpec::PartialSync, |m| {
            Universal::new(m, RankLambda::median(2, 0u64, 1000))
        });
        assert!(
            MedianValidity::with_slack(2).is_admissible(&actual, &decided),
            "median validity violated by {decided} (byz={byz})"
        );

        let decided = decide("alg1-auth", &actual, 80, ScheduleSpec::PartialSync, |m| {
            Universal::new(m, ConvexHullLambda)
        });
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
    let [s1, s3, s6] =
        ENGINES.map(|(_, engine)| run_cell(engine, None, 0, ScheduleSpec::Synchronous, 10, 81));
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
    let actual = all_but_last(params, 0, &inputs);
    for (name, engine) in ENGINES {
        let decided = decide(engine, &actual, 83, ScheduleSpec::Synchronous, |m| {
            Universal::new(m, StrongLambda)
        });
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
    let sync = run_cell("alg1-auth", None, 1, ScheduleSpec::Synchronous, 4, 84);
    let psync = run_cell("alg1-auth", None, 1, ScheduleSpec::PartialSync, 4, 84);
    // In the partially synchronous run much happens before GST; the
    // after-GST count can only be smaller or comparable.
    assert!(psync.messages_after_gst <= psync.messages_total);
    assert!(sync.messages_after_gst == sync.messages_total); // GST = 0
}
