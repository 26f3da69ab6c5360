//! Determinism guarantees of the multiplexed service mode.
//!
//! Three invariants are pinned here:
//!
//! 1. **Thread-count byte-identity.** The `service` suite (overlapping
//!    consensus slots multiplexed into one simulation) renders the same
//!    report bytes at worker counts 1 and default — the same guarantee
//!    every other lab artifact carries.
//! 2. **Single-instance transparency.** Wrapping a protocol in
//!    [`validity_simnet::Multiplex`] with one slot must not perturb the
//!    simulation: same message count, same decision timing, and exactly
//!    one extra word per message (the instance-id envelope). Together
//!    with the untouched `golden_report` fingerprints — which drive raw
//!    (un-multiplexed) machines through the same engine — this proves the
//!    instance-multiplexing change left pre-multiplexing executions
//!    byte-identical.
//! 3. **The throughput claim.** Pipelining and batching pay what
//!    `docs/service.md` says they pay, asserted on the suite's own
//!    deterministic simulated-time rates.
//!
//! The golden hashes were recorded when the service suite was introduced.
//! Do **not** regenerate them unless a service-schema change is
//! intentional.

use validity_crypto::sha256;
use validity_lab::{run_service, ServiceMatrix};
use validity_protocols::{find_vector, ProtocolContext, Replicated, ServiceConfig};
use validity_simnet::{NodeKind, Silent, SimBuilder};

/// SHA-256 of `ServiceReport::to_json()` for the built-in `service` suite
/// (what `lab service --json …` writes).
const SERVICE_JSON: &str = "b607dfd5cff2cfaad9b3b7ca7c368a270f275fda4d8cba7f4a430fb4a0ae8764";

/// SHA-256 of the same suite's Markdown rendering.
const SERVICE_MD: &str = "6391ba79f11fdd595a96ffb642af2358490b0d683485eef26e60c82448730cfc";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn service_suite_is_byte_identical_across_thread_counts() {
    let matrix = ServiceMatrix::suite();
    let (one, _, _) = run_service(&matrix, 1);
    let (two, _, _) = run_service(&matrix, 2);
    let (many, _, _) = run_service(&matrix, 0);
    assert_eq!(one.to_json(), many.to_json());
    assert_eq!(one.to_json(), two.to_json());
    assert_eq!(one.to_markdown(), many.to_markdown());
    assert_eq!(one.failures(), 0, "the built-in suite must run clean");
}

#[test]
fn service_suite_matches_golden_fingerprint() {
    let (report, _, _) = run_service(&ServiceMatrix::suite(), 0);
    assert_eq!(
        hex(sha256(report.to_json()).as_ref()),
        SERVICE_JSON,
        "service JSON drifted from its recorded fingerprint"
    );
    assert_eq!(
        hex(sha256(report.to_markdown()).as_ref()),
        SERVICE_MD,
        "service Markdown drifted from its recorded fingerprint"
    );
}

/// The golden hash above is opaque; this states what `docs/service.md`
/// promises of the built-in suite in numbers a reader can check. On every
/// fault-free synchronous group, `pipeline 2` commits at least 1.5× the
/// decisions/sec of sequential slots (it fails if pipelining silently
/// serialises), and `batch 8` carries 8× the requests/sec (to fixed-point
/// rounding) at unchanged decisions/sec and messages/decision.
#[test]
fn pipelining_and_batching_pay_what_the_service_guide_promises() {
    let (report, _, _) = run_service(&ServiceMatrix::suite(), 0);
    let group = |system: &str, pipeline: u32, batch: u32| {
        let key = format!("service/alg1-auth/silentx0/sync/{system}/k4p{pipeline}b{batch}");
        report
            .groups
            .iter()
            .find(|g| g.key == key)
            .unwrap_or_else(|| panic!("the suite lost group {key}"))
    };
    for system in ["n4t1", "n7t2"] {
        for batch in [1, 8] {
            let (sequential, pipelined) = (group(system, 1, batch), group(system, 2, batch));
            assert!(
                2 * pipelined.decisions_per_sec_milli() >= 3 * sequential.decisions_per_sec_milli(),
                "{}: pipeline 2 yields {} vs {} sequential — under 1.5×",
                pipelined.key,
                pipelined.decisions_per_sec_milli(),
                sequential.decisions_per_sec_milli(),
            );
        }
        for pipeline in [1, 2] {
            let (single, batched) = (group(system, pipeline, 1), group(system, pipeline, 8));
            assert_eq!(
                single.decisions_per_sec_milli(),
                batched.decisions_per_sec_milli(),
                "{}: batching changed decisions/sec",
                batched.key
            );
            assert_eq!(
                single.messages_per_decision_centi(),
                batched.messages_per_decision_centi(),
                "{}: batching changed messages/decision",
                batched.key
            );
            let eightfold = 8 * single.requests_per_sec_milli();
            assert!(
                batched.requests_per_sec_milli().abs_diff(eightfold) * 100 <= eightfold,
                "{}: batch 8 yields {} requests/sec vs 8 × {}",
                batched.key,
                batched.requests_per_sec_milli(),
                single.requests_per_sec_milli(),
            );
        }
    }
}

/// A 1-slot service run of a real registry protocol against the same
/// protocol run raw: identical message schedule and decision timing, and
/// a word overhead of exactly one envelope word per message.
#[test]
fn single_slot_service_is_transparent_to_the_raw_protocol() {
    let spec = find_vector::<u64>("alg1-auth").expect("registered");
    let params = validity_core::SystemParams::new(4, 1).expect("valid");
    let seed = 3;
    let input = 42u64;

    let ctx = ProtocolContext::new(params, seed);
    let raw_nodes: Vec<_> = (0..params.n())
        .map(|i| {
            let p = validity_core::ProcessId::from_index(i);
            if i < params.n() - 1 {
                NodeKind::Correct(spec.machine(&ctx, p, input))
            } else {
                NodeKind::Byzantine(Box::new(Silent))
            }
        })
        .collect();
    let mut raw = SimBuilder::new(params)
        .seed(seed)
        .build(raw_nodes)
        .expect("valid config");
    raw.run_until_decided();
    assert!(raw.all_correct_decided());

    let service = Replicated::new(
        spec,
        ProtocolContext::new(params, seed),
        ServiceConfig {
            slots: 1,
            pipeline: 1,
            batch: 1,
        },
    );
    let mux_nodes: Vec<_> = (0..params.n())
        .map(|i| {
            let p = validity_core::ProcessId::from_index(i);
            if i < params.n() - 1 {
                NodeKind::Correct(service.replica_with(p, move |_| input))
            } else {
                NodeKind::Byzantine(Box::new(Silent))
            }
        })
        .collect();
    let mut mux = SimBuilder::new(params)
        .seed(seed)
        .build(mux_nodes)
        .expect("valid config");
    mux.run_until_decided();
    assert!(mux.all_correct_decided());

    let (r, m) = (raw.stats(), mux.stats());
    assert_eq!(r.messages_total, m.messages_total);
    assert_eq!(r.deliveries, m.deliveries);
    assert_eq!(r.timer_fires, m.timer_fires);
    assert_eq!(
        m.words_total,
        r.words_total + r.messages_total,
        "the envelope must cost exactly one word per message"
    );
    assert_eq!(
        r.last_decision_at, m.last_decision_at,
        "multiplexing must not shift decision timing"
    );
}
