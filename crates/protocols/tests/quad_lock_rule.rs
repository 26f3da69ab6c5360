//! White-box tests of Quad's safety core: the lock rule, certificate
//! validation, and vote uniqueness — the mechanisms that make the
//! two-phase argument (no two commit certificates for different values)
//! hold.

use validity_core::{ProcessId, SystemParams};
use validity_crypto::{sha256, KeyStore, ThresholdScheme};
use validity_protocols::{PreparedCert, QuadConfig, QuadCore, QuadMsg, MAX_VIEW};
use validity_simnet::{Env, Step, StepSink};

type Core = QuadCore<u64, u64>;
type Msg = QuadMsg<u64, u64>;

fn setup(me: usize) -> (Core, Env, KeyStore, ThresholdScheme) {
    let params = SystemParams::new(4, 1).unwrap();
    let ks = KeyStore::new(4, 7);
    let scheme = ThresholdScheme::new(ks.clone(), 3);
    let core = Core::new(QuadConfig {
        scheme: scheme.clone(),
        signer: ks.signer(ProcessId::from_index(me)),
        verify: Box::new(|_, _| true),
        label: "lockrule",
    });
    let env = Env {
        id: ProcessId::from_index(me),
        params,
        now: 0,
        delta: 100,
    };
    (core, env, ks, scheme)
}

/// Builds a genuine prepared certificate for (view, value) signed by the
/// given processes.
fn prepared_cert(
    ks: &KeyStore,
    scheme: &ThresholdScheme,
    view: u64,
    value: u64,
    signers: &[u32],
) -> PreparedCert<u64, u64> {
    // replicate QuadCore's digest derivation
    let mut h = validity_crypto::Sha256::new();
    h.update(b"lockrule");
    h.update(b"/prepare/");
    h.update(view.to_le_bytes());
    h.update(sha256(validity_protocols::Codec::encode(&value)));
    let digest = h.finalize();
    let partials: Vec<_> = signers
        .iter()
        .map(|&i| scheme.partially_sign(&ks.signer(ProcessId(i)), &digest))
        .collect();
    let tsig = scheme.combine(&digest, partials).unwrap();
    PreparedCert {
        view,
        value,
        proof: 0,
        tsig,
    }
}

/// Runs `start` into a throwaway sink.
fn start(core: &mut Core, env: &Env) {
    let mut sink = StepSink::new();
    core.start(env, &mut sink);
}

/// Delivers one message and returns the emitted steps.
fn deliver(core: &mut Core, from: ProcessId, msg: Msg, env: &Env) -> Vec<Step<Msg, (u64, u64)>> {
    let mut sink = StepSink::new();
    core.on_message(from, &msg, env, &mut sink);
    sink.drain().collect()
}

fn prepare_vote_count(steps: &[Step<Msg, (u64, u64)>]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, Step::Send(_, QuadMsg::PrepareVote { .. })))
        .count()
}

#[test]
fn follower_votes_for_justified_proposal() {
    let (mut core, env, _ks, _scheme) = setup(1);
    start(&mut core, &env);
    // Leader of view 1 is P1 (index 0); a plain proposal with no lock held:
    let steps = deliver(
        &mut core,
        ProcessId(0),
        QuadMsg::Propose {
            view: 1,
            value: 42,
            proof: 0,
            justification: None,
        },
        &env,
    );
    assert_eq!(prepare_vote_count(&steps), 1);
}

#[test]
fn follower_votes_at_most_once_per_view() {
    let (mut core, env, _ks, _scheme) = setup(1);
    start(&mut core, &env);
    let propose = |v: u64| QuadMsg::Propose {
        view: 1,
        value: v,
        proof: 0,
        justification: None,
    };
    let first = deliver(&mut core, ProcessId(0), propose(42), &env);
    assert_eq!(prepare_vote_count(&first), 1);
    // Equivocating leader: second proposal in the same view gets no vote.
    let second = deliver(&mut core, ProcessId(0), propose(43), &env);
    assert_eq!(prepare_vote_count(&second), 0);
}

#[test]
fn non_leader_proposals_are_ignored() {
    let (mut core, env, _ks, _scheme) = setup(1);
    start(&mut core, &env);
    let steps = deliver(
        &mut core,
        ProcessId(2), // not the leader of view 1
        QuadMsg::Propose {
            view: 1,
            value: 42,
            proof: 0,
            justification: None,
        },
        &env,
    );
    assert!(steps.is_empty());
}

#[test]
fn locked_follower_rejects_conflicting_unjustified_proposal() {
    let (mut core, env, ks, scheme) = setup(2);
    start(&mut core, &env);
    // Lock the follower on (view 1, value 7) via a genuine prepared cert.
    let cert = prepared_cert(&ks, &scheme, 1, 7, &[0, 1, 3]);
    let steps = deliver(&mut core, ProcessId(0), QuadMsg::Prepared(cert), &env);
    assert!(
        steps
            .iter()
            .any(|s| matches!(s, Step::Send(_, QuadMsg::CommitVote { .. }))),
        "valid prepared certificate must trigger a commit vote"
    );
    // Leader of view 2 (P2, index 1) proposes a *different* value without
    // justification ≥ the lock: must be rejected.
    let steps = deliver(
        &mut core,
        ProcessId(1),
        QuadMsg::Propose {
            view: 2,
            value: 9,
            proof: 0,
            justification: None,
        },
        &env,
    );
    assert_eq!(prepare_vote_count(&steps), 0, "lock rule violated");
}

#[test]
fn locked_follower_accepts_same_value_or_higher_justification() {
    let (mut core, env, ks, scheme) = setup(2);
    start(&mut core, &env);
    let lock = prepared_cert(&ks, &scheme, 1, 7, &[0, 1, 3]);
    let _ = deliver(
        &mut core,
        ProcessId(0),
        QuadMsg::Prepared(lock.clone()),
        &env,
    );

    // Same value re-proposed in view 2 without justification: fine (the
    // lock's value matches).
    let steps = deliver(
        &mut core,
        ProcessId(1),
        QuadMsg::Propose {
            view: 2,
            value: 7,
            proof: 0,
            justification: None,
        },
        &env,
    );
    assert_eq!(prepare_vote_count(&steps), 1);
}

#[test]
fn forged_prepared_certificate_is_rejected() {
    let (mut core, env, ks, scheme) = setup(2);
    start(&mut core, &env);
    // A certificate whose tsig is over a *different* value's digest:
    let mut cert = prepared_cert(&ks, &scheme, 1, 7, &[0, 1, 3]);
    cert.value = 8; // mismatch
    let steps = deliver(&mut core, ProcessId(0), QuadMsg::Prepared(cert), &env);
    assert!(steps.is_empty(), "mismatched certificate must be ignored");
}

#[test]
fn committed_with_undersized_quorum_is_rejected() {
    let (mut core, env, ks, _) = setup(2);
    start(&mut core, &env);
    // A "commit certificate" combined under a k = 1 scheme (weight 1):
    let weak = ThresholdScheme::new(ks.clone(), 1);
    let mut h = validity_crypto::Sha256::new();
    h.update(b"lockrule");
    h.update(b"/commit/");
    h.update(1u64.to_le_bytes());
    h.update(sha256(validity_protocols::Codec::encode(&42u64)));
    let digest = h.finalize();
    let partial = weak.partially_sign(&ks.signer(ProcessId(3)), &digest);
    let tsig = weak.combine(&digest, [partial]).unwrap();
    let steps = deliver(
        &mut core,
        ProcessId(3),
        QuadMsg::Committed {
            view: 1,
            value: 42,
            proof: 0,
            tsig,
        },
        &env,
    );
    assert!(steps.is_empty(), "undersized commit certificate accepted!");
    assert!(!core.has_decided());
}

/// A message naming view 0 or a view past [`MAX_VIEW`] is dropped unread.
/// View 0 would reach the leader index's `view − 1`, and `u64::MAX` the view
/// timeout's `4·view` and the timer tags' `2·view + 1`: where overflow
/// panics, one Byzantine message crashed its recipient; where it wraps, the
/// leader armed a view timer whose tag decodes as another view and never
/// timed out of the view.
#[test]
fn messages_naming_view_zero_or_past_the_bound_are_dropped() {
    let (_, _, ks, scheme) = setup(0);
    let tsig = prepared_cert(&ks, &scheme, 1, 42, &[0, 1, 2]).tsig;
    let partial = scheme.partially_sign(&ks.signer(ProcessId(3)), &sha256(b"any digest"));
    for view in [0, MAX_VIEW + 1, u64::MAX] {
        let hostile: [Msg; 7] = [
            QuadMsg::ViewChange {
                view,
                prepared: None,
            },
            QuadMsg::Propose {
                view,
                value: 42,
                proof: 0,
                justification: None,
            },
            QuadMsg::PrepareVote { view, partial },
            QuadMsg::Prepared(PreparedCert {
                view,
                value: 42,
                proof: 0,
                tsig,
            }),
            QuadMsg::CommitVote { view, partial },
            QuadMsg::Committed {
                view,
                value: 42,
                proof: 0,
                tsig,
            },
            QuadMsg::Decided {
                view,
                value: 42,
                proof: 0,
                tsig,
            },
        ];
        for msg in hostile {
            // Every recipient and sender, so the view's leader is among
            // them (P0 for view 0 at (4, 1), `view − 1` wrapped; P2 for
            // `u64::MAX`).
            for me in 0..4 {
                let (mut core, env, _, _) = setup(me);
                start(&mut core, &env);
                for from in 0..4 {
                    let steps = deliver(&mut core, ProcessId(from), msg.clone(), &env);
                    assert!(
                        steps.is_empty(),
                        "view {view}: P{me} acted on {msg:?} from P{from}"
                    );
                }
            }
        }
    }
}
