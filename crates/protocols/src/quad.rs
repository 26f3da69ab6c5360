//! Quad \[28\] — the partially synchronous, leader-based Byzantine consensus
//! with `O(n²)` message complexity used as a closed box by Algorithms 1
//! and 6 (§5.2.1).
//!
//! Quad's interface (as the paper uses it): processes propose and decide
//! *value–proof pairs* `(v ∈ V_Quad, Σ ∈ P_Quad)` subject to an external
//! `verify : V_Quad × P_Quad → {true, false}`; if a correct process decides
//! `(v, Σ)` then `verify(v, Σ) = true`, plus Agreement and Termination.
//!
//! The implementation is a two-phase locked protocol in the HotStuff/PBFT
//! lineage, matching Quad's structure:
//!
//! * views `v = 1, 2, ...` with rotating leader `P_{(v−1) mod n}`;
//! * per view, processes send `VIEW-CHANGE` (carrying their highest
//!   *prepared certificate*) to the new leader; the leader waits `2δ` after
//!   entering the view (so that after GST it holds *every* correct lock —
//!   avoiding the hidden-lock liveness failure), then proposes the value of
//!   the highest prepared certificate it saw, or its own input;
//! * followers prepare-vote (threshold partial signature), the leader
//!   combines `n − t` votes into a prepared certificate, followers lock it
//!   and commit-vote, the leader combines a commit certificate, and
//!   everyone decides;
//! * linearly growing view timers guarantee post-GST overlap; each view
//!   costs `O(n)` messages, so the post-GST cost is `O(n²)`.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;

use validity_core::ProcessId;
use validity_crypto::{
    sha256, Digest, PartialSignature, Sha256, Signer, ThresholdScheme, ThresholdSignature,
};
use validity_simnet::{Env, StepSink, Time};

use crate::codec::{Codec, Words};

/// A prepared certificate: `n − t` prepare votes for `(view, value)`.
#[derive(Clone, Debug)]
pub struct PreparedCert<V, P> {
    /// View in which the value was prepared.
    pub view: u64,
    /// The prepared value.
    pub value: V,
    /// Its external-validity proof.
    pub proof: P,
    /// Combined threshold signature over the prepare digest.
    pub tsig: ThresholdSignature,
}

impl<V: Words, P: Words> Words for PreparedCert<V, P> {
    fn words(&self) -> usize {
        1 + self.value.words() + self.proof.words() + 1
    }
}

/// Wire messages of Quad.
#[derive(Clone, Debug)]
pub enum QuadMsg<V, P> {
    /// Sent to the new leader on view entry, carrying the sender's lock.
    ViewChange {
        /// The view being entered.
        view: u64,
        /// The sender's highest prepared certificate, if any.
        prepared: Option<PreparedCert<V, P>>,
    },
    /// The leader's proposal for a view.
    Propose {
        /// The view.
        view: u64,
        /// Proposed value.
        value: V,
        /// External-validity proof for the value.
        proof: P,
        /// The certificate justifying the choice (its value must match), if
        /// any.
        justification: Option<PreparedCert<V, P>>,
    },
    /// A prepare vote (partial threshold signature), sent to the leader.
    PrepareVote {
        /// The view.
        view: u64,
        /// Partial signature over the prepare digest.
        partial: PartialSignature,
    },
    /// The combined prepared certificate, leader to all.
    Prepared(PreparedCert<V, P>),
    /// A commit vote, sent to the leader.
    CommitVote {
        /// The view.
        view: u64,
        /// Partial signature over the commit digest.
        partial: PartialSignature,
    },
    /// The combined commit certificate, leader to all: decision.
    Committed {
        /// The view.
        view: u64,
        /// Decided value.
        value: V,
        /// Its proof.
        proof: P,
        /// Combined threshold signature over the commit digest.
        tsig: ThresholdSignature,
    },
    /// Re-broadcast by deciders so stragglers catch up.
    Decided {
        /// The view the decision certificate comes from.
        view: u64,
        /// Decided value.
        value: V,
        /// Its proof.
        proof: P,
        /// The commit certificate.
        tsig: ThresholdSignature,
    },
}

impl<V: Words, P: Words> Words for QuadMsg<V, P> {
    fn words(&self) -> usize {
        match self {
            QuadMsg::ViewChange { prepared, .. } => 1 + prepared.as_ref().map_or(0, Words::words),
            QuadMsg::Propose {
                value,
                proof,
                justification,
                ..
            } => 1 + value.words() + proof.words() + justification.as_ref().map_or(0, Words::words),
            QuadMsg::PrepareVote { .. } | QuadMsg::CommitVote { .. } => 2,
            QuadMsg::Prepared(cert) => cert.words(),
            QuadMsg::Committed { value, proof, .. } | QuadMsg::Decided { value, proof, .. } => {
                2 + value.words() + proof.words()
            }
        }
    }
}

/// The external validity predicate `verify(v, Σ)` of a Quad deployment.
///
/// It takes `&mut self` because a predicate may remember what it has
/// already checked (Algorithm 1's [`crate::vector_auth::ProposalVerifier`]
/// does); every [`QuadCore`] owns its own, so one process's checks never
/// vouch for another's. Any `FnMut(&V, &P) -> bool` is one.
pub trait Verify<V, P> {
    /// Whether `(value, proof)` is a valid pair.
    fn verify(&mut self, value: &V, proof: &P) -> bool;
}

impl<V, P, F: FnMut(&V, &P) -> bool> Verify<V, P> for F {
    fn verify(&mut self, value: &V, proof: &P) -> bool {
        self(value, proof)
    }
}

/// The default predicate type: a boxed closure.
pub type QuadVerify<V, P> = Box<dyn FnMut(&V, &P) -> bool + Send>;

/// Configuration of one process's Quad instance.
pub struct QuadConfig<F> {
    /// Threshold scheme with `k = n − t`.
    pub scheme: ThresholdScheme,
    /// This process's signer.
    pub signer: Signer,
    /// The external validity predicate `verify(v, Σ)`.
    pub verify: F,
    /// Domain-separation label (distinct concurrent Quad instances must
    /// differ).
    pub label: &'static str,
}

impl<F> Debug for QuadConfig<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QuadConfig({})", self.label)
    }
}

/// The decision of Quad: a verified value–proof pair.
pub type QuadDecision<V, P> = (V, P);

/// The effect sink a Quad component writes into — the parent machine lends
/// it (a scratch-sink field of its own, borrowed directly, which the parent
/// then drains onto the outer wire type with [`StepSink::drain_map`]).
pub type QuadSink<V, P> = StepSink<QuadMsg<V, P>, QuadDecision<V, P>>;

/// The VIEW-CHANGE votes a leader collects for one view.
type ViewChangeVotes<V, P> = Vec<(ProcessId, Option<PreparedCert<V, P>>)>;

/// What a leader drives through a view: the proposed pair and the two
/// digests its followers vote on, hashed once at propose time.
struct Driving<V, P> {
    value: V,
    proof: P,
    prepare: Digest,
    commit: Digest,
}

/// How many `δ` a leader waits after entering a view before it proposes.
///
/// Waiting `2δ` lets a post-GST leader hear *every* correct process's
/// `VIEW-CHANGE`, so the highest lock any of them holds is among the votes
/// it chooses from — the defence against the hidden-lock liveness failure.
/// An eager leader (proposing on the first `n − t` view changes) stays
/// safe, since the lock rule carries safety, but a lock it did not hear can
/// cost it the view.
const LEADER_WAIT: u64 = 2;

/// One instance of Quad (a composable component).
pub struct QuadCore<V, P, F = QuadVerify<V, P>> {
    cfg: QuadConfig<F>,
    view: u64,
    proposal: Option<(V, P)>,
    lock: Option<PreparedCert<V, P>>,
    decided: bool,
    /// The last value hashed and its digest: a view's `Propose`, `Prepared`
    /// and `Committed` all carry the same value, so it is encoded and
    /// hashed once rather than once per message.
    hashed: Option<(V, Digest)>,
    value_hashes: u64,
    // follower vote bookkeeping
    voted_prepare: HashSet<u64>,
    voted_commit: HashSet<u64>,
    // leader bookkeeping: per-view VIEW-CHANGE votes with optional locks
    view_changes: HashMap<u64, ViewChangeVotes<V, P>>,
    leader_ready: HashSet<u64>,
    proposed: HashSet<u64>,
    driving: HashMap<u64, Driving<V, P>>,
    prepare_partials: HashMap<u64, Vec<PartialSignature>>,
    commit_partials: HashMap<u64, Vec<PartialSignature>>,
    prepared_sent: HashSet<u64>,
    committed_sent: HashSet<u64>,
}

impl<V, P, F> QuadCore<V, P, F>
where
    V: Clone + Eq + Debug + Codec + Words + 'static,
    P: Clone + Debug + Words + 'static,
    F: Verify<V, P>,
{
    /// Creates the instance; call [`QuadCore::start`] from the parent's
    /// `init` and [`QuadCore::propose`] when the input is available.
    pub fn new(cfg: QuadConfig<F>) -> Self {
        QuadCore {
            cfg,
            view: 0,
            proposal: None,
            lock: None,
            decided: false,
            hashed: None,
            value_hashes: 0,
            voted_prepare: HashSet::new(),
            voted_commit: HashSet::new(),
            view_changes: HashMap::new(),
            leader_ready: HashSet::new(),
            proposed: HashSet::new(),
            driving: HashMap::new(),
            prepare_partials: HashMap::new(),
            commit_partials: HashMap::new(),
            prepared_sent: HashSet::new(),
            committed_sent: HashSet::new(),
        }
    }

    /// This instance's `verify` predicate.
    pub fn verifier(&self) -> &F {
        &self.cfg.verify
    }

    /// Mutable access to the predicate: a parent whose own checks share the
    /// predicate's state (Algorithm 1's receipt check) runs them through it.
    pub fn verifier_mut(&mut self) -> &mut F {
        &mut self.cfg.verify
    }

    /// How many values this instance has encoded and hashed so far.
    pub fn value_hashes(&self) -> u64 {
        self.value_hashes
    }

    /// Whether this instance has decided.
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// Whether a proposal has been submitted.
    pub fn has_proposed(&self) -> bool {
        self.proposal.is_some()
    }

    fn leader(view: u64, env: &Env) -> ProcessId {
        ProcessId::from_index(((view - 1) as usize) % env.n())
    }

    fn view_timeout(view: u64, env: &Env) -> Time {
        (8 + 4 * view) * env.delta
    }

    /// Timer tags: even = view timeout, odd = leader proposal delay.
    fn timeout_tag(view: u64) -> u64 {
        view * 2
    }

    fn leader_tag(view: u64) -> u64 {
        view * 2 + 1
    }

    fn value_digest(&mut self, value: &V) -> Digest {
        if let Some((hashed, digest)) = &self.hashed {
            if hashed == value {
                return *digest;
            }
        }
        self.value_hashes += 1;
        let digest = sha256(value.encode());
        self.hashed = Some((value.clone(), digest));
        digest
    }

    fn phase_digest(&mut self, phase: &[u8], view: u64, value: &V) -> Digest {
        let value_digest = self.value_digest(value);
        let mut h = Sha256::new();
        h.update(self.cfg.label.as_bytes());
        h.update(phase);
        h.update(view.to_le_bytes());
        h.update(value_digest);
        h.finalize()
    }

    fn prepare_digest(&mut self, view: u64, value: &V) -> Digest {
        self.phase_digest(b"/prepare/", view, value)
    }

    fn commit_digest(&mut self, view: u64, value: &V) -> Digest {
        self.phase_digest(b"/commit/", view, value)
    }

    fn cert_valid(&mut self, cert: &PreparedCert<V, P>) -> bool {
        self.cfg.verify.verify(&cert.value, &cert.proof) && {
            let digest = self.prepare_digest(cert.view, &cert.value);
            self.cfg.scheme.verify(&digest, &cert.tsig)
        }
    }

    /// Starts participation (view 1). Call from the parent's `init`.
    pub fn start(&mut self, env: &Env, sink: &mut QuadSink<V, P>) {
        if self.view != 0 {
            return;
        }
        self.enter_view(1, env, sink);
    }

    /// Submits this process's input pair. May arrive after `start`.
    ///
    /// # Panics
    ///
    /// Panics if the pair does not satisfy `verify` (the paper assumes
    /// correct processes propose valid pairs).
    pub fn propose(&mut self, value: V, proof: P, env: &Env, sink: &mut QuadSink<V, P>) {
        assert!(
            self.cfg.verify.verify(&value, &proof),
            "correct processes propose only valid value-proof pairs"
        );
        self.proposal = Some((value, proof));
        if self.view == 0 {
            self.enter_view(1, env, sink);
        }
        // If we are a leader already waiting with view changes, try now.
        let v = self.view;
        if Self::leader(v, env) == env.id && self.leader_ready.contains(&v) {
            self.try_propose(v, env, sink);
        }
    }

    fn enter_view(&mut self, view: u64, env: &Env, sink: &mut QuadSink<V, P>) {
        if self.decided || view <= self.view {
            return;
        }
        self.view = view;
        sink.send(
            Self::leader(view, env),
            QuadMsg::ViewChange {
                view,
                prepared: self.lock.clone(),
            },
        );
        sink.timer(Self::view_timeout(view, env), Self::timeout_tag(view));
        if Self::leader(view, env) == env.id {
            sink.timer(LEADER_WAIT * env.delta, Self::leader_tag(view));
        }
    }

    /// Leader: propose once the wait elapsed and `n − t` view-changes are in.
    fn try_propose(&mut self, view: u64, env: &Env, sink: &mut QuadSink<V, P>) {
        if self.decided || self.proposed.contains(&view) || Self::leader(view, env) != env.id {
            return;
        }
        if !self.leader_ready.contains(&view) {
            return;
        }
        let vcs = self.view_changes.entry(view).or_default();
        if vcs.len() < env.quorum() {
            return;
        }
        // Highest prepared certificate among the view changes.
        let best = vcs
            .iter()
            .filter_map(|(_, c)| c.as_ref())
            .max_by_key(|c| c.view)
            .cloned();
        let (value, proof, justification) = match best {
            Some(cert) => (cert.value.clone(), cert.proof.clone(), Some(cert)),
            None => match &self.proposal {
                Some((v, p)) => (v.clone(), p.clone(), None),
                None => return, // no input yet: cannot lead this view
            },
        };
        self.proposed.insert(view);
        let driving = Driving {
            prepare: self.prepare_digest(view, &value),
            commit: self.commit_digest(view, &value),
            value: value.clone(),
            proof: proof.clone(),
        };
        self.driving.insert(view, driving);
        sink.broadcast(QuadMsg::Propose {
            view,
            value,
            proof,
            justification,
        });
    }

    /// Handles a message. `from` is the authenticated sender.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &QuadMsg<V, P>,
        env: &Env,
        sink: &mut QuadSink<V, P>,
    ) {
        if self.decided {
            return;
        }
        match msg {
            QuadMsg::ViewChange { view, prepared } => {
                let view = *view;
                if Self::leader(view, env) != env.id {
                    return;
                }
                if let Some(cert) = prepared {
                    if !self.cert_valid(cert) {
                        return;
                    }
                }
                let vcs = self.view_changes.entry(view).or_default();
                if vcs.iter().any(|(p, _)| *p == from) {
                    return;
                }
                vcs.push((from, prepared.clone()));
                // A leader lagging behind jumps to the view it must lead.
                if view > self.view {
                    self.enter_view(view, env, sink);
                }
                self.try_propose(view, env, sink);
            }
            QuadMsg::Propose {
                view,
                value,
                proof,
                justification,
            } => {
                let view = *view;
                if from != Self::leader(view, env) || view < self.view {
                    return;
                }
                if !self.cfg.verify.verify(value, proof) {
                    return;
                }
                if let Some(cert) = justification {
                    if !self.cert_valid(cert) || &cert.value != value || cert.view >= view {
                        return;
                    }
                }
                // Lock rule: never vote against a newer lock.
                if let Some(lock) = &self.lock {
                    let just_view = justification.as_ref().map_or(0, |c| c.view);
                    if just_view < lock.view && *value != lock.value {
                        return;
                    }
                }
                if !self.voted_prepare.insert(view) {
                    return;
                }
                if view > self.view {
                    self.enter_view(view, env, sink);
                }
                let digest = self.prepare_digest(view, value);
                let partial = self.cfg.scheme.partially_sign(&self.cfg.signer, &digest);
                sink.send(
                    Self::leader(view, env),
                    QuadMsg::PrepareVote { view, partial },
                );
            }
            QuadMsg::PrepareVote { view, partial } => {
                let view = *view;
                if Self::leader(view, env) != env.id || self.prepared_sent.contains(&view) {
                    return;
                }
                let Some(driving) = self.driving.get(&view) else {
                    return;
                };
                let digest = driving.prepare;
                if !self.cfg.scheme.verify_partial(&digest, partial) {
                    return;
                }
                let partials = self.prepare_partials.entry(view).or_default();
                if partials.iter().any(|p| p.signer() == partial.signer()) {
                    return;
                }
                partials.push(*partial);
                if partials.len() < env.quorum() {
                    return;
                }
                let tsig = self
                    .cfg
                    .scheme
                    .combine(&digest, partials.iter().copied())
                    .expect("verified distinct partials combine");
                self.prepared_sent.insert(view);
                sink.broadcast(QuadMsg::Prepared(PreparedCert {
                    view,
                    value: driving.value.clone(),
                    proof: driving.proof.clone(),
                    tsig,
                }));
            }
            QuadMsg::Prepared(cert) => {
                if !self.cert_valid(cert) {
                    return;
                }
                let view = cert.view;
                if view < self.view {
                    // stale certificate: still useful as a lock update
                    if self.lock.as_ref().is_none_or(|l| l.view < view) {
                        self.lock = Some(cert.clone());
                    }
                    return;
                }
                if view > self.view {
                    self.enter_view(view, env, sink);
                }
                if self.lock.as_ref().is_none_or(|l| l.view < view) {
                    self.lock = Some(cert.clone());
                }
                if self.voted_commit.insert(view) {
                    let digest = self.commit_digest(view, &cert.value);
                    let partial = self.cfg.scheme.partially_sign(&self.cfg.signer, &digest);
                    sink.send(
                        Self::leader(view, env),
                        QuadMsg::CommitVote { view, partial },
                    );
                }
            }
            QuadMsg::CommitVote { view, partial } => {
                let view = *view;
                if Self::leader(view, env) != env.id || self.committed_sent.contains(&view) {
                    return;
                }
                let Some(driving) = self.driving.get(&view) else {
                    return;
                };
                let digest = driving.commit;
                if !self.cfg.scheme.verify_partial(&digest, partial) {
                    return;
                }
                let partials = self.commit_partials.entry(view).or_default();
                if partials.iter().any(|p| p.signer() == partial.signer()) {
                    return;
                }
                partials.push(*partial);
                if partials.len() < env.quorum() {
                    return;
                }
                let tsig = self
                    .cfg
                    .scheme
                    .combine(&digest, partials.iter().copied())
                    .expect("verified distinct partials combine");
                self.committed_sent.insert(view);
                sink.broadcast(QuadMsg::Committed {
                    view,
                    value: driving.value.clone(),
                    proof: driving.proof.clone(),
                    tsig,
                });
            }
            QuadMsg::Committed {
                view,
                value,
                proof,
                tsig,
            }
            | QuadMsg::Decided {
                view,
                value,
                proof,
                tsig,
            } => {
                if !self.cfg.verify.verify(value, proof) {
                    return;
                }
                let digest = self.commit_digest(*view, value);
                if !self.cfg.scheme.verify(&digest, tsig) {
                    return;
                }
                self.decided = true;
                sink.broadcast(QuadMsg::Decided {
                    view: *view,
                    value: value.clone(),
                    proof: proof.clone(),
                    tsig: *tsig,
                });
                sink.output((value.clone(), proof.clone()));
                sink.halt();
            }
        }
    }

    /// Handles a namespaced timer.
    pub fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut QuadSink<V, P>) {
        if self.decided {
            return;
        }
        let view = tag / 2;
        if tag.is_multiple_of(2) {
            // view timeout: advance if still stuck in that view
            if view == self.view {
                self.enter_view(view + 1, env, sink);
            }
        } else {
            // leader proposal delay elapsed
            self.leader_ready.insert(view);
            self.try_propose(view, env, sink);
        }
    }
}

/// A standalone [`validity_simnet::Machine`] wrapper around [`QuadCore`] proposing a fixed
/// input at start — Quad as a directly runnable consensus (used by the
/// ablation experiments and available to library users who need Quad
/// without the vector-consensus layer).
pub struct QuadMachine<V, P> {
    core: QuadCore<V, P>,
    input: Option<(V, P)>,
}

impl<V, P> QuadMachine<V, P>
where
    V: Clone + Eq + Debug + Codec + Words + 'static,
    P: Clone + Debug + Words + 'static,
{
    /// Creates the machine; `input` is proposed at start.
    pub fn new(cfg: QuadConfig<QuadVerify<V, P>>, input: V, proof: P) -> Self {
        QuadMachine {
            core: QuadCore::new(cfg),
            input: Some((input, proof)),
        }
    }
}

impl<V, P> validity_simnet::Machine for QuadMachine<V, P>
where
    V: Clone + Eq + Debug + Codec + Words + Send + 'static,
    P: Clone + Debug + Words + Send + 'static,
    QuadMsg<V, P>: validity_simnet::Message,
{
    type Msg = QuadMsg<V, P>;
    type Output = QuadDecision<V, P>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.core.start(env, sink);
        if let Some((v, p)) = self.input.take() {
            self.core.propose(v, p, env, sink);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        self.core.on_message(from, msg, env, sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.core.on_timer(tag, env, sink);
    }
}

impl validity_simnet::Message for QuadMsg<u64, u64> {
    fn words(&self) -> usize {
        Words::words(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_crypto::KeyStore;
    use validity_simnet::{agreement_holds, Machine, NodeKind, Silent, SimConfig, Simulation};

    type Msg = QuadMsg<u64, u64>;

    /// Standalone machine: propose own value with a trivial always-true
    /// proof at start.
    struct QuadNode {
        core: QuadCore<u64, u64>,
        input: u64,
    }

    impl Machine for QuadNode {
        type Msg = Msg;
        type Output = (u64, u64);

        fn init(&mut self, env: &Env, sink: &mut StepSink<Msg, (u64, u64)>) {
            self.core.start(env, sink);
            self.core.propose(self.input, 0, env, sink);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &Msg,
            env: &Env,
            sink: &mut StepSink<Msg, (u64, u64)>,
        ) {
            self.core.on_message(from, msg, env, sink);
        }

        fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Msg, (u64, u64)>) {
            self.core.on_timer(tag, env, sink);
        }
    }

    fn build(n: usize, t: usize, byz: usize, seed: u64) -> Simulation<QuadNode> {
        let params = SystemParams::new(n, t).unwrap();
        let ks = KeyStore::new(n, seed);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes: Vec<NodeKind<QuadNode>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(QuadNode {
                        core: QuadCore::new(QuadConfig {
                            scheme: scheme.clone(),
                            signer: ks.signer(ProcessId(i as u32)),
                            verify: Box::new(|_, _| true),
                            label: "quad-test",
                        }),
                        input: 100 + i as u64,
                    })
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        Simulation::new(SimConfig::new(params).seed(seed), nodes)
    }

    #[test]
    fn all_correct_terminate_and_agree() {
        for seed in 0..3 {
            let mut sim = build(4, 1, 0, seed);
            let outcome = sim.run_until_decided();
            assert_eq!(outcome, validity_simnet::RunOutcome::AllDecided);
            assert!(agreement_holds(sim.decisions()));
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        for seed in 0..3 {
            let mut sim = build(4, 1, 1, seed);
            assert_eq!(
                sim.run_until_decided(),
                validity_simnet::RunOutcome::AllDecided
            );
            assert!(agreement_holds(sim.decisions()));
        }
    }

    #[test]
    fn larger_system() {
        let mut sim = build(7, 2, 2, 42);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
        // decided value is one of the correct inputs (verify is trivial but
        // values originate from proposals)
        let (v, _) = sim.decisions()[0].as_ref().unwrap().1;
        assert!((100..107).contains(&v));
    }

    #[test]
    fn silent_leader_of_view_one_is_replaced() {
        // P1 (leader of view 1) is Byzantine-silent; others must decide via
        // view change.
        let params = SystemParams::new(4, 1).unwrap();
        let ks = KeyStore::new(4, 9);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let mk = |i: usize| QuadNode {
            core: QuadCore::new(QuadConfig {
                scheme: scheme.clone(),
                signer: ks.signer(ProcessId(i as u32)),
                verify: Box::new(|_, _| true),
                label: "quad-test",
            }),
            input: i as u64,
        };
        let nodes: Vec<NodeKind<QuadNode>> = vec![
            NodeKind::Byzantine(Box::new(Silent)),
            NodeKind::Correct(mk(1)),
            NodeKind::Correct(mk(2)),
            NodeKind::Correct(mk(3)),
        ];
        let mut sim = Simulation::new(SimConfig::new(params).seed(9), nodes);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
    }

    #[test]
    fn message_complexity_is_subquadratic_in_views() {
        // Sanity: a failure-free n = 7 run stays well under n³ messages.
        let mut sim = build(7, 2, 0, 3);
        sim.run_until_decided();
        let msgs = sim.stats().messages_total;
        assert!(msgs < 7 * 7 * 7, "messages = {msgs}");
    }
}
