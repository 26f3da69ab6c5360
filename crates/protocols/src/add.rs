//! ADD — Asynchronous Data Dissemination (Das–Xiang–Ren \[36\]), the
//! `O(n² log n)`-bit data-spreading primitive used by Algorithm 6
//! (Appendix B.3.2).
//!
//! Problem: a data blob `M` is the input of at least `t + 1` correct
//! processes; every other correct process inputs `⊥`. Every correct process
//! must output `M`.
//!
//! Protocol (hash-free, coding-based):
//!
//! 1. **Disperse** — every process holding `M` Reed–Solomon-encodes it with
//!    a `(t + 1, n)` code and sends the `j`-th fragment to `P_j`.
//! 2. A process fixes its own fragment once `t + 1` *identical* copies
//!    arrive (at most `t` liars, so `t + 1` matches are authentic); holders
//!    of `M` fix theirs directly.
//! 3. **Reconstruct** — every process broadcasts its own fragment once
//!    fixed; receivers run *online error correction*: with `m` fragments in
//!    hand, try Berlekamp–Welch with error budget `e = 0, 1, ..., t`
//!    whenever `m ≥ (t + 1) + 2e` and `m − e ≥ 2t + 1`, and output on the
//!    first consistent decode. A process that reconstructs before fixing
//!    its fragment derives it from the decoded blob so its echo still goes
//!    out.
//!
//! Echoes are grouped by length as they arrive, one per sender: fragments of
//! the true blob all have one row count, so an echo of another length is
//! Byzantine and would only count against the error budget. An attempt
//! decodes the largest group (between equally large ones, the longest
//! length, whatever order the echoes came in) with one
//! [`ReedSolomon::decode_blob`] call at the largest budget step 3 allows,
//! `e = min(t, ⌊(m − t − 1)/2⌋, m − 2t − 1)`. That call tries
//! `e′ = 0, 1, …, e` on each row and keeps the first success, and a row's
//! codeword within `e′` of `m ≥ (t + 1) + 2e` fragments is its only one
//! within `e`, so it outputs exactly what the first successful smaller
//! budget would. A group is decoded once per echo it gains (and again only
//! when an echo of another length arrives, which only a Byzantine process
//! sends); a sender's second echo does no work.

use std::collections::{BTreeMap, HashMap};

use validity_core::{ProcessId, ProcessSet};
use validity_crypto::{ReedSolomon, Share};
use validity_simnet::{Env, StepSink};

use crate::codec::{bytes_to_words, Words};

/// Wire messages of ADD.
#[derive(Clone, Debug)]
pub enum AddMsg {
    /// Phase 1: a fragment addressed to its owner (`share.index` =
    /// recipient).
    Fragment(Share),
    /// Phase 2: the sender's own fragment, broadcast (`share.index` =
    /// sender).
    Echo(Share),
}

impl Words for AddMsg {
    fn words(&self) -> usize {
        match self {
            AddMsg::Fragment(s) | AddMsg::Echo(s) => 1 + bytes_to_words(s.data.len()),
        }
    }
}

/// One ADD instance (a composable component). Output: the blob `M`.
pub struct Add {
    rs: ReedSolomon,
    started: bool,
    /// This process's fragment, once fixed; it was echoed when fixed.
    my_fragment: Option<Vec<u8>>,
    fragment_votes: HashMap<Vec<u8>, ProcessSet>,
    echoers: ProcessSet,
    /// Echoes by fragment length, in arrival order.
    echoes: BTreeMap<usize, Vec<Share>>,
    delivered: bool,
}

impl Add {
    /// Creates the instance for an `(t + 1, n)` code.
    ///
    /// # Panics
    ///
    /// Panics if `n > 256` (GF(2⁸) limit) or parameters are degenerate.
    pub fn new(env_n: usize, env_t: usize) -> Self {
        let rs = ReedSolomon::new(env_t + 1, env_n).expect("valid (t+1, n) code");
        Add {
            rs,
            started: false,
            my_fragment: None,
            fragment_votes: HashMap::new(),
            echoers: ProcessSet::new(),
            echoes: BTreeMap::new(),
            delivered: false,
        }
    }

    /// Whether the blob has been output.
    pub fn has_delivered(&self) -> bool {
        self.delivered
    }

    /// Supplies this process's input: `Some(M)` or `None` (= `⊥`).
    pub fn input(
        &mut self,
        blob: Option<Vec<u8>>,
        env: &Env,
        sink: &mut StepSink<AddMsg, Vec<u8>>,
    ) {
        assert!(!self.started, "input exactly once");
        self.started = true;
        if let Some(blob) = blob {
            let mut shares = self.rs.encode_blob(&blob);
            for share in &shares {
                if share.index != env.id.index() {
                    sink.send(
                        ProcessId::from_index(share.index),
                        AddMsg::Fragment(share.clone()),
                    );
                }
            }
            // A holder of M knows its own fragment authentically.
            let mine = shares.swap_remove(env.id.index()).data;
            self.fix_fragment(mine, env, sink);
        }
        self.try_reconstruct(env, sink);
    }

    /// Handles an ADD message.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &AddMsg,
        env: &Env,
        sink: &mut StepSink<AddMsg, Vec<u8>>,
    ) {
        match msg {
            AddMsg::Fragment(share) => {
                // Only fragments addressed to me count, one vote per sender.
                if share.index != env.id.index() || self.my_fragment.is_some() {
                    return;
                }
                let votes = self.fragment_votes.entry(share.data.clone()).or_default();
                if !votes.insert(from) {
                    return;
                }
                if votes.len() > env.t() {
                    self.fix_fragment(share.data.clone(), env, sink);
                }
            }
            AddMsg::Echo(share) => {
                // Each process may echo exactly one fragment: its own index.
                if share.index != from.index() || !self.echoers.insert(from) {
                    return;
                }
                self.echoes
                    .entry(share.data.len())
                    .or_default()
                    .push(share.clone());
                self.try_reconstruct(env, sink);
            }
        }
    }

    /// Fixes this process's fragment, unless it already has one, and echoes
    /// it at its own index.
    fn fix_fragment(&mut self, data: Vec<u8>, env: &Env, sink: &mut StepSink<AddMsg, Vec<u8>>) {
        if self.my_fragment.is_some() {
            return;
        }
        sink.broadcast(AddMsg::Echo(Share {
            index: env.id.index(),
            data: data.clone(),
        }));
        self.my_fragment = Some(data);
    }

    /// Online error correction over the largest echo group (module docs).
    fn try_reconstruct(&mut self, env: &Env, sink: &mut StepSink<AddMsg, Vec<u8>>) {
        if self.delivered || !self.started {
            return;
        }
        // `max_by_key` keeps the last of equal maxima: the longest length.
        let Some(shares) = self.echoes.values().max_by_key(|v| v.len()) else {
            return;
        };
        let (t, m) = (env.t(), shares.len());
        if m < 2 * t + 1 {
            return;
        }
        let e = t.min((m - t - 1) / 2).min(m - 2 * t - 1);
        let Ok(blob) = self.rs.decode_blob(shares, e) else {
            return;
        };
        self.delivered = true;
        // Ensure our echo still goes out (derive the fragment from the
        // reconstructed blob if we never fixed one).
        if self.my_fragment.is_none() {
            let mine = self.rs.encode_blob(&blob).swap_remove(env.id.index()).data;
            self.fix_fragment(mine, env, sink);
        }
        sink.output(blob);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{Machine, Message, NodeKind, Silent, SimBuilder, Step};

    impl Message for AddMsg {
        fn words(&self) -> usize {
            Words::words(self)
        }
    }

    struct AddNode {
        add: Add,
        input: Option<Vec<u8>>,
    }

    impl Machine for AddNode {
        type Msg = AddMsg;
        type Output = Vec<u8>;

        fn init(&mut self, env: &Env, sink: &mut StepSink<AddMsg, Vec<u8>>) {
            self.add.input(self.input.clone(), env, sink);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &AddMsg,
            env: &Env,
            sink: &mut StepSink<AddMsg, Vec<u8>>,
        ) {
            self.add.on_message(from, msg, env, sink);
        }
    }

    fn run(n: usize, t: usize, holders: usize, byz: usize, blob: &[u8], seed: u64) {
        let params = SystemParams::new(n, t).unwrap();
        let nodes: Vec<NodeKind<AddNode>> = (0..n)
            .map(|i| {
                if i >= n - byz {
                    NodeKind::Byzantine(Box::new(Silent))
                } else {
                    NodeKind::Correct(AddNode {
                        add: Add::new(n, t),
                        input: (i < holders).then(|| blob.to_vec()),
                    })
                }
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(seed)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided,
            "ADD did not terminate (n={n}, t={t}, holders={holders}, byz={byz})"
        );
        for d in sim.decisions().iter().take(n - byz) {
            assert_eq!(d.as_ref().unwrap().1, blob.to_vec(), "wrong blob output");
        }
    }

    #[test]
    fn all_holders_reconstruct_trivially() {
        run(4, 1, 4, 0, b"hello add", 1);
    }

    #[test]
    fn minimum_holders_suffice() {
        // exactly t + 1 correct holders
        run(4, 1, 2, 0, b"minimum holders", 2);
        run(7, 2, 3, 0, b"minimum holders large", 3);
    }

    #[test]
    fn works_with_silent_byzantine() {
        run(4, 1, 2, 1, b"byzantine silent", 4);
        run(7, 2, 3, 2, b"byzantine silent large", 5);
    }

    #[test]
    fn large_blob_roundtrip() {
        let blob: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        run(7, 2, 3, 2, &blob, 6);
    }

    /// A Byzantine process that echoes garbage at its own index — the OEC
    /// path must correct it.
    struct LyingEchoer;

    impl validity_simnet::Byzantine<AddMsg> for LyingEchoer {
        fn init(&mut self, env: &Env, sink: &mut validity_simnet::ByzSink<AddMsg>) {
            sink.broadcast(AddMsg::Echo(Share {
                index: env.id.index(),
                data: vec![0xde, 0xad],
            }));
        }
    }

    #[test]
    fn corrects_lying_echoes() {
        let n = 7;
        let t = 2;
        let params = SystemParams::new(n, t).unwrap();
        let blob = b"resist the liars".to_vec();
        let nodes: Vec<NodeKind<AddNode>> = (0..n)
            .map(|i| {
                if i >= n - 2 {
                    NodeKind::Byzantine(Box::new(LyingEchoer))
                } else {
                    NodeKind::Correct(AddNode {
                        add: Add::new(n, t),
                        input: (i < 3).then(|| blob.clone()),
                    })
                }
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(7)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        for d in sim.decisions().iter().take(5) {
            assert_eq!(d.as_ref().unwrap().1, blob);
        }
    }

    /// Two echo lengths tie: three fragments of the blob against three
    /// Byzantine fragments of a shorter one — more than `t`, so both groups
    /// reach the decode threshold — all arriving before the input, so a
    /// single reconstruction attempt sees the tie. Every fresh instance,
    /// whichever group's echo comes first, must pick the longer group.
    #[test]
    fn tied_echo_lengths_resolve_the_same_way_every_time() {
        let (n, t) = (7, 1);
        let rs = ReedSolomon::new(t + 1, n).unwrap();
        let blob = b"the blob every instance outputs".to_vec();
        let (long, short) = (rs.encode_blob(&blob), rs.encode_blob(b"liar"));
        assert!(short[0].data.len() < long[0].data.len());
        let env = Env {
            id: ProcessId::from_index(6),
            params: SystemParams::new(n, t).unwrap(),
            now: 0,
            delta: 1,
        };
        for instance in 0..32 {
            let mut add = Add::new(n, t);
            let mut sink = StepSink::new();
            for i in 0..3 {
                let mut pair = [&long[i], &short[i + 3]];
                if instance % 2 == 1 {
                    pair.reverse();
                }
                for share in pair {
                    let from = ProcessId::from_index(share.index);
                    add.on_message(from, &AddMsg::Echo(share.clone()), &env, &mut sink);
                }
            }
            assert!(!add.has_delivered());
            add.input(None, &env, &mut sink);
            let outputs: Vec<Vec<u8>> = sink
                .drain()
                .filter_map(|s| match s {
                    Step::Output(b) => Some(b),
                    _ => None,
                })
                .collect();
            assert_eq!(outputs, std::slice::from_ref(&blob), "instance {instance}");
        }
    }
}
