//! Instance multiplexing: many overlapping consensus instances ("slots")
//! hosted by **one** deterministic simulation.
//!
//! A repeated-consensus service decides a *stream* of slots, and a slot's
//! stragglers (late deliveries, retransmissions) overlap the next slot's
//! startup. [`Multiplex`] makes that a [`Machine`]: each node slot runs one
//! `Multiplex`, which owns a window of per-instance machines built on
//! demand from a factory, tags every outgoing message with its
//! [`InstanceId`] (the [`MuxMsg`] envelope — so queued events and slab
//! payloads carry the instance id), packs the instance into the high bits
//! of timer tags, and demultiplexes deliveries back to the owning
//! instance. The simulation engine itself is untouched: a multiplexed run
//! is an ordinary run whose message type happens to be an envelope, so
//! single-instance executions stay byte-identical to pre-multiplexing
//! `simnet` (the committed golden fingerprints pin this).
//!
//! # Slot lifecycle
//!
//! * **Open.** `init` opens the first `pipeline` slots. When a slot
//!   decides locally, the window slides: the next unopened slot starts
//!   immediately — while the decided slot's stragglers are still in
//!   flight. `pipeline = 1` degenerates to strictly sequential slots.
//! * **Deliver.** Messages for a not-yet-opened slot (a faster peer is
//!   ahead) are buffered and replayed, in arrival order, when the slot
//!   opens — and replay runs to a fixpoint, so a slot decided *during*
//!   replay (sliding the window again) has its own buffered messages
//!   replayed too. Messages for a halted slot are dropped.
//! * **Decide.** Each slot's first output is recorded as a
//!   [`SlotDecision`] (open time, decision time, output). When *all*
//!   slots have decided locally the multiplexer emits its single
//!   node-level output: a deterministic digest of the per-slot outputs in
//!   instance order — so [`crate::Simulation::run_until_decided`] and
//!   [`crate::agreement_holds`] apply unchanged to multiplexed runs.
//!
//! Decided-but-unhalted instance machines keep participating (helping
//! peers that have not decided yet), which is exactly the "stragglers
//! finish while the next slot runs" behaviour pipelining needs.

use std::fmt;

use validity_core::ProcessId;

use crate::node::{Env, Machine, Message};
use crate::sink::StepSink;
use crate::time::Time;

/// Identifies one consensus instance (slot) within a multiplexed run.
pub type InstanceId = u32;

/// Mask selecting the inner-tag half of a packed timer tag.
const TAG_MASK: u64 = (1 << 32) - 1;

/// Packs an instance id into the high 32 bits of a timer tag. Inner
/// protocols must keep their tags within 32 bits (every protocol in this
/// repository does). The check holds in release builds too — silently
/// truncating an oversized tag would corrupt the instance half and
/// misroute the timer, and packing happens when timers are *set*, far off
/// the per-event hot path.
pub fn pack_tag(instance: InstanceId, tag: u64) -> u64 {
    assert!(
        tag <= TAG_MASK,
        "inner timer tag {tag:#x} does not fit 32 bits under multiplexing"
    );
    ((instance as u64) << 32) | tag
}

/// Splits a packed timer tag back into `(instance, inner tag)`.
pub fn unpack_tag(tag: u64) -> (InstanceId, u64) {
    ((tag >> 32) as InstanceId, tag & TAG_MASK)
}

/// The multiplexing envelope: an inner protocol message tagged with the
/// instance it belongs to. The tag costs one word on the wire — a real
/// replicated service ships a slot number with every message, and the
/// accounting should say so.
#[derive(Clone, Debug)]
pub struct MuxMsg<M> {
    /// The instance (slot) this message belongs to.
    pub instance: InstanceId,
    /// The inner protocol message.
    pub inner: M,
}

impl<M: Message> Message for MuxMsg<M> {
    fn words(&self) -> usize {
        1 + self.inner.words()
    }
}

/// One slot's local decision, as observed by one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotDecision<O> {
    /// The instance that decided.
    pub instance: InstanceId,
    /// Local time at which this node opened the instance.
    pub opened_at: Time,
    /// Local time of this node's decision for the instance.
    pub decided_at: Time,
    /// The decided output.
    pub output: O,
}

/// Builds the machine for one instance. Boxed: a slot opens at most once
/// per node, so dynamic dispatch here is nowhere near the hot path.
pub type SlotFactory<M> = Box<dyn FnMut(InstanceId, &Env) -> M + Send>;

struct Slot<M: Machine> {
    id: InstanceId,
    opened_at: Time,
    decided: bool,
    machine: M,
}

/// A correct node of a repeated-consensus service: hosts a sliding window
/// of per-instance machines over one wire (see the module docs for the
/// slot lifecycle).
pub struct Multiplex<M: Machine> {
    factory: SlotFactory<M>,
    total: u32,
    pipeline: u32,
    /// Next instance id to open.
    next: InstanceId,
    /// Open instances (decided ones stay until they halt).
    slots: Vec<Slot<M>>,
    /// Buffered deliveries for instances not yet opened, in arrival order.
    pending: Vec<(InstanceId, ProcessId, M::Msg)>,
    /// Local decisions, in decision order.
    finished: Vec<SlotDecision<M::Output>>,
    /// Scratch sink lent to inner machines; reused across events.
    scratch: StepSink<M::Msg, M::Output>,
    /// Whether the node-level digest output has been emitted.
    emitted: bool,
}

impl<M: Machine> Multiplex<M> {
    /// A multiplexer deciding `total` slots with at most `pipeline`
    /// concurrently open *undecided* slots (clamped to ≥ 1).
    pub fn new(
        total: u32,
        pipeline: u32,
        factory: impl FnMut(InstanceId, &Env) -> M + Send + 'static,
    ) -> Self {
        Multiplex {
            factory: Box::new(factory),
            total,
            pipeline: pipeline.max(1),
            next: 0,
            slots: Vec::new(),
            pending: Vec::new(),
            finished: Vec::new(),
            scratch: StepSink::new(),
            emitted: false,
        }
    }

    /// This node's local slot decisions, in decision order.
    pub fn decisions(&self) -> &[SlotDecision<M::Output>] {
        &self.finished
    }

    /// Whether every slot has decided locally.
    pub fn all_decided(&self) -> bool {
        self.finished.len() as u32 == self.total
    }

    /// Number of instances opened so far.
    pub fn opened(&self) -> u32 {
        self.next
    }

    /// Open *undecided* instances — the quantity the pipeline window caps.
    fn open_undecided(&self) -> u32 {
        self.slots.iter().filter(|s| !s.decided).count() as u32
    }

    fn slot_index(&self, id: InstanceId) -> Option<usize> {
        self.slots.iter().position(|s| s.id == id)
    }

    /// Deterministic digest of the per-slot outputs in instance order —
    /// the multiplexer's node-level output. Each record is framed as
    /// `instance · output length · output bytes` (fixed-width
    /// little-endian prefixes) before folding into the FNV state, so the
    /// framing is prefix-free and distinct decision vectors cannot
    /// concatenate to the same byte stream. Equal across two nodes iff
    /// their per-slot decisions (rendered via `Debug`) are equal.
    fn digest(&self) -> u64 {
        let mut by_instance: Vec<&SlotDecision<M::Output>> = self.finished.iter().collect();
        by_instance.sort_by_key(|d| d.instance);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in by_instance {
            let out = format!("{:?}", d.output).into_bytes();
            for b in (d.instance as u64)
                .to_le_bytes()
                .into_iter()
                .chain((out.len() as u64).to_le_bytes())
                .chain(out)
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Drains the scratch sink for `id` into the outer sink, recording
    /// decisions and halts, then slides the pipeline window.
    fn drain_slot(&mut self, id: InstanceId, env: &Env, sink: &mut StepSink<MuxMsg<M::Msg>, u64>) {
        let mut decided_now = Vec::new();
        let mut halted_now = false;
        self.scratch.drain_map(
            sink,
            |m| MuxMsg {
                instance: id,
                inner: m,
            },
            |t| pack_tag(id, t),
            |o, _| decided_now.push(o),
            |_| halted_now = true,
        );

        for output in decided_now {
            let Some(i) = self.slot_index(id) else { break };
            if self.slots[i].decided {
                continue; // consumers care about the first output only
            }
            self.slots[i].decided = true;
            self.finished.push(SlotDecision {
                instance: id,
                opened_at: self.slots[i].opened_at,
                decided_at: env.now,
                output,
            });
        }
        if halted_now {
            if let Some(i) = self.slot_index(id) {
                self.slots.remove(i);
            }
        }
        self.refill(env, sink);
        if self.all_decided() && !self.emitted {
            self.emitted = true;
            sink.output(self.digest());
        }
        // Once every instance machine has halted there is nothing left to
        // drive: halt the multiplexer too, so the engine drops its pending
        // timers exactly as it would for the raw (un-multiplexed) machine.
        if self.emitted && self.slots.is_empty() && self.next == self.total {
            sink.halt();
        }
    }

    /// Opens instances until the pipeline window is full (or slots run
    /// out), then replays buffered deliveries for every opened instance.
    /// Replay can decide a slot immediately and slide the window again —
    /// hence the loop here and the fixpoint inside `replay_pending`.
    fn refill(&mut self, env: &Env, sink: &mut StepSink<MuxMsg<M::Msg>, u64>) {
        while self.next < self.total && self.open_undecided() < self.pipeline {
            let id = self.next;
            self.next += 1;
            let machine = (self.factory)(id, env);
            self.slots.push(Slot {
                id,
                opened_at: env.now,
                decided: false,
                machine,
            });
            let i = self.slots.len() - 1;
            self.slots[i].machine.init(env, &mut self.scratch);
            self.drain_slot(id, env, sink);
        }
        self.replay_pending(env, sink);
    }

    /// Delivers every buffered message whose instance has been opened, in
    /// arrival order, until none remain. Delivery can decide a slot and
    /// slide the window — opening further instances whose buffered
    /// messages then also become deliverable — so this re-scans
    /// `self.pending` to a fixpoint. (Replaying one instance's entries by
    /// draining a snapshot of the buffer is wrong: a nested window slide
    /// mid-replay only sees the entries already pushed back, stranding
    /// later entries for the newly opened slot forever.) Entries for
    /// opened-then-halted instances are dropped by `deliver`, and nothing
    /// reachable from here appends to the buffer, so the scan terminates.
    fn replay_pending(&mut self, env: &Env, sink: &mut StepSink<MuxMsg<M::Msg>, u64>) {
        loop {
            let next = self.next;
            let Some(pos) = self.pending.iter().position(|(pid, _, _)| *pid < next) else {
                return;
            };
            let (pid, from, msg) = self.pending.remove(pos);
            self.deliver(pid, from, &msg, env, sink);
        }
    }

    /// Routes one delivery to the owning open instance (drops it if the
    /// instance has halted or the id is out of range).
    fn deliver(
        &mut self,
        id: InstanceId,
        from: ProcessId,
        msg: &M::Msg,
        env: &Env,
        sink: &mut StepSink<MuxMsg<M::Msg>, u64>,
    ) {
        let Some(i) = self.slot_index(id) else { return };
        self.slots[i]
            .machine
            .on_message(from, msg, env, &mut self.scratch);
        self.drain_slot(id, env, sink);
    }
}

impl<M: Machine> Machine for Multiplex<M> {
    type Msg = MuxMsg<M::Msg>;
    type Output = u64;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        if self.total == 0 {
            // Degenerate service: nothing to decide. Emit the empty digest
            // so the run still terminates through the normal path.
            self.emitted = true;
            sink.output(self.digest());
            sink.halt();
            return;
        }
        self.refill(env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        let id = msg.instance;
        if self.slot_index(id).is_some() {
            self.deliver(id, from, &msg.inner, env, sink);
        } else if id >= self.next && id < self.total {
            // A faster peer is ahead of our window: buffer until we open.
            self.pending.push((id, from, msg.inner.clone()));
        }
        // Otherwise: halted or out-of-range instance — drop.
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let (id, inner_tag) = unpack_tag(tag);
        let Some(i) = self.slot_index(id) else { return };
        self.slots[i]
            .machine
            .on_timer(inner_tag, env, &mut self.scratch);
        self.drain_slot(id, env, sink);
    }
}

impl<M: Machine> fmt::Debug for Multiplex<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Multiplex")
            .field("total", &self.total)
            .field("pipeline", &self.pipeline)
            .field("opened", &self.next)
            .field("decided", &self.finished.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NodeKind, SimBuilder};
    use crate::Silent;
    use validity_core::SystemParams;

    #[derive(Clone, Debug)]
    struct Ping(u64);
    impl Message for Ping {}

    /// Broadcasts its input and decides on quorum receipt.
    #[derive(Clone, Debug)]
    struct Quorum {
        input: u64,
        heard: usize,
    }

    impl Machine for Quorum {
        type Msg = Ping;
        type Output = u64;

        fn init(&mut self, _env: &Env, sink: &mut StepSink<Ping, u64>) {
            sink.broadcast(Ping(self.input));
        }

        fn on_message(
            &mut self,
            _f: ProcessId,
            m: &Ping,
            env: &Env,
            sink: &mut StepSink<Ping, u64>,
        ) {
            self.heard += 1;
            debug_assert!(m.0 >= 100, "pings carry proposals of at least 100");
            if self.heard == env.quorum() {
                sink.output(self.input);
            }
        }
    }

    fn service_nodes(
        n: usize,
        correct: usize,
        slots: u32,
        pipeline: u32,
    ) -> Vec<NodeKind<Multiplex<Quorum>>> {
        (0..n)
            .map(|i| {
                if i < correct {
                    // Every node proposes the same per-slot value, so
                    // "decide own input at quorum" is a (degenerate but
                    // agreement-preserving) consensus per slot.
                    NodeKind::Correct(Multiplex::new(slots, pipeline, |id, _env: &Env| Quorum {
                        input: 100 * (id as u64 + 1),
                        heard: 0,
                    }))
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect()
    }

    #[test]
    fn tag_packing_roundtrips() {
        for (inst, tag) in [(0u32, 0u64), (1, 7), (250, TAG_MASK), (u32::MAX, 42)] {
            assert_eq!(unpack_tag(pack_tag(inst, tag)), (inst, tag));
        }
    }

    #[test]
    fn envelope_charges_one_word() {
        let m = MuxMsg {
            instance: 3,
            inner: Ping(0),
        };
        assert_eq!(m.words(), 2);
    }

    #[test]
    fn all_slots_decide_and_digests_agree() {
        let params = SystemParams::new(4, 1).unwrap();
        let mut sim = SimBuilder::new(params)
            .seed(5)
            .build(service_nodes(4, 3, 4, 2))
            .expect("valid configuration");
        sim.run_until_decided();
        assert!(sim.all_correct_decided());
        assert!(crate::agreement_holds(sim.decisions()));
        for i in 0..3 {
            let NodeKind::Correct(mux) = sim.node(ProcessId::from_index(i)) else {
                panic!("expected correct node");
            };
            assert!(mux.all_decided());
            assert_eq!(mux.decisions().len(), 4);
            // Slot k+1 opened no later than... in fact pipeline 2 means
            // slot 1 opened at time 0 alongside slot 0.
            let d: Vec<_> = mux.decisions().iter().collect();
            assert!(d.iter().any(|s| s.instance == 0 && s.opened_at == 0));
            assert!(d.iter().any(|s| s.instance == 1 && s.opened_at == 0));
        }
    }

    #[test]
    fn sequential_pipeline_opens_slots_in_order() {
        let params = SystemParams::new(4, 1).unwrap();
        let mut sim = SimBuilder::new(params)
            .seed(9)
            .build(service_nodes(4, 3, 3, 1))
            .expect("valid configuration");
        sim.run_until_decided();
        assert!(sim.all_correct_decided());
        let NodeKind::Correct(mux) = sim.node(ProcessId(0)) else {
            panic!("expected correct node");
        };
        let d = mux.decisions();
        assert_eq!(d.len(), 3);
        // With window 1, slot k+1 opens exactly when slot k decides locally.
        for w in d.windows(2) {
            assert_eq!(w[1].opened_at, w[0].decided_at);
            assert!(w[1].instance > w[0].instance);
        }
    }

    #[test]
    fn replay_survives_window_slides_with_interleaved_buffered_messages() {
        // Regression: replaying a newly opened slot can decide it and
        // slide the window *mid-replay*. The old snapshot-draining replay
        // stranded buffered entries for the next slot that sat *after*
        // the nested open in arrival order — the slot opened, its replay
        // ran against a partial buffer, and the stranded entries were
        // never delivered again. Drive the multiplexer directly: 3 slots,
        // window 1, with slot-1 and slot-2 messages interleaved in the
        // buffer before slot 0 decides.
        let params = SystemParams::new(4, 1).unwrap();
        let env = Env {
            id: ProcessId(0),
            params,
            now: 0,
            delta: 10,
        };
        let mut mux = Multiplex::new(3, 1, |id, _env: &Env| Quorum {
            input: 100 * (id as u64 + 1),
            heard: 0,
        });
        let mut sink = StepSink::new();
        mux.init(&env, &mut sink); // opens slot 0 only (window 1)
        assert_eq!(mux.opened(), 1);

        let msg = |instance, val| MuxMsg {
            instance,
            inner: Ping(val),
        };
        // Buffer a full quorum for slots 1 and 2, interleaved: every
        // slot-2 entry is separated from the next by a slot-1 entry, so
        // the nested slide (slot 1 decides during its replay, opening
        // slot 2) happens with slot-2 entries still in the taken buffer.
        for from in 1..=3u64 {
            mux.on_message(
                ProcessId::from_index(from as usize),
                &msg(1, 200),
                &env,
                &mut sink,
            );
            mux.on_message(
                ProcessId::from_index(from as usize),
                &msg(2, 300),
                &env,
                &mut sink,
            );
        }
        assert_eq!(mux.pending.len(), 6, "future-slot messages buffer");

        // Deliver slot 0's quorum. The third delivery decides slot 0,
        // opens slot 1, replays its quorum (deciding it), opens slot 2,
        // and must replay *all three* slot-2 entries — including the ones
        // after the nested open point.
        for from in 1..=3u64 {
            mux.on_message(
                ProcessId::from_index(from as usize),
                &msg(0, 100),
                &env,
                &mut sink,
            );
        }
        assert!(mux.all_decided(), "a buffered delivery was stranded");
        assert!(mux.pending.is_empty(), "replay must drain the buffer");
        let mut outputs: Vec<(InstanceId, u64)> = mux
            .decisions()
            .iter()
            .map(|d| (d.instance, d.output))
            .collect();
        outputs.sort_unstable();
        assert_eq!(outputs, vec![(0, 100), (1, 200), (2, 300)]);
    }

    #[test]
    fn single_instance_mux_is_behavior_transparent() {
        // A 1-slot multiplexed run sends the same messages in the same
        // order as the raw protocol run: identical event timing and
        // message counts; words differ by exactly the 1-word envelope.
        let params = SystemParams::new(4, 1).unwrap();
        let raw: Vec<NodeKind<Quorum>> = (0..4)
            .map(|i| {
                if i < 3 {
                    NodeKind::Correct(Quorum {
                        input: 100 + i as u64,
                        heard: 0,
                    })
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        let mut raw_sim = SimBuilder::new(params)
            .seed(11)
            .build(raw)
            .expect("valid configuration");
        raw_sim.run_until_decided();

        let mut mux_sim = SimBuilder::new(params)
            .seed(11)
            .build(service_nodes(4, 3, 1, 1))
            .expect("valid configuration");
        mux_sim.run_until_decided();

        assert_eq!(
            raw_sim.stats().messages_total,
            mux_sim.stats().messages_total
        );
        assert_eq!(
            mux_sim.stats().words_total,
            raw_sim.stats().words_total + raw_sim.stats().messages_total,
            "envelope must cost exactly one word per message"
        );
        assert_eq!(raw_sim.stats().last_decision_at, {
            let NodeKind::Correct(mux) = mux_sim.node(ProcessId(0)) else {
                panic!()
            };
            let _ = mux;
            mux_sim.stats().last_decision_at
        });
        // Decision *times* per node match the raw run exactly.
        for i in 0..3 {
            let raw_t = raw_sim.decisions()[i].as_ref().map(|(t, _)| *t);
            let NodeKind::Correct(mux) = mux_sim.node(ProcessId::from_index(i)) else {
                panic!()
            };
            assert_eq!(raw_t, Some(mux.decisions()[0].decided_at));
        }
    }

    #[test]
    fn empty_service_terminates_immediately() {
        let params = SystemParams::new(4, 1).unwrap();
        let mut sim = SimBuilder::new(params)
            .seed(1)
            .build(service_nodes(4, 3, 0, 4))
            .expect("valid configuration");
        sim.run_until_decided();
        assert!(sim.all_correct_decided());
        assert!(crate::agreement_holds(sim.decisions()));
    }

    #[test]
    fn pipeline_wider_than_slots_behaves_as_full_window() {
        // The window caps open *undecided* slots, so a pipeline wider
        // than the slot count cannot open more than `total` anyway:
        // pipeline = 8 (or u32::MAX) over 3 slots must reproduce the
        // pipeline = 3 execution exactly, with every slot open at time 0.
        let params = SystemParams::new(4, 1).unwrap();
        let run = |pipeline: u32| {
            let mut sim = SimBuilder::new(params)
                .seed(7)
                .build(service_nodes(4, 3, 3, pipeline))
                .expect("valid configuration");
            sim.run_until_decided();
            assert!(sim.all_correct_decided());
            let (messages, words, last) = {
                let s = sim.stats();
                (s.messages_total, s.words_total, s.last_decision_at)
            };
            let NodeKind::Correct(mux) = sim.node(ProcessId(0)) else {
                panic!("expected correct node");
            };
            (messages, words, last, mux.decisions().to_vec())
        };
        let exact = run(3);
        let wider = run(8);
        let max = run(u32::MAX);
        assert_eq!(exact, wider);
        assert_eq!(exact, max);
        assert!(
            exact.3.iter().all(|d| d.opened_at == 0),
            "a window covering every slot opens them all at init"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Generalizes `replay_survives_window_slides_with_interleaved_-
        /// buffered_messages`: for *any* arrival order of the buffered
        /// quorums of 3–5 future slots (window 1, so every one of them
        /// triggers a nested window slide during replay), the replay
        /// fixpoint must deliver everything — all slots decided, buffer
        /// drained, every output correct.
        #[test]
        fn replay_reaches_fixpoint_for_any_buffer_interleaving(
            seed in proptest::prelude::any::<u64>(),
            slots in 3u32..6,
        ) {
            let params = SystemParams::new(4, 1).unwrap();
            let env = Env {
                id: ProcessId(0),
                params,
                now: 0,
                delta: 10,
            };
            let mut mux = Multiplex::new(slots, 1, |id, _env: &Env| Quorum {
                input: 100 * (id as u64 + 1),
                heard: 0,
            });
            let mut sink = StepSink::new();
            mux.init(&env, &mut sink); // opens slot 0 only (window 1)
            proptest::prop_assert_eq!(mux.opened(), 1);

            // A full quorum for every future slot, shuffled into an
            // arbitrary arrival order by a seeded Fisher–Yates (splitmix64
            // underneath, so the case is a pure function of `seed`).
            let mut entries: Vec<(InstanceId, usize)> = (1..slots)
                .flat_map(|inst| (1..=3usize).map(move |from| (inst, from)))
                .collect();
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for i in (1..entries.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                entries.swap(i, j);
            }
            for &(inst, from) in &entries {
                mux.on_message(
                    ProcessId::from_index(from),
                    &MuxMsg {
                        instance: inst,
                        inner: Ping(100 * (inst as u64 + 1)),
                    },
                    &env,
                    &mut sink,
                );
            }
            proptest::prop_assert_eq!(mux.pending.len(), entries.len());

            // Slot 0's quorum sets off the cascade: decide slot 0, open
            // slot 1, replay its buffered quorum (deciding it and sliding
            // the window again), and so on through every future slot.
            for from in 1..=3usize {
                mux.on_message(
                    ProcessId::from_index(from),
                    &MuxMsg {
                        instance: 0,
                        inner: Ping(100),
                    },
                    &env,
                    &mut sink,
                );
            }
            proptest::prop_assert!(mux.all_decided(), "a buffered delivery was stranded");
            proptest::prop_assert!(mux.pending.is_empty(), "replay must drain the buffer");
            let mut outputs: Vec<(InstanceId, u64)> = mux
                .decisions()
                .iter()
                .map(|d| (d.instance, d.output))
                .collect();
            outputs.sort_unstable();
            let expected: Vec<(InstanceId, u64)> =
                (0..slots).map(|i| (i, 100 * (i as u64 + 1))).collect();
            proptest::prop_assert_eq!(outputs, expected);
        }
    }
}
