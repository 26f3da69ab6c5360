//! Algorithm 3's two substrates against the implementations they replaced.
//!
//! [`RefDbft`] and [`RefBrb`] are the hash-map versions of `DbftBinary` and
//! `BrbInstance` — one look-up helper per question, nothing shared between
//! questions — kept here as the reference. Both sides are driven with the
//! same random interleaving of proposals, messages and timers, hostile input
//! included, and must emit the same steps after every single event.
//!
//! Two deliberate differences from what was replaced:
//!
//! * the reference sorts the rounds of the BV echo rule before emitting
//!   (the hash map's own order differed from run to run);
//! * `BrbInstance` counts only each sender's first `ECHO` and first `READY`,
//!   so on sequences with re-votes it must equal the reference fed
//!   everything *but* the re-votes, and be silent on those.
//!
//! The vendored proptest does not shrink, so each case is a `(system, seed)`
//! pair and a failure prints the seed and the whole event list.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_protocols::{BrbInstance, BrbMsg, DbftBinary, DbftMsg};
use validity_simnet::{Env, Step, StepSink, Time};

const SYSTEMS: [(usize, usize); 3] = [(4, 1), (7, 2), (10, 3)];

/// Rounds a message may name: the first four, and the two largest.
const ROUNDS: [u32; 6] = [1, 2, 3, 4, u32::MAX - 1, u32::MAX];

fn env(system: usize, id: usize) -> Env {
    let (n, t) = SYSTEMS[system];
    Env {
        id: ProcessId::from_index(id),
        params: SystemParams::new(n, t).unwrap(),
        now: 0,
        delta: 10,
    }
}

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// Empties a sink into a comparable form (`Step` has no `PartialEq`).
fn taken<M: Debug, O: Debug>(sink: &mut StepSink<M, O>) -> Vec<String> {
    sink.drain().map(|s| format!("{s:?}")).collect()
}

// ---------------------------------------------------------------- DBFT ----

#[derive(Clone, Debug, Default)]
struct RefRound {
    est_seen: [ProcessSet; 2],
    est_echoed: [bool; 2],
    coord_value: Option<bool>,
    aux_from: [ProcessSet; 2],
    aux_sent: bool,
    timer_set: bool,
    timer_fired: bool,
    coord_sent: bool,
}

#[derive(Default)]
struct RefDbft {
    started: bool,
    est: bool,
    round: u32,
    rounds: HashMap<u32, RefRound>,
    done_votes: [ProcessSet; 2],
    decided: Option<bool>,
    halted: bool,
}

impl RefDbft {
    fn coordinator(r: u32, env: &Env) -> ProcessId {
        ProcessId::from_index(((r - 1) as usize) % env.n())
    }

    fn timeout(r: u32, env: &Env) -> Time {
        (3 + r as Time) * env.delta
    }

    fn state(&mut self, r: u32) -> &mut RefRound {
        self.rounds.entry(r).or_default()
    }

    fn est_support(&self, r: u32, v: bool) -> ProcessSet {
        let base = self
            .rounds
            .get(&r)
            .map(|s| s.est_seen[v as usize])
            .unwrap_or_default();
        base.union(self.done_votes[v as usize])
    }

    fn aux_support(&self, r: u32, v: bool) -> ProcessSet {
        let base = self
            .rounds
            .get(&r)
            .map(|s| s.aux_from[v as usize])
            .unwrap_or_default();
        base.union(self.done_votes[v as usize])
    }

    fn in_bin_values(&self, r: u32, v: bool, env: &Env) -> bool {
        self.est_support(r, v).len() > 2 * env.t()
    }

    fn propose(&mut self, value: bool, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        assert!(!self.started);
        self.started = true;
        self.est = value;
        self.round = 1;
        self.poll(env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &DbftMsg,
        env: &Env,
        sink: &mut StepSink<DbftMsg, bool>,
    ) {
        if self.halted {
            return;
        }
        match *msg {
            DbftMsg::Est { round, value } => {
                self.state(round).est_seen[value as usize].insert(from);
            }
            DbftMsg::Aux { round, value } => {
                self.state(round).aux_from[value as usize].insert(from);
            }
            DbftMsg::Coord { round, value } => {
                if from == Self::coordinator(round, env) {
                    let s = self.state(round);
                    if s.coord_value.is_none() {
                        s.coord_value = Some(value);
                    }
                }
            }
            DbftMsg::Done { value } => {
                self.done_votes[value as usize].insert(from);
            }
        }
        self.poll(env, sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        if self.halted {
            return;
        }
        self.state(tag as u32).timer_fired = true;
        self.poll(env, sink);
    }

    fn poll(&mut self, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        if self.halted {
            return;
        }
        for v in [false, true] {
            if self.done_votes[v as usize].len() > env.t() {
                return self.decide(v, sink);
            }
        }
        if !self.started {
            return;
        }
        loop {
            let r = self.round;
            let est = self.est;
            if !self.state(r).est_echoed[est as usize] {
                self.state(r).est_echoed[est as usize] = true;
                sink.broadcast(DbftMsg::Est {
                    round: r,
                    value: est,
                });
            }

            let mut rounds_with_data: Vec<u32> = self.rounds.keys().copied().collect();
            rounds_with_data.sort_unstable();
            for r2 in rounds_with_data {
                for v in [false, true] {
                    if self.est_support(r2, v).len() > env.t()
                        && !self.state(r2).est_echoed[v as usize]
                    {
                        self.state(r2).est_echoed[v as usize] = true;
                        sink.broadcast(DbftMsg::Est {
                            round: r2,
                            value: v,
                        });
                    }
                }
            }

            let bin0 = self.in_bin_values(r, false, env);
            let bin1 = self.in_bin_values(r, true, env);
            if !(bin0 || bin1) {
                break;
            }
            if Self::coordinator(r, env) == env.id && !self.state(r).coord_sent {
                self.state(r).coord_sent = true;
                sink.broadcast(DbftMsg::Coord {
                    round: r,
                    value: bin1,
                });
            }
            if !self.state(r).timer_set {
                self.state(r).timer_set = true;
                sink.timer(Self::timeout(r, env), r as u64);
            }
            if self.state(r).timer_fired && !self.state(r).aux_sent {
                let coord = self.state(r).coord_value;
                let value = match coord {
                    Some(v) if self.in_bin_values(r, v, env) => v,
                    _ => bin1,
                };
                self.state(r).aux_sent = true;
                sink.broadcast(DbftMsg::Aux { round: r, value });
            }
            if !self.state(r).aux_sent {
                break;
            }

            let mut senders = ProcessSet::new();
            let mut values = [false, false];
            for v in [false, true] {
                if self.in_bin_values(r, v, env) {
                    let s = self.aux_support(r, v);
                    if !s.is_empty() {
                        senders = senders.union(s);
                        values[v as usize] = true;
                    }
                }
            }
            if senders.len() < env.quorum() {
                break;
            }
            let favored = r % 2 == 1;
            match (values[0], values[1]) {
                (true, false) | (false, true) => {
                    let v = values[1];
                    self.est = v;
                    if v == favored {
                        return self.decide(v, sink);
                    }
                }
                _ => self.est = favored,
            }
            self.round = r + 1;
        }
    }

    fn decide(&mut self, v: bool, sink: &mut StepSink<DbftMsg, bool>) {
        if self.decided.is_none() {
            self.decided = Some(v);
            sink.broadcast(DbftMsg::Done { value: v });
            sink.output(v);
        }
        self.halted = true;
    }
}

#[derive(Clone, Copy, Debug)]
enum DbftEvent {
    Propose(bool),
    Msg(ProcessId, DbftMsg),
    Timer(u64),
}

/// One hostile-but-productive schedule for the process `id`: a majority
/// value and low rounds are favoured so thresholds are actually crossed,
/// with duplicates, huge rounds, `Coord` from anybody, `Done` bursts and
/// timers for rounds nobody mentioned mixed in.
fn dbft_events(system: usize, seed: u64) -> (usize, Vec<DbftEvent>) {
    let (n, _) = SYSTEMS[system];
    let rng = &mut TestRng::from_seed(seed);
    let id = rng.below(n as u64) as usize;
    let majority = chance(rng, 50);
    let done_percent = pick(rng, &[0, 2, 10]);
    let mut proposed = false;
    let mut events = Vec::new();
    for _ in 0..rng.below(40 * n as u64) {
        let from = ProcessId::from_index(rng.below(n as u64) as usize);
        let value = majority ^ chance(rng, 20);
        let round = if chance(rng, 75) {
            pick(rng, &ROUNDS[..2])
        } else {
            pick(rng, &ROUNDS)
        };
        let event = match rng.below(100) {
            0..=4 if !proposed => {
                proposed = true;
                DbftEvent::Propose(value)
            }
            0..=11 => DbftEvent::Timer(if chance(rng, 80) {
                round as u64
            } else {
                pick(rng, &[0, 9, 1 << 32, u64::MAX])
            }),
            12..=19 => {
                let from = if chance(rng, 50) {
                    RefDbft::coordinator(round, &env(system, id))
                } else {
                    from
                };
                DbftEvent::Msg(from, DbftMsg::Coord { round, value })
            }
            x if x < 20 + done_percent => DbftEvent::Msg(from, DbftMsg::Done { value }),
            x if x < 65 => DbftEvent::Msg(from, DbftMsg::Est { round, value }),
            _ => DbftEvent::Msg(from, DbftMsg::Aux { round, value }),
        };
        events.push(event);
        if chance(rng, 10) {
            events.push(event); // an exact duplicate, back to back
        }
    }
    // A repeated `Propose` would trip the instances' own assertion.
    let mut seen = false;
    events.retain(|e| !matches!(e, DbftEvent::Propose(_)) || !std::mem::replace(&mut seen, true));
    (id, events)
}

/// What a DBFT schedule made the instance under test do.
#[derive(Default, Debug)]
struct Reached {
    decided: usize,
    second_round: usize,
    coord: usize,
    aux: usize,
    multi_echo: usize,
}

/// Drives both implementations through `events`, comparing after each one
/// and adding what the instance did to `reached`.
fn dbft_differential(
    system: usize,
    id: usize,
    events: &[DbftEvent],
    reached: &mut Reached,
) -> Result<(), String> {
    let env = env(system, id);
    let (mut new, mut old) = (DbftBinary::new(), RefDbft::default());
    let (mut new_sink, mut old_sink) = (StepSink::new(), StepSink::new());
    for (k, event) in events.iter().enumerate() {
        match *event {
            DbftEvent::Propose(v) => {
                new.propose(v, &env, &mut new_sink);
                old.propose(v, &env, &mut old_sink);
            }
            DbftEvent::Msg(from, msg) => {
                new.on_message(from, &msg, &env, &mut new_sink);
                old.on_message(from, &msg, &env, &mut old_sink);
            }
            DbftEvent::Timer(tag) => {
                new.on_timer(tag, &env, &mut new_sink);
                old.on_timer(tag, &env, &mut old_sink);
            }
        }
        let mut echoes = 0;
        for step in new_sink.steps() {
            match step {
                Step::Broadcast(DbftMsg::Est { .. }) => echoes += 1,
                Step::Output(_) => reached.decided += 1,
                Step::Broadcast(DbftMsg::Coord { .. }) => reached.coord += 1,
                Step::Broadcast(DbftMsg::Aux { round, .. }) => {
                    reached.aux += 1;
                    reached.second_round += (*round >= 2) as usize;
                }
                _ => {}
            }
        }
        reached.multi_echo += (echoes >= 2) as usize;
        let (got, want) = (taken(&mut new_sink), taken(&mut old_sink));
        if got != want {
            return Err(format!(
                "event {k} ({event:?}): emitted {got:?}, reference {want:?}"
            ));
        }
        if (new.decided(), new.has_proposed()) != (old.decided, old.started) {
            return Err(format!("event {k} ({event:?}): observers differ"));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------- BRB ----

struct RefBrb<P> {
    sender: ProcessId,
    echoed: bool,
    sent_ready: bool,
    delivered: bool,
    echoes: HashMap<P, ProcessSet>,
    readies: HashMap<P, ProcessSet>,
}

impl<P: Clone + Eq + Hash> RefBrb<P> {
    fn new(sender: ProcessId) -> Self {
        RefBrb {
            sender,
            echoed: false,
            sent_ready: false,
            delivered: false,
            echoes: HashMap::new(),
            readies: HashMap::new(),
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &BrbMsg<P>,
        env: &Env,
        sink: &mut StepSink<BrbMsg<P>, P>,
    ) {
        let echo_threshold = (env.n() + env.t() + 1).div_ceil(2);
        match msg {
            BrbMsg::Init(p) => {
                if from == self.sender && !self.echoed {
                    self.echoed = true;
                    sink.broadcast(BrbMsg::Echo(p.clone()));
                }
            }
            BrbMsg::Echo(p) => {
                let set = self.echoes.entry(p.clone()).or_default();
                if set.insert(from) && set.len() >= echo_threshold && !self.sent_ready {
                    self.sent_ready = true;
                    sink.broadcast(BrbMsg::Ready(p.clone()));
                }
            }
            BrbMsg::Ready(p) => {
                let set = self.readies.entry(p.clone()).or_default();
                if set.insert(from) {
                    let count = set.len();
                    if count > env.t() && !self.sent_ready {
                        self.sent_ready = true;
                        sink.broadcast(BrbMsg::Ready(p.clone()));
                    }
                    if count > 2 * env.t() && !self.delivered {
                        self.delivered = true;
                        sink.output(p.clone());
                    }
                }
            }
        }
    }
}

type BrbEvent = (ProcessId, BrbMsg<u8>);

/// A schedule for one BRB instance at process `id` with designated sender
/// `sender`: `INIT`s from anybody (the designated sender equivocating
/// included), every message possibly duplicated. With `revotes` off each
/// process keeps to one `ECHO` payload and one `READY` payload, as a correct
/// process does; with it on, a fifth of the votes name some other payload.
fn brb_events(system: usize, seed: u64, revotes: bool) -> (usize, ProcessId, Vec<BrbEvent>) {
    let (n, _) = SYSTEMS[system];
    let rng = &mut TestRng::from_seed(seed);
    let id = rng.below(n as u64) as usize;
    let sender = ProcessId::from_index(rng.below(n as u64) as usize);
    let popular = rng.below(3) as u8;
    let votes: Vec<[u8; 2]> = (0..n)
        .map(|_| {
            [0, 1].map(|_| {
                if chance(rng, 75) {
                    popular
                } else {
                    rng.below(3) as u8
                }
            })
        })
        .collect();
    let mut events = Vec::new();
    for _ in 0..rng.below(8 * n as u64) {
        let from = rng.below(n as u64) as usize;
        let kind = rng.below(5) as usize;
        let payload = match kind {
            0 => rng.below(3) as u8,
            _ if revotes && chance(rng, 20) => rng.below(3) as u8,
            _ => votes[from][kind % 2],
        };
        let from = ProcessId::from_index(from);
        let msg = match kind {
            0 if chance(rng, 70) => (sender, BrbMsg::Init(payload)),
            0 => (from, BrbMsg::Init(payload)),
            1 | 3 => (from, BrbMsg::Echo(payload)),
            _ => (from, BrbMsg::Ready(payload)),
        };
        events.push(msg.clone());
        if chance(rng, 10) {
            events.push(msg);
        }
    }
    (id, sender, events)
}

/// What a BRB schedule made the instance under test do.
#[derive(Default, Debug)]
struct BrbReached {
    delivered: usize,
    revotes: usize,
    after_delivery: usize,
}

/// Drives `BrbInstance` through every event and `RefBrb` through every event
/// but the re-votes (an `ECHO` or `READY` naming another payload than that
/// process's first one of the kind); a vote the reference is not shown must
/// leave the instance silent.
fn brb_differential(
    system: usize,
    id: usize,
    sender: ProcessId,
    events: &[BrbEvent],
    reached: &mut BrbReached,
) -> Result<(), String> {
    let env = env(system, id);
    let (mut new, mut old) = (BrbInstance::<u8>::new(sender), RefBrb::<u8>::new(sender));
    let (mut new_sink, mut old_sink) = (StepSink::new(), StepSink::new());
    let mut first_votes = [vec![None; env.n()], vec![None; env.n()]];
    let (mut readies, mut outputs) = (0, 0);
    for (k, (from, msg)) in events.iter().enumerate() {
        let revote = match msg {
            BrbMsg::Init(_) => false,
            BrbMsg::Echo(p) => *first_votes[0][from.index()].get_or_insert(*p) != *p,
            BrbMsg::Ready(p) => *first_votes[1][from.index()].get_or_insert(*p) != *p,
        };
        // A late `INIT` is still echoed; votes after delivery are moot.
        let was_delivered = new.has_delivered() && !matches!(msg, BrbMsg::Init(_));
        new.on_message(*from, msg, &env, &mut new_sink);
        if !revote {
            old.on_message(*from, msg, &env, &mut old_sink);
        }
        for step in new_sink.steps() {
            match step {
                Step::Broadcast(BrbMsg::Ready(_)) => readies += 1,
                Step::Output(_) => outputs += 1,
                _ => {}
            }
        }
        let (got, want) = (taken(&mut new_sink), taken(&mut old_sink));
        if got != want {
            return Err(format!(
                "event {k} ({from} {msg:?}, re-vote: {revote}): emitted {got:?}, reference {want:?}"
            ));
        }
        if was_delivered && !got.is_empty() {
            return Err(format!(
                "event {k} ({from} {msg:?}): a vote after delivery was answered"
            ));
        }
        if new.has_delivered() != old.delivered {
            return Err(format!("event {k} ({from} {msg:?}): delivery differs"));
        }
        reached.revotes += revote as usize;
        reached.after_delivery += was_delivered as usize;
    }
    if readies > 1 || outputs > 1 {
        return Err(format!("{readies} READY broadcasts, {outputs} outputs"));
    }
    reached.delivered += outputs;
    Ok(())
}

// --------------------------------------------------------------- tests ----

/// One DBFT case: on failure the seed and the whole schedule are printed
/// (nothing shrinks them).
fn check_dbft(system: usize, seed: u64, reached: &mut Reached) {
    let (id, events) = dbft_events(system, seed);
    if let Err(why) = dbft_differential(system, id, &events, reached) {
        let params = SYSTEMS[system];
        panic!("{params:?} seed {seed} at P{}: {why}\n{events:#?}", id + 1);
    }
}

/// One BRB case, reported like [`check_dbft`].
fn check_brb(system: usize, seed: u64, revotes: bool, reached: &mut BrbReached) {
    let (id, sender, events) = brb_events(system, seed, revotes);
    if let Err(why) = brb_differential(system, id, sender, &events, reached) {
        let params = SYSTEMS[system];
        panic!(
            "{params:?} seed {seed} at P{}, sender {sender}: {why}\n{events:#?}",
            id + 1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Same steps, event by event, on hostile schedules.
    #[test]
    fn dbft_matches_the_reference(system in 0..SYSTEMS.len(), seed in any::<u64>()) {
        check_dbft(system, seed, &mut Reached::default());
    }

    /// Nobody re-votes: the first-vote rule is invisible, steps are equal.
    #[test]
    fn brb_matches_the_reference_without_revotes(system in 0..SYSTEMS.len(), seed in any::<u64>()) {
        let mut reached = BrbReached::default();
        check_brb(system, seed, false, &mut reached);
        prop_assert_eq!(reached.revotes, 0, "seed {}: the generator re-voted", seed);
    }

    /// Re-votes: the instance is the reference minus the re-votes, which are
    /// silent; at most one READY and one delivery, silence afterwards.
    #[test]
    fn brb_counts_first_votes_only(system in 0..SYSTEMS.len(), seed in any::<u64>()) {
        check_brb(system, seed, true, &mut BrbReached::default());
    }
}

/// The schedules are worth comparing on: in every system some of them decide,
/// run a second round, act as coordinator, commit an `AUX`, fire two echoes
/// from one delivery, deliver a broadcast, re-vote, and keep talking to an
/// instance that has delivered.
#[test]
fn the_generators_reach_every_transition() {
    for (system, params) in SYSTEMS.iter().enumerate() {
        let mut dbft = Reached::default();
        let mut brb = BrbReached::default();
        for seed in 0..400 {
            check_dbft(system, seed, &mut dbft);
            check_brb(system, seed, true, &mut brb);
        }
        let counts = [
            dbft.decided,
            dbft.second_round,
            dbft.coord,
            dbft.aux,
            dbft.multi_echo,
            brb.delivered,
            brb.revotes,
            brb.after_delivery,
        ];
        assert!(
            counts.iter().all(|&c| c >= 5),
            "{params:?}: {dbft:?} {brb:?}"
        );
    }
}
