//! ADD against the implementation it replaced.
//!
//! [`RefAdd`] is the earlier `Add`, kept here as the reference: echoes in a
//! `HashMap` keyed by index, regrouped by length on every reconstruction
//! attempt, decoded at `e = 0, 1, …` in turn, and its own echo sent with a
//! placeholder index that [`stamp_echo_index`] replaces with the sender's.
//! Both sides are driven with the same random hostile events and must emit
//! the same steps after every single event.
//!
//! Besides the paper's `n = 3t + 1` systems, `(7, 1)` is driven too: only
//! with `n > 4t + 1` can two echo lengths both hold the `2t + 1` echoes an
//! attempt needs, so only there does the tie rule decide an output.
//!
//! The vendored proptest does not shrink, so each case is a `(system, seed)`
//! pair and a failure prints the seed and the whole event list.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_crypto::{ReedSolomon, Share};
use validity_protocols::{Add, AddMsg};
use validity_simnet::{Env, Step, StepSink};

const SYSTEMS: [(usize, usize); 5] = [(4, 1), (7, 2), (10, 3), (16, 5), (7, 1)];

fn env(system: usize, id: usize) -> Env {
    let (n, t) = SYSTEMS[system];
    Env {
        id: ProcessId::from_index(id),
        params: SystemParams::new(n, t).unwrap(),
        now: 0,
        delta: 10,
    }
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in 0..items.len() {
        let j = i + rng.below((items.len() - i) as u64) as usize;
        items.swap(i, j);
    }
}

/// Empties a sink into a comparable form (`Step` has no `PartialEq`).
fn taken(sink: &mut StepSink<AddMsg, Vec<u8>>) -> Vec<String> {
    sink.drain().map(|s| format!("{s:?}")).collect()
}

/// The placeholder fix-up the reference's parent had to apply to every
/// message it lifted.
fn stamp_echo_index(msg: &mut AddMsg, sender: ProcessId) {
    if let AddMsg::Echo(share) = msg {
        if share.index == usize::MAX {
            share.index = sender.index();
        }
    }
}

struct RefAdd {
    rs: ReedSolomon,
    started: bool,
    my_fragment: Option<Vec<u8>>,
    fragment_votes: HashMap<Vec<u8>, ProcessSet>,
    echoed: bool,
    echoes: HashMap<usize, Share>,
    delivered: bool,
    // What the schedule made it do, for the coverage test.
    failed_attempts: usize,
    ties: usize,
    delivered_at: Option<usize>,
    delivered_unfixed: bool,
}

impl RefAdd {
    fn new(n: usize, t: usize) -> Self {
        RefAdd {
            rs: ReedSolomon::new(t + 1, n).unwrap(),
            started: false,
            my_fragment: None,
            fragment_votes: HashMap::new(),
            echoed: false,
            echoes: HashMap::new(),
            delivered: false,
            failed_attempts: 0,
            ties: 0,
            delivered_at: None,
            delivered_unfixed: false,
        }
    }

    fn input(&mut self, blob: Option<Vec<u8>>, env: &Env, sink: &mut StepSink<AddMsg, Vec<u8>>) {
        assert!(!self.started, "input exactly once");
        self.started = true;
        if let Some(blob) = blob {
            let shares = self.rs.encode_blob(&blob);
            for share in &shares {
                if share.index != env.id.index() {
                    sink.send(
                        ProcessId::from_index(share.index),
                        AddMsg::Fragment(share.clone()),
                    );
                }
            }
            self.my_fragment = Some(shares[env.id.index()].data.clone());
            self.maybe_echo(sink);
        }
        self.try_reconstruct(env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &AddMsg,
        env: &Env,
        sink: &mut StepSink<AddMsg, Vec<u8>>,
    ) {
        match msg {
            AddMsg::Fragment(share) => {
                if share.index != env.id.index() || self.my_fragment.is_some() {
                    return;
                }
                let votes = self.fragment_votes.entry(share.data.clone()).or_default();
                if !votes.insert(from) {
                    return;
                }
                if votes.len() > env.t() {
                    self.my_fragment = Some(share.data.clone());
                    self.maybe_echo(sink);
                }
            }
            AddMsg::Echo(share) => {
                if share.index != from.index() {
                    return;
                }
                self.echoes
                    .entry(share.index)
                    .or_insert_with(|| share.clone());
                self.try_reconstruct(env, sink);
            }
        }
    }

    fn maybe_echo(&mut self, sink: &mut StepSink<AddMsg, Vec<u8>>) {
        if self.echoed {
            return;
        }
        let Some(frag) = &self.my_fragment else {
            return;
        };
        self.echoed = true;
        sink.broadcast(AddMsg::Echo(Share {
            index: usize::MAX,
            data: frag.clone(),
        }));
    }

    fn try_reconstruct(&mut self, env: &Env, sink: &mut StepSink<AddMsg, Vec<u8>>) {
        if self.delivered || !self.started {
            return;
        }
        let k = env.t() + 1;
        let mut by_len: BTreeMap<usize, Vec<Share>> = BTreeMap::new();
        for s in self.echoes.values() {
            by_len.entry(s.data.len()).or_default().push(s.clone());
        }
        let sizes: Vec<usize> = by_len.values().map(Vec::len).collect();
        let Some(shares) = by_len.into_values().max_by_key(|v| v.len()) else {
            return;
        };
        let m = shares.len();
        if m > 2 * env.t() && sizes.iter().filter(|&&s| s == m).count() > 1 {
            self.ties += 1;
        }
        let mut attempted = false;
        for e in 0..=env.t() {
            if m < k + 2 * e || m < 2 * env.t() + 1 + e {
                break;
            }
            attempted = true;
            if let Ok(blob) = self.rs.decode_blob(&shares, e) {
                self.delivered = true;
                self.delivered_at = Some(e);
                self.delivered_unfixed = !self.echoed;
                if !self.echoed {
                    let all = self.rs.encode_blob(&blob);
                    self.my_fragment = Some(all[env.id.index()].data.clone());
                    self.maybe_echo(sink);
                }
                sink.output(blob);
                return;
            }
        }
        self.failed_attempts += attempted as usize;
    }
}

#[derive(Clone, Debug)]
enum AddEvent {
    Input(Option<Vec<u8>>),
    Msg(ProcessId, AddMsg),
}

fn random_bytes(rng: &mut TestRng, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// One hostile schedule for the process `id`. Some senders are Byzantine —
/// usually at most `t`, sometimes more — and each of them echoes a corrupted
/// copy of its fragment, a fragment of another blob (often another length,
/// so echo groups of two lengths compete), a fragment at an index not its
/// own, or nothing, and sends the node forged fragments. Anywhere from none
/// to all correct senders hold the blob and send the node its fragment, so
/// the node fixes its own fragment by `t + 1` votes, from its input, from
/// the decoded blob, or never. Messages may repeat, a Byzantine sender may
/// echo twice with different content, and the input may come at any point,
/// after echoes, or not at all.
fn add_events(system: usize, seed: u64) -> (usize, Vec<AddEvent>) {
    let (n, t) = SYSTEMS[system];
    let rng = &mut TestRng::from_seed(seed);
    let rs = ReedSolomon::new(t + 1, n).unwrap();
    let id = rng.below(n as u64) as usize;
    let blob = random_bytes(rng, 24);
    let liar = random_bytes(rng, 24);
    let (good, bad) = (rs.encode_blob(&blob), rs.encode_blob(&liar));
    let corrupted = |rng: &mut TestRng, data: &[u8]| -> Vec<u8> {
        let mut data = data.to_vec();
        let at = rng.below(data.len() as u64) as usize;
        data[at] ^= 1 + rng.below(255) as u8;
        data
    };

    let mut others: Vec<usize> = (0..n).filter(|&j| j != id).collect();
    shuffle(rng, &mut others);
    let byz_count = if chance(rng, 60) {
        rng.below(t as u64 + 1) as usize
    } else {
        t + 1 + rng.below((n - t - 1) as u64) as usize
    };
    let liars_agree = chance(rng, 40);
    let holders = rng.below(101);

    let mut events = Vec::new();
    for (rank, &j) in others.iter().enumerate() {
        let from = ProcessId::from_index(j);
        if rank < byz_count {
            let forged = if chance(rng, 50) {
                corrupted(rng, &good[id].data)
            } else {
                bad[id].data.clone()
            };
            events.push(AddEvent::Msg(
                from,
                AddMsg::Fragment(Share {
                    index: id,
                    data: forged,
                }),
            ));
            if chance(rng, 20) {
                let index = (id + 1 + rng.below(n as u64 - 1) as usize) % n;
                let stray = Share {
                    index,
                    data: good[index].data.clone(),
                };
                events.push(AddEvent::Msg(from, AddMsg::Fragment(stray)));
            }
            let mode = if liars_agree { 1 } else { rng.below(4) };
            let echo = match mode {
                0 => Share {
                    index: j,
                    data: corrupted(rng, &good[j].data),
                },
                1 => bad[j].clone(),
                2 => good[(j + 1) % n].clone(),
                _ => continue,
            };
            events.push(AddEvent::Msg(from, AddMsg::Echo(echo)));
            if chance(rng, 25) {
                events.push(AddEvent::Msg(from, AddMsg::Echo(good[j].clone())));
            }
        } else {
            if chance(rng, holders) {
                events.push(AddEvent::Msg(from, AddMsg::Fragment(good[id].clone())));
            }
            if chance(rng, 85) {
                events.push(AddEvent::Msg(from, AddMsg::Echo(good[j].clone())));
            }
        }
    }
    if chance(rng, 60) {
        // The node's own echo coming back.
        let own = ProcessId::from_index(id);
        events.push(AddEvent::Msg(own, AddMsg::Echo(good[id].clone())));
    }
    shuffle(rng, &mut events);
    let mut schedule = Vec::with_capacity(events.len() + 1);
    for event in events {
        if chance(rng, 10) {
            schedule.push(event.clone()); // an exact duplicate, back to back
        }
        schedule.push(event);
    }
    if chance(rng, 90) {
        let input = chance(rng, holders).then(|| blob.clone());
        let at = if chance(rng, 30) {
            schedule.len()
        } else {
            rng.below(schedule.len() as u64 + 1) as usize
        };
        schedule.insert(at, AddEvent::Input(input));
    }
    (id, schedule)
}

/// What the schedules made the instance under test do.
#[derive(Default, Debug)]
struct Reached {
    delivered: usize,
    corrected: usize,
    ties: usize,
    duplicate_after_failure: usize,
    delivered_unfixed: usize,
    fixed_by_votes: usize,
    echo_before_input: usize,
}

/// Drives both implementations through `events`, comparing after each one
/// and adding what the reference did to `reached`.
fn differential(
    system: usize,
    id: usize,
    events: &[AddEvent],
    reached: &mut Reached,
) -> Result<(), String> {
    let (n, t) = SYSTEMS[system];
    let env = env(system, id);
    let (mut new, mut old) = (Add::new(n, t), RefAdd::new(n, t));
    let (mut new_sink, mut old_sink) = (StepSink::new(), StepSink::new());
    for (k, event) in events.iter().enumerate() {
        match event {
            AddEvent::Input(blob) => {
                new.input(blob.clone(), &env, &mut new_sink);
                old.input(blob.clone(), &env, &mut old_sink);
            }
            AddEvent::Msg(from, msg) => {
                if let AddMsg::Echo(share) = msg {
                    let duplicate =
                        share.index == from.index() && old.echoes.contains_key(&share.index);
                    reached.duplicate_after_failure +=
                        (duplicate && old.failed_attempts > 0 && !old.delivered) as usize;
                    reached.echo_before_input += !old.started as usize;
                }
                let echoed = old.echoed;
                new.on_message(*from, msg, &env, &mut new_sink);
                old.on_message(*from, msg, &env, &mut old_sink);
                let by_fragment = matches!(msg, AddMsg::Fragment(_));
                reached.fixed_by_votes += (by_fragment && !echoed && old.echoed) as usize;
            }
        }
        let got = taken(&mut new_sink);
        let want: Vec<String> = old_sink
            .drain()
            .map(|mut s| {
                if let Step::Broadcast(m) | Step::Send(_, m) = &mut s {
                    stamp_echo_index(m, env.id);
                }
                format!("{s:?}")
            })
            .collect();
        if got != want {
            return Err(format!(
                "event {k} ({event:?}): emitted {got:?}, reference {want:?}"
            ));
        }
        if new.has_delivered() != old.delivered {
            return Err(format!("event {k} ({event:?}): delivery differs"));
        }
    }
    reached.delivered += old.delivered as usize;
    reached.corrected += (old.delivered_at >= Some(1)) as usize;
    reached.ties += old.ties;
    reached.delivered_unfixed += old.delivered_unfixed as usize;
    Ok(())
}

/// One case: on failure the seed and the whole schedule are printed
/// (nothing shrinks them).
fn check(system: usize, seed: u64, reached: &mut Reached) {
    let (id, events) = add_events(system, seed);
    if let Err(why) = differential(system, id, &events, reached) {
        let params = SYSTEMS[system];
        panic!("{params:?} seed {seed} at P{}: {why}\n{events:#?}", id + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Same steps, event by event, on hostile schedules.
    #[test]
    fn add_matches_the_reference(system in 0..SYSTEMS.len(), seed in any::<u64>()) {
        check(system, seed, &mut Reached::default());
    }
}

/// The schedules are worth comparing on: in every system some of them
/// deliver, deliver only at an error budget of one or more, send a
/// duplicate echo after a failed attempt, deliver before the node fixed its
/// own fragment, fix it by `t + 1` fragment votes, and echo before the
/// input; where two lengths can both reach `2t + 1` echoes, an attempt
/// meets such a tie.
#[test]
fn the_generator_reaches_every_transition() {
    for (system, &(n, t)) in SYSTEMS.iter().enumerate() {
        let mut reached = Reached::default();
        for seed in 0..1000 {
            check(system, seed, &mut reached);
        }
        let mut counts = vec![
            reached.delivered,
            reached.corrected,
            reached.duplicate_after_failure,
            reached.delivered_unfixed,
            reached.fixed_by_votes,
            reached.echo_before_input,
        ];
        if n > 4 * t + 1 {
            counts.push(reached.ties);
        }
        assert!(counts.iter().all(|&c| c >= 5), "{:?}: {reached:?}", (n, t));
    }
}
