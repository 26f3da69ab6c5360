//! Binary DBFT consensus (Crain–Gramoli–Larrea–Raynal \[35\]) — the
//! non-authenticated binary Byzantine consensus with a *weak coordinator*
//! used as a closed box by Algorithm 3 (Appendix B.2).
//!
//! Structure per round `r`:
//!
//! 1. **BV-broadcast** of the round estimate: `EST(r, v)` is echoed once
//!    `t + 1` distinct processes sent it and enters `bin_values_r` at
//!    `2t + 1` — Byzantine processes alone can never insert a value.
//! 2. The round's coordinator (`(r − 1) mod n`) suggests one of its
//!    `bin_values`; processes wait out a round timer before committing to an
//!    `AUX` value (the coordinator's if it arrived and is justified, any
//!    `bin_values` member otherwise).
//! 3. On `n − t` `AUX` messages carrying justified values, the round's value
//!    set `V` is computed: `V = {v}` adopts `v` (and decides if `v` is the
//!    round's favoured parity `r mod 2`); otherwise the favoured parity is
//!    adopted.
//!
//! Deciders broadcast `DONE(v)`, which counts as `EST`/`AUX` for every round
//! so that halting early never stalls the others; `t + 1` `DONE(v)` is
//! itself a decision proof. Satisfies **Strong Validity** for binary values.
//!
//! When one delivery enables several `EST` echoes they leave in ascending
//! round order, `false` before `true` within a round: emission order reaches
//! the wire, so it must be a function of the deliveries alone.

use validity_core::{ProcessId, ProcessSet};
use validity_simnet::{Env, StepSink, Time};

use crate::codec::Words;

/// Wire messages of one DBFT binary instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DbftMsg {
    /// BV-broadcast estimate for a round.
    Est {
        /// Round number (from 1).
        round: u32,
        /// The estimate.
        value: bool,
    },
    /// Committed auxiliary value for a round.
    Aux {
        /// Round number.
        round: u32,
        /// The committed value (must be in the receiver's `bin_values`).
        value: bool,
    },
    /// The weak coordinator's suggestion for a round.
    Coord {
        /// Round number.
        round: u32,
        /// Suggested value.
        value: bool,
    },
    /// Decision announcement; counts as `EST`/`AUX` everywhere.
    Done {
        /// The decided value.
        value: bool,
    },
}

impl Words for DbftMsg {
    fn words(&self) -> usize {
        1
    }
}

impl validity_simnet::Message for DbftMsg {
    fn words(&self) -> usize {
        Words::words(self)
    }
}

#[derive(Clone, Debug, Default)]
struct RoundState {
    est_seen: [ProcessSet; 2],
    est_echoed: [bool; 2],
    coord_value: Option<bool>,
    aux_from: [ProcessSet; 2],
    aux_sent: bool,
    timer_set: bool,
    timer_fired: bool,
    coord_sent: bool,
}

/// One instance of binary DBFT consensus (a composable component).
#[derive(Clone, Debug, Default)]
pub struct DbftBinary {
    started: bool,
    est: bool,
    round: u32,
    /// Sorted by round, one entry per *distinct round received*: a hostile
    /// `Est { round: u32::MAX }` costs one entry, not a table that long.
    rounds: Vec<(u32, RoundState)>,
    done_votes: [ProcessSet; 2],
    decided: Option<bool>,
    halted: bool,
}

impl DbftBinary {
    /// Creates an undecided, un-proposed instance.
    pub fn new() -> Self {
        DbftBinary::default()
    }

    /// Whether this instance has a proposal yet.
    pub fn has_proposed(&self) -> bool {
        self.started
    }

    /// The decision, if reached.
    pub fn decided(&self) -> Option<bool> {
        self.decided
    }

    /// The coordinator of round `r`: `P_{(r−1) mod n}` (1-indexed rounds).
    fn coordinator(r: u32, env: &Env) -> ProcessId {
        ProcessId::from_index(((r - 1) as usize) % env.n())
    }

    /// The round's favoured parity: `r mod 2` (round 1 favours `true`).
    fn favored(r: u32) -> bool {
        r % 2 == 1
    }

    /// Round timer duration: grows linearly so that post-GST rounds give the
    /// coordinator's suggestion time to arrive.
    fn timeout(r: u32, env: &Env) -> Time {
        (3 + r as Time) * env.delta
    }

    /// Position of round `r` in `rounds`, inserted empty on a miss.
    fn round_index(&mut self, r: u32) -> usize {
        match self.rounds.binary_search_by_key(&r, |&(round, _)| round) {
            Ok(i) => i,
            Err(i) => {
                self.rounds.insert(i, (r, RoundState::default()));
                i
            }
        }
    }

    fn round_state(&mut self, r: u32) -> &mut RoundState {
        let i = self.round_index(r);
        &mut self.rounds[i].1
    }

    /// BV init of the current round: broadcasts the own estimate unless it
    /// already went out, and returns the round's position in `rounds`.
    fn enter_round(&mut self, sink: &mut StepSink<DbftMsg, bool>) -> usize {
        let (round, value) = (self.round, self.est);
        let i = self.round_index(round);
        let echoed = &mut self.rounds[i].1.est_echoed[value as usize];
        if !*echoed {
            *echoed = true;
            sink.broadcast(DbftMsg::Est { round, value });
        }
        i
    }

    /// Proposes a value, starting round 1.
    pub fn propose(&mut self, value: bool, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        assert!(!self.started, "propose exactly once");
        self.started = true;
        self.est = value;
        self.round = 1;
        self.poll(env, sink);
    }

    /// Handles an incoming message of this instance.
    pub fn on_message(
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
                self.round_state(round).est_seen[value as usize].insert(from);
            }
            DbftMsg::Aux { round, value } => {
                self.round_state(round).aux_from[value as usize].insert(from);
            }
            DbftMsg::Coord { round, value } => {
                if from == Self::coordinator(round, env) {
                    let s = self.round_state(round);
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

    /// Handles a namespaced round timer (tag = round number).
    pub fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        if self.halted {
            return;
        }
        self.round_state(tag as u32).timer_fired = true;
        self.poll(env, sink);
    }

    /// Evaluates every enabled transition; idempotent.
    fn poll(&mut self, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
        if self.halted {
            return;
        }
        let t = env.t();
        // `DONE(v)` counts as `EST(r, v)` and `AUX(r, v)` for every round.
        let done = self.done_votes;

        // Decision via DONE certificates (t + 1 distinct deciders).
        for v in [false, true] {
            if done[v as usize].len() > t {
                return self.decide(v, sink);
            }
        }
        if !self.started {
            return;
        }

        let mut current = self.enter_round(sink);

        // BV echo rule, every round with data, ascending. Advancing the
        // round below changes no `est_seen`, so one walk per poll finds all.
        for (round, s) in &mut self.rounds {
            for v in [false, true] {
                let i = v as usize;
                if !s.est_echoed[i] && s.est_seen[i].union(done[i]).len() > t {
                    s.est_echoed[i] = true;
                    sink.broadcast(DbftMsg::Est {
                        round: *round,
                        value: v,
                    });
                }
            }
        }

        loop {
            let r = self.round;
            let s = &mut self.rounds[current].1;

            let bin = [0, 1].map(|i| s.est_seen[i].union(done[i]).len() > 2 * t);
            if !(bin[0] || bin[1]) {
                break; // wait for BV progress
            }

            // Weak coordinator's suggestion.
            if Self::coordinator(r, env) == env.id && !s.coord_sent {
                s.coord_sent = true;
                sink.broadcast(DbftMsg::Coord {
                    round: r,
                    value: bin[1],
                });
            }

            // Arm the round timer once bin_values is non-empty.
            if !s.timer_set {
                s.timer_set = true;
                sink.timer(Self::timeout(r, env), r as u64);
            }

            // Commit an AUX value after the timer.
            if s.timer_fired && !s.aux_sent {
                let value = match s.coord_value {
                    Some(v) if bin[v as usize] => v,
                    _ => bin[1], // any member of bin_values: prefer `true` iff present
                };
                s.aux_sent = true;
                sink.broadcast(DbftMsg::Aux { round: r, value });
            }
            if !s.aux_sent {
                break;
            }

            // Round completion: n − t justified AUX senders.
            let mut senders = ProcessSet::new();
            let mut values = [false, false];
            for i in [0, 1] {
                let aux = s.aux_from[i].union(done[i]);
                if bin[i] && !aux.is_empty() {
                    senders = senders.union(aux);
                    values[i] = true;
                }
            }
            if senders.len() < env.quorum() {
                break;
            }
            match (values[0], values[1]) {
                (true, false) | (false, true) => {
                    let v = values[1];
                    self.est = v;
                    if v == Self::favored(r) {
                        return self.decide(v, sink);
                    }
                }
                _ => self.est = Self::favored(r),
            }
            self.round = r + 1;
            current = self.enter_round(sink);
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

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{agreement_holds, Machine, NodeKind, Silent, SimConfig, Simulation};

    #[derive(Clone, Debug)]
    struct DbftNode {
        inner: DbftBinary,
        proposal: bool,
    }

    impl Machine for DbftNode {
        type Msg = DbftMsg;
        type Output = bool;

        fn init(&mut self, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
            self.inner.propose(self.proposal, env, sink);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &DbftMsg,
            env: &Env,
            sink: &mut StepSink<DbftMsg, bool>,
        ) {
            self.inner.on_message(from, msg, env, sink);
        }

        fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<DbftMsg, bool>) {
            self.inner.on_timer(tag, env, sink);
        }
    }

    fn env_at(id: ProcessId) -> Env {
        Env {
            id,
            params: SystemParams::new(4, 1).unwrap(),
            now: 0,
            delta: 10,
        }
    }

    fn run(n: usize, t: usize, proposals: &[bool], byz: usize, seed: u64) -> Vec<Option<bool>> {
        let params = SystemParams::new(n, t).unwrap();
        let nodes: Vec<NodeKind<DbftNode>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(DbftNode {
                        inner: DbftBinary::new(),
                        proposal: proposals[i],
                    })
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::new(params).seed(seed), nodes);
        let outcome = sim.run_until_decided();
        assert_eq!(
            outcome,
            validity_simnet::RunOutcome::AllDecided,
            "no termination"
        );
        assert!(agreement_holds(sim.decisions()), "agreement violated");
        sim.decisions()
            .iter()
            .map(|d| d.as_ref().map(|x| x.1))
            .collect()
    }

    #[test]
    fn unanimous_true_decides_true() {
        for seed in 0..3 {
            let d = run(4, 1, &[true; 4], 0, seed);
            assert!(
                d.iter().all(|x| *x == Some(true)),
                "strong validity violated"
            );
        }
    }

    #[test]
    fn unanimous_false_decides_false() {
        for seed in 0..3 {
            let d = run(4, 1, &[false; 4], 0, seed);
            assert!(d.iter().all(|x| *x == Some(false)));
        }
    }

    #[test]
    fn split_proposals_decide_something() {
        for seed in 0..5 {
            let d = run(4, 1, &[true, false, true, false], 0, seed);
            let v = d[0].unwrap();
            assert!(d.iter().all(|x| *x == Some(v)));
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        for seed in 0..3 {
            let d = run(4, 1, &[true, true, true, false], 1, seed);
            // 3 correct, unanimous `true` → must decide true (strong validity)
            assert!(d.iter().take(3).all(|x| *x == Some(true)));
        }
    }

    #[test]
    fn larger_system_with_faults() {
        let proposals: Vec<bool> = (0..7).map(|i| i % 2 == 0).collect();
        let d = run(7, 2, &proposals, 2, 11);
        let v = d[0].unwrap();
        assert!(d.iter().take(5).all(|x| *x == Some(v)));
    }

    #[test]
    fn favored_parity_alternates() {
        assert!(DbftBinary::favored(1));
        assert!(!DbftBinary::favored(2));
        assert!(DbftBinary::favored(3));
    }

    #[test]
    fn done_certificate_decides_without_proposing() {
        // t + 1 DONE(v) alone decides even before propose (late joiner).
        let env = env_at(ProcessId(3));
        let mut dbft = DbftBinary::new();
        let mut sink = StepSink::new();
        dbft.on_message(
            ProcessId(0),
            &DbftMsg::Done { value: true },
            &env,
            &mut sink,
        );
        assert!(sink.is_empty());
        dbft.on_message(
            ProcessId(1),
            &DbftMsg::Done { value: true },
            &env,
            &mut sink,
        );
        assert!(sink
            .steps()
            .iter()
            .any(|s| matches!(s, validity_simnet::Step::Output(true))));
        assert_eq!(dbft.decided(), Some(true));
    }

    #[test]
    fn coordinator_rotation() {
        let env = env_at(ProcessId(0));
        assert_eq!(DbftBinary::coordinator(1, &env), ProcessId(0));
        assert_eq!(DbftBinary::coordinator(2, &env), ProcessId(1));
        assert_eq!(DbftBinary::coordinator(5, &env), ProcessId(0));
    }

    #[test]
    fn byzantine_cannot_inject_foreign_value() {
        // BV-broadcast justification: with all correct proposing `false`,
        // t Byzantine EST(true) messages never reach 2t+1, so `true` can
        // never be decided.
        for seed in 0..3 {
            let d = run(4, 1, &[false, false, false, true], 1, seed);
            assert!(d.iter().take(3).all(|x| *x == Some(false)));
        }
    }
}
