//! The edges of the simulator's 8-byte event: a process is one byte and a
//! timer tag wider than 32 bits waits in a side table while it is queued.
//!
//! * A send to a process outside `0..n` is refused by name. Narrowing
//!   `ProcessId(256)` to a byte would otherwise deliver it to P1.
//! * Timer tags reach `on_timer` exactly as armed: 0, `u64::MAX`, the
//!   32-bit edge and Algorithm 3's `u32::MAX · 128 + j` (DBFT round
//!   `u32::MAX` of instance `j`), for correct and Byzantine nodes alike,
//!   while a halted node's queued wide timers free their slots for others.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use validity_core::{ProcessId, SystemParams};
use validity_simnet::{
    ByzSink, ByzStep, Byzantine, Env, Machine, Message, NodeKind, SimBuilder, StepSink,
};

#[derive(Clone, Debug)]
struct Ping;
impl Message for Ping {}

/// Records who delivered to it.
#[derive(Default)]
struct Inbox {
    from: Vec<ProcessId>,
}

impl Machine for Inbox {
    type Msg = Ping;
    type Output = ();

    fn init(&mut self, _env: &Env, _sink: &mut StepSink<Ping, ()>) {}

    fn on_message(&mut self, from: ProcessId, _m: &Ping, _env: &Env, _s: &mut StepSink<Ping, ()>) {
        self.from.push(from);
    }
}

/// Sends one message to `ProcessId(to)` at start.
struct Stray {
    to: u32,
}

impl Byzantine<Ping> for Stray {
    fn init(&mut self, _env: &Env, sink: &mut ByzSink<Ping>) {
        sink.push(ByzStep::Send(ProcessId(self.to), Ping));
    }
}

#[test]
fn a_send_outside_the_system_is_refused_by_name() {
    // 256 is P1 once cut to a byte; 4 is the first index past n = 4.
    for to in [256, 4] {
        let nodes: Vec<NodeKind<Inbox>> = (0..3)
            .map(|_| NodeKind::Correct(Inbox::default()))
            .chain([NodeKind::Byzantine(Box::new(Stray { to }) as _)])
            .collect();
        let mut sim = SimBuilder::new(SystemParams::new(4, 1).unwrap())
            .seed(1)
            .build(nodes)
            .expect("valid configuration");
        let panic = catch_unwind(AssertUnwindSafe(|| sim.run_to_quiescence()))
            .expect_err("a send to a process outside 0..n must be refused");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        let recipient = ProcessId(to).to_string();
        assert!(
            message.contains("P4 sent to")
                && message.contains(&recipient)
                && message.contains("n = 4"),
            "the refusal names sender, recipient and n: {message}"
        );
        let NodeKind::Correct(p1) = sim.node(ProcessId(0)) else {
            unreachable!("P1 is correct")
        };
        assert!(p1.from.is_empty(), "P1 received {:?}", p1.from);
    }
}

/// `u32::MAX · 128 + j`: Algorithm 3's tag for round `u32::MAX` of DBFT
/// instance `j` (`MAX_N = 128` tags per round).
fn alg3_tag(j: u64) -> u64 {
    u64::from(u32::MAX) * 128 + j
}

/// Every tag the table must carry, and the inline ones beside them.
fn tags() -> Vec<u64> {
    let mut tags = vec![0, u64::MAX, u64::from(u32::MAX), u64::from(u32::MAX) + 1];
    tags.extend((0..4).map(alg3_tag));
    tags
}

/// Arms `plan` one timer after another and records what fires; or, with
/// `halt`, arms the whole plan at once and halts before any of it fires.
struct TagEcho {
    plan: Vec<u64>,
    got: Vec<u64>,
    halt: bool,
}

impl Machine for TagEcho {
    type Msg = Ping;
    type Output = ();

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Ping, ()>) {
        if self.halt {
            for (k, &tag) in self.plan.iter().enumerate() {
                sink.timer(1 + k as u64, tag);
            }
            sink.halt();
        } else {
            // Armed after the halted node's timers have fired.
            sink.timer(50, self.plan[0]);
        }
    }

    fn on_message(&mut self, _f: ProcessId, _m: &Ping, _e: &Env, _s: &mut StepSink<Ping, ()>) {}

    fn on_timer(&mut self, tag: u64, _env: &Env, sink: &mut StepSink<Ping, ()>) {
        assert!(!self.halt, "a halted node's timer fired");
        self.got.push(tag);
        if let Some(&next) = self.plan.get(self.got.len()) {
            sink.timer(1, next);
        }
    }
}

/// The Byzantine side of the same check: arms every tag, records them.
struct ByzTags {
    got: Arc<Mutex<Vec<u64>>>,
}

impl Byzantine<Ping> for ByzTags {
    fn init(&mut self, _env: &Env, sink: &mut ByzSink<Ping>) {
        for (k, tag) in tags().into_iter().enumerate() {
            sink.push(ByzStep::Timer(60 + k as u64, tag));
        }
    }

    fn on_timer(&mut self, tag: u64, _env: &Env, _sink: &mut ByzSink<Ping>) {
        self.got.lock().unwrap().push(tag);
    }
}

#[test]
fn timer_tags_reach_on_timer_intact() {
    let byz = Arc::new(Mutex::new(Vec::new()));
    let mut reversed = tags();
    reversed.reverse();
    let echo = |plan: Vec<u64>, halt| {
        NodeKind::Correct(TagEcho {
            plan,
            got: Vec::new(),
            halt,
        })
    };
    let nodes = vec![
        echo(tags(), true),
        echo(tags(), false),
        echo(reversed.clone(), false),
        NodeKind::Byzantine(Box::new(ByzTags { got: byz.clone() }) as _),
    ];
    let mut sim = SimBuilder::new(SystemParams::new(4, 1).unwrap())
        .seed(3)
        .build(nodes)
        .expect("valid configuration");
    sim.run_to_quiescence();
    for (p, want) in [(1, tags()), (2, reversed)] {
        let NodeKind::Correct(m) = sim.node(ProcessId(p)) else {
            unreachable!("P{} is correct", p + 1)
        };
        assert_eq!(m.got, want, "P{}", p + 1);
    }
    assert_eq!(*byz.lock().unwrap(), tags(), "the Byzantine node");
}
