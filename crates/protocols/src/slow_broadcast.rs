//! **Algorithm 4** — slow broadcast (Appendix B.3.1).
//!
//! Process `P_i` disseminates its payload to `P_1, P_2, ...` one at a time,
//! waiting `δ·n^{i−1}` between consecutive sends. The staggering means that
//! in a synchronous period, `P_j`'s (j > i) waiting step is long enough for
//! `P_i` to *finish* its whole broadcast — so at most one process pays more
//! than `O(1)` messages after GST (the `O(n²)` communication argument of
//! Theorem 10), at the price of worst-case exponential latency.

use validity_core::ProcessId;
use validity_simnet::{Env, StepSink, Time};

/// Caps the waiting step so virtual time cannot overflow: latency remains
/// exponential in spirit but bounded in the simulator.
const MAX_WAIT: Time = 1 << 48;

/// The sending half of slow broadcast (receives are handled by the parent
/// protocol directly). Emits one `Step::Send` per recipient, spaced by the
/// staggered waiting step; outputs nothing.
#[derive(Clone, Debug)]
pub struct SlowBroadcast<P> {
    payload: Option<P>,
    next: usize,
    halted: bool,
}

impl<P: Clone> SlowBroadcast<P> {
    /// Creates an idle sender.
    pub fn new() -> Self {
        SlowBroadcast {
            payload: None,
            next: 0,
            halted: false,
        }
    }

    /// `δ · n^(i−1)` for 1-indexed process `i` (saturating, so virtual time
    /// cannot overflow).
    pub fn waiting_step(env: &Env) -> Time {
        let mut w: Time = env.delta;
        for _ in 0..env.id.index() {
            w = w.saturating_mul(env.n() as Time);
            if w >= MAX_WAIT {
                return MAX_WAIT;
            }
        }
        w
    }

    /// Starts the broadcast: sends to `P_1` immediately and schedules the
    /// rest. `tag` is the timer tag this component will use (the parent
    /// routes `on_timer(tag)` back here). The component emits no outputs,
    /// so it writes directly into the parent's sink (any output type `O`).
    pub fn broadcast<M, O>(
        &mut self,
        payload: P,
        wrap: impl Fn(P) -> M,
        tag: u64,
        env: &Env,
        sink: &mut StepSink<M, O>,
    ) {
        assert!(self.payload.is_none(), "broadcast starts once");
        self.payload = Some(payload);
        self.send_next(wrap, tag, env, sink);
    }

    /// Timer callback: send to the next recipient.
    pub fn on_timer<M, O>(
        &mut self,
        wrap: impl Fn(P) -> M,
        tag: u64,
        env: &Env,
        sink: &mut StepSink<M, O>,
    ) {
        self.send_next(wrap, tag, env, sink);
    }

    /// Stops the broadcast (the Algorithm 5 "stop participating" step).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    fn send_next<M, O>(
        &mut self,
        wrap: impl Fn(P) -> M,
        tag: u64,
        env: &Env,
        sink: &mut StepSink<M, O>,
    ) {
        if self.halted || self.next >= env.n() {
            return;
        }
        let Some(payload) = self.payload.clone() else {
            return;
        };
        let to = ProcessId::from_index(self.next);
        self.next += 1;
        sink.send(to, wrap(payload));
        if self.next < env.n() {
            sink.timer(Self::waiting_step(env), tag);
        }
    }
}

impl<P: Clone> Default for SlowBroadcast<P> {
    fn default() -> Self {
        SlowBroadcast::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;

    fn env(id: usize, n: usize) -> Env {
        Env {
            id: ProcessId::from_index(id),
            params: SystemParams::new(n, (n - 1) / 3).unwrap(),
            now: 0,
            delta: 100,
        }
    }

    #[test]
    fn waiting_step_is_exponential_in_process_index() {
        assert_eq!(SlowBroadcast::<u64>::waiting_step(&env(0, 4)), 100);
        assert_eq!(SlowBroadcast::<u64>::waiting_step(&env(1, 4)), 400);
        assert_eq!(SlowBroadcast::<u64>::waiting_step(&env(2, 4)), 1600);
        assert_eq!(SlowBroadcast::<u64>::waiting_step(&env(3, 4)), 6400);
    }

    #[test]
    fn waiting_step_saturates() {
        let e = env(120, 128);
        assert_eq!(SlowBroadcast::<u64>::waiting_step(&e), MAX_WAIT);
    }

    use validity_simnet::Step;

    fn tick(sb: &mut SlowBroadcast<u64>, e: &Env) -> Vec<Step<u64, ()>> {
        let mut sink = StepSink::new();
        sb.on_timer(|p| p, 0, e, &mut sink);
        sink.drain().collect()
    }

    #[test]
    fn sends_one_by_one() {
        let e = env(1, 4);
        let mut sb = SlowBroadcast::new();
        let mut sink: StepSink<u64, ()> = StepSink::new();
        sb.broadcast(7u64, |p| p, 0, &e, &mut sink);
        assert_eq!(sink.len(), 2); // send to P1 + timer
        assert!(matches!(sink.steps()[0], Step::Send(ProcessId(0), 7)));
        assert!(matches!(sink.steps()[1], Step::Timer(400, 0)));
        let steps = tick(&mut sb, &e);
        assert!(matches!(steps[0], Step::Send(ProcessId(1), 7)));
        let _ = tick(&mut sb, &e);
        let steps = tick(&mut sb, &e);
        assert_eq!(steps.len(), 1); // last send, no trailing timer
        assert!(matches!(steps[0], Step::Send(ProcessId(3), 7)));
        assert_eq!(sb.next, e.n(), "every recipient served");
        assert!(tick(&mut sb, &e).is_empty());
    }

    #[test]
    fn halt_stops_sending() {
        let e = env(0, 4);
        let mut sb = SlowBroadcast::new();
        let mut sink: StepSink<u64, ()> = StepSink::new();
        sb.broadcast(7u64, |p| p, 0, &e, &mut sink);
        sb.halt();
        assert!(tick(&mut sb, &e).is_empty());
    }
}
