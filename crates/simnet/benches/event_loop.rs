//! Events-per-second microbenchmark of the simulator's inner event loop.
//!
//! The workload is broadcast-heavy — every process re-broadcasts a
//! `4n`-word payload for 40 rounds and decides on the last delivery —
//! which is the shape that dominates every suite in `validity-lab`:
//! vector consensus is one broadcast storm after another, and its
//! messages (proposals, vectors, proofs) are `O(n)` words. Run with
//! `cargo bench -p validity-simnet` and compare the reported
//! events/second against the numbers in the README's performance note.
//!
//! The `perf-smoke` CI job does not run this file: it runs
//! `examples/perf_smoke.rs`, which times the same workload shape without
//! criterion and writes the artifact `lab perf` gates on.

use criterion::{criterion_group, criterion_main, Criterion};
use validity_core::{ProcessId, SystemParams};
use validity_simnet::{Env, Machine, Message, NodeKind, SimConfig, Simulation, StepSink};

#[derive(Clone, Debug)]
struct Gossip(Vec<u64>);

impl Message for Gossip {
    fn words(&self) -> usize {
        self.0.len()
    }
}

/// Broadcast-heavy machine: every `n`-th delivery triggers a re-broadcast
/// of a `4n`-word payload (the `O(n)`-word message shape of the paper's
/// vector-consensus algorithms), for `ROUNDS` rounds; decides on the last
/// delivery, so `run_until_decided` exercises the decided-counter path on
/// every event.
struct Flooder {
    payload: Vec<u64>,
    rounds_left: u32,
    got: usize,
}

const ROUNDS: u32 = 40;

impl Machine for Flooder {
    type Msg = Gossip;
    type Output = u64;

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Gossip, u64>) {
        sink.broadcast(Gossip(self.payload.clone()));
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        _msg: &Gossip,
        env: &Env,
        sink: &mut StepSink<Gossip, u64>,
    ) {
        self.got += 1;
        if self.got.is_multiple_of(env.n()) && self.rounds_left > 0 {
            self.rounds_left -= 1;
            sink.broadcast(Gossip(self.payload.clone()));
        }
        if self.got == env.n() * ROUNDS as usize {
            sink.output(self.got as u64);
        }
    }
}

/// Runs one simulation and returns the number of events processed.
fn run_once(n: usize, seed: u64) -> u64 {
    let t = (n - 1) / 3;
    let params = SystemParams::new(n, t).unwrap();
    let nodes: Vec<NodeKind<Flooder>> = (0..n)
        .map(|_| {
            NodeKind::Correct(Flooder {
                payload: (0..4 * n as u64).collect(),
                rounds_left: ROUNDS - 1,
                got: 0,
            })
        })
        .collect();
    let mut sim = Simulation::new(SimConfig::new(params).seed(seed), nodes);
    sim.run_until_decided();
    sim.events_processed()
}

fn bench_event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_loop");
    for n in [4usize, 16, 64] {
        let events = run_once(n, 0);
        group.bench_function(&format!("broadcast_heavy/n{n}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                criterion::black_box(run_once(n, seed))
            });
        });
        // Context for converting the printed time/iter into events/sec.
        println!("n={n}: {events} events per iteration");
    }
    group.finish();
}

criterion_group!(benches, bench_event_loop);
criterion_main!(benches);
