//! `layers` mode: fixed-input timing of each layer's public calls.
//!
//! Layers are the crates. Every metric here is workload-independent: the
//! same inputs on every run, best-of-N (interference on a shared box only
//! ever adds time), with N reported beside the value. These are the unit
//! costs a change to one layer should move; `README.md` lists which
//! end-to-end metric on which workload each of them should move with it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use validity_adversary::BehaviorId;
use validity_core::{
    check_similarity_condition, classify_with_cost, Domain, InputConfig, LambdaFn, MedianValidity,
    ProcessId, RankLambda, StrongValidity, SystemParams, ValidityProperty,
};
use validity_crypto::sig::message_bytes;
use validity_crypto::{sha256, KeyStore, ReedSolomon, ThresholdScheme};
use validity_lab::json::Json;
use validity_lab::{
    execute_service, merge, suites, PartialReport, ScenarioMatrix, ScheduleSpec, ServiceCell,
    ShardSpec, SweepEngine, SweepReport, ValiditySpec,
};
use validity_protocols::{find_vector, ProtocolContext, ServiceConfig, Universal};
use validity_simnet::{Env, Machine, Message, NodeKind, SimBuilder, Simulation, StepSink};

use crate::stats::median;
use crate::workloads::{self, Plan, Size};

/// One measured layer metric.
#[derive(Clone, Debug)]
pub struct LayerMetric {
    /// `layer.thing.unit-ish`, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// The value (best of `samples`).
    pub value: f64,
    /// How many samples the best was taken over.
    pub samples: usize,
}

/// Best-of-N timer with a per-metric time budget.
struct Bench {
    budget: Duration,
    out: Vec<LayerMetric>,
}

impl Bench {
    /// Best seconds per call of `f`, which times its own region of
    /// interest (so set-up inside `f` stays out of the measurement). At
    /// least three samples, then as many as fit the budget.
    fn best_timed(&self, mut f: impl FnMut() -> Duration) -> (f64, usize) {
        let started = Instant::now();
        let mut best = f64::INFINITY;
        let mut samples = 0;
        while samples < 3 || (started.elapsed() < self.budget && samples < 10_000) {
            best = best.min(f().as_secs_f64());
            samples += 1;
        }
        (best, samples)
    }

    /// Best seconds per call of `f`, batching calls so one sample lasts
    /// at least ~100 µs (timer resolution must not be what is measured).
    fn best<T>(&self, mut f: impl FnMut() -> T) -> (f64, usize) {
        let t = Instant::now();
        black_box(f());
        let once = t.elapsed().as_secs_f64().max(1e-9);
        let batch = ((100e-6 / once).ceil() as u32).clamp(1, 1_000_000);
        let (best, samples) = self.best_timed(|| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed()
        });
        (best / f64::from(batch), samples)
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.out.push(LayerMetric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records the best seconds per call of `f`, times `scale`.
    fn time<T>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        scale: f64,
        f: impl FnMut() -> T,
    ) {
        let (secs, samples) = self.best(f);
        self.push(name, unit, secs * scale, samples);
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

fn params(n: usize, t: usize) -> SystemParams {
    SystemParams::new(n, t).expect("valid (n, t)")
}

fn core_layer(b: &mut Bench) {
    let domain3 = Domain::range(3);
    let (secs, samples) = b.best(|| classify_with_cost(&StrongValidity, params(7, 2), &domain3));
    let (_, evals) = classify_with_cost(&StrongValidity, params(7, 2), &domain3);
    b.push(
        "core.classify.evals_per_s",
        "1/s",
        evals as f64 / secs,
        samples,
    );

    let fig1 = suites::fig1().classifications;
    b.time("core.classify.fig1_ms", "ms", MS, || {
        for c in &fig1 {
            let property = c.validity.property(c.t);
            black_box(classify_with_cost(
                &property,
                params(c.n, c.t),
                &Domain::range(c.domain),
            ));
        }
    });

    let domain6 = Domain::range(6);
    b.time("core.similarity.us", "us", US, || {
        check_similarity_condition(&StrongValidity, params(4, 1), &domain6)
    });

    // A quorum-sized vector at n = 64: what Universal hands Λ on decide.
    let p = params(64, 21);
    let vector = InputConfig::from_pairs(p, (0..p.quorum()).map(|i| (i, (i as u64) * 10)))
        .expect("a quorum of pairs is a valid configuration");
    let lambda = RankLambda::median(p.t(), 0u64, u64::MAX);
    b.time("core.lambda.ns", "ns", NS, || lambda.lambda(&vector));
    let median_validity = MedianValidity::with_slack(p.t());
    b.time("core.admissible.ns", "ns", NS, || {
        median_validity.is_admissible(&vector, &300u64)
    });
}

fn crypto_layer(b: &mut Bench) {
    let block = [0x5au8; 64];
    b.time("crypto.sha256.ns_64b", "ns", NS, || {
        sha256(black_box(&block))
    });
    let page = vec![0xa5u8; 4096];
    let (secs, samples) = b.best(|| sha256(black_box(&page)));
    b.push(
        "crypto.sha256.mb_per_s",
        "MB/s",
        page.len() as f64 / 1e6 / secs,
        samples,
    );

    let keys = KeyStore::new(64, 7);
    let signer = keys.signer(ProcessId::from_index(3));
    let msg = message_bytes("bench/proposal", &[&[1u8; 8], &[2u8; 32]]);
    b.time("crypto.sig.sign_ns", "ns", NS, || {
        signer.sign(black_box(&msg))
    });
    let sig = signer.sign(&msg);
    b.time("crypto.sig.verify_ns", "ns", NS, || {
        keys.verify(black_box(&msg), &sig)
    });
    b.time("crypto.sig.message_bytes_ns", "ns", NS, || {
        message_bytes("bench/proposal", black_box(&[&[1u8; 8], &[2u8; 32]]))
    });
    b.time("crypto.keystore.new_us", "us", US, || KeyStore::new(64, 7));

    // 43 of 64: the quorum certificate of the largest ladder rung.
    let scheme = ThresholdScheme::new(keys.clone(), 43);
    let digest = sha256(b"bench/threshold");
    b.time("crypto.threshold.partial_ns", "ns", NS, || {
        scheme.partially_sign(&signer, black_box(&digest))
    });
    let partials: Vec<_> = (0..43)
        .map(|i| scheme.partially_sign(&keys.signer(ProcessId::from_index(i)), &digest))
        .collect();
    b.time("crypto.threshold.combine_us", "us", US, || {
        scheme.combine(&digest, partials.iter().cloned())
    });
    let tsig = scheme
        .combine(&digest, partials.iter().cloned())
        .expect("43 valid partials");
    b.time("crypto.threshold.verify_us", "us", US, || {
        scheme.verify(black_box(&digest), &tsig)
    });

    // ADD's code at (64, 21): k = t + 1 = 22.
    let rs = ReedSolomon::new(22, 64).expect("valid (22, 64) code");
    let blob: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
    b.time("crypto.rs.encode_us", "us", US, || {
        rs.encode_blob(black_box(&blob))
    });
    let shares = rs.encode_blob(&blob);
    let clean = &shares[..22];
    b.time("crypto.rs.decode_us", "us", US, || {
        rs.decode_blob(black_box(clean), 0)
    });
    let mut dirty = shares[..26].to_vec();
    for s in &mut dirty[..2] {
        for byte in &mut s.data {
            *byte ^= 0x55;
        }
    }
    assert_eq!(rs.decode_blob(&dirty, 2).as_deref(), Ok(blob.as_slice()));
    b.time("crypto.rs.decode_err_us", "us", US, || {
        rs.decode_blob(black_box(&dirty), 2)
    });
}

/// The broadcast-heavy machine of `crates/simnet/benches/event_loop.rs`,
/// re-declared here (a bench target is not a public function): every
/// `n`-th delivery re-broadcasts a `4n`-word payload for [`ROUNDS`]
/// rounds, and the last delivery decides.
struct Flooder {
    payload: Vec<u64>,
    rounds_left: u32,
    got: usize,
}

const ROUNDS: u32 = 40;

#[derive(Clone, Debug)]
struct Gossip(Vec<u64>);

impl Message for Gossip {
    fn words(&self) -> usize {
        self.0.len()
    }
}

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

fn flooders(n: usize) -> Vec<NodeKind<Flooder>> {
    (0..n)
        .map(|_| {
            NodeKind::Correct(Flooder {
                payload: (0..4 * n as u64).collect(),
                rounds_left: ROUNDS - 1,
                got: 0,
            })
        })
        .collect()
}

/// Events per second of the bare event loop: build outside the clock, run
/// inside it.
fn loop_rate(
    b: &Bench,
    builder: impl Fn(SystemParams, u64) -> SimBuilder,
    n: usize,
) -> (f64, usize) {
    let p = params(n, (n - 1) / 3);
    let mut seed = 0u64;
    let mut events = 0u64;
    let (secs, samples) = b.best_timed(|| {
        seed += 1;
        let mut sim = builder(p, seed)
            .build(flooders(n))
            .expect("valid configuration");
        let t = Instant::now();
        sim.run_until_decided();
        let wall = t.elapsed();
        events = sim.events_processed();
        wall
    });
    // Under a clean schedule every seed processes the same events; under
    // chaos the count varies by a fraction of a percent, far inside the
    // best-of-N timing noise.
    (events as f64 / secs, samples)
}

fn simnet_layer(b: &mut Bench) {
    let clean = |p, seed| SimBuilder::new(p).seed(seed);
    let (rate, samples) = loop_rate(b, clean, 16);
    b.push("simnet.loop.events_per_s_n16", "1/s", rate, samples);
    let (rate, samples) = loop_rate(b, clean, 64);
    b.push("simnet.loop.events_per_s_n64", "1/s", rate, samples);
    let (rate, samples) = loop_rate(b, |p, seed| ScheduleSpec::Flaky.builder(p, seed), 16);
    b.push("simnet.loop.events_per_s_chaos", "1/s", rate, samples);

    let p = params(64, 21);
    let (secs, samples) = b.best_timed(|| {
        let nodes = flooders(64);
        let t = Instant::now();
        black_box(
            SimBuilder::new(p)
                .seed(1)
                .build(nodes)
                .expect("valid configuration"),
        );
        t.elapsed()
    });
    b.push("simnet.build.us", "us", secs * US, samples);
}

/// One fault-free synchronous instance at n = 31, no lab: build outside
/// the clock, `run_until_decided` inside. Returns (seconds, events).
fn run_instance<M: Machine>(nodes: Vec<NodeKind<M>>, p: SystemParams) -> (Duration, u64) {
    let mut sim: Simulation<M> = ScheduleSpec::Synchronous
        .builder(p, 1)
        .build(nodes)
        .expect("valid configuration");
    let t = Instant::now();
    sim.run_until_decided();
    let wall = t.elapsed();
    assert!(sim.all_correct_decided(), "instance did not decide");
    (wall, sim.events_processed())
}

fn protocols_layer(b: &mut Bench) {
    let big = params(64, 21);
    b.time("protocols.context.new_us", "us", US, || {
        ProtocolContext::new(big, 7)
    });
    let ctx = ProtocolContext::new(big, 7);
    let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
    b.time("protocols.machines.new_us", "us", US, || {
        (0..64)
            .map(|i| alg1.machine(&ctx, ProcessId::from_index(i), i as u64))
            .collect::<Vec<_>>()
    });

    let p = params(31, 10);
    let ctx = ProtocolContext::new(p, 1);
    let mut raw_secs = 0.0;
    for (name, engine) in [
        ("protocols.alg1-auth.us_per_event", "alg1-auth"),
        ("protocols.alg3-nonauth.us_per_event", "alg3-nonauth"),
        ("protocols.alg6-fast.us_per_event", "alg6-fast"),
    ] {
        let spec = find_vector::<u64>(engine).expect("registered");
        let mut events = 0;
        let (secs, samples) = b.best_timed(|| {
            let nodes = (0..p.n())
                .map(|i| {
                    NodeKind::Correct(spec.machine(&ctx, ProcessId::from_index(i), i as u64 * 10))
                })
                .collect();
            let (wall, e) = run_instance(nodes, p);
            events = e;
            wall
        });
        if engine == "alg1-auth" {
            raw_secs = secs;
        }
        b.push(name, "us", secs * US / events as f64, samples);
    }
    let (secs, samples) = b.best_timed(|| {
        let nodes = (0..p.n())
            .map(|i| {
                NodeKind::Correct(Universal::new(
                    alg1.machine(&ctx, ProcessId::from_index(i), i as u64 * 10),
                    ValiditySpec::Strong.lambda(p).expect("strong has a Λ"),
                ))
            })
            .collect();
        run_instance(nodes, p).0
    });
    b.push(
        "protocols.universal.overhead_ratio",
        "ratio",
        secs / raw_secs,
        samples,
    );

    let cell = ServiceCell {
        engine: alg1,
        behavior: BehaviorId::Silent,
        byz: 0,
        schedule: ScheduleSpec::Synchronous,
        n: 7,
        t: 2,
        service: ServiceConfig {
            slots: 64,
            pipeline: 4,
            batch: 1,
        },
        seed: 1,
    };
    let (secs, samples) = b.best(|| execute_service(&cell));
    b.push("protocols.service.slots_per_s", "1/s", 64.0 / secs, samples);
}

fn adversary_layer(b: &mut Bench) {
    let p = params(7, 2);
    let ctx = ProtocolContext::new(p, 1);
    let alg1 = find_vector::<u64>("alg1-auth").expect("registered");
    let mk = |q: ProcessId, face: u64| alg1.machine(&ctx, q, q.index() as u64 * 10 + face * 5);
    let slot = ProcessId::from_index(6);
    let mut total = 0.0;
    let mut samples = usize::MAX;
    for behavior in BehaviorId::ALL {
        let (secs, n) = b.best(|| behavior.instantiate(p, 1000, slot, &mk));
        total += secs;
        samples = samples.min(n);
    }
    b.push(
        "adversary.instantiate.us",
        "us",
        total * US / BehaviorId::ALL.len() as f64,
        samples,
    );
}

/// The lab's fixed input: `chaos_small`'s axes at one seed (648 cells,
/// 162 groups per protocol column) — small cells, many groups, the shape
/// on which the lab's own phases are largest.
fn lab_matrix() -> ScenarioMatrix {
    let Plan::Sweep(mut m) = workloads::find("chaos_small")
        .expect("chaos_small exists")
        .plan(Size::Full, 0)
    else {
        unreachable!("chaos_small is a sweep")
    };
    m.seeds = 0..1;
    m
}

fn lab_layer(b: &mut Bench) {
    let matrix = lab_matrix();
    b.time("lab.enumerate.us", "us", US, || matrix.cells());
    let cells = matrix.cells();

    let one = SweepEngine::new(1);
    let mut records = Vec::new();
    let mut events = 0u64;
    let (secs, samples) = b.best_timed(|| {
        let (r, wall, timings, _) = one.execute_cells(&cells, matrix.max_steps);
        records = r;
        events = timings.iter().map(|t| t.events).sum();
        wall
    });
    b.push(
        "lab.execute.events_per_s",
        "1/s",
        events as f64 / secs,
        samples,
    );

    b.time("lab.aggregate.ms", "ms", MS, || {
        SweepReport::aggregate_matrix(&matrix, &records)
    });
    let report = SweepReport::aggregate_matrix(&matrix, &records);
    b.time("lab.emit_json.ms", "ms", MS, || report.to_json());
    b.time("lab.emit_md.ms", "ms", MS, || report.to_markdown());
    let json = report.to_json();
    let (secs, samples) = b.best(|| Json::parse(&json).expect("the lab parses its own report"));
    b.push(
        "lab.json_parse.mb_per_s",
        "MB/s",
        json.len() as f64 / 1e6 / secs,
        samples,
    );

    // Scale-out round trip: the executed records cut into 4 shards, each
    // emitted and parsed back, then merged.
    let partials: Vec<PartialReport> = (1..=4)
        .map(|index| {
            let shard = ShardSpec { index, count: 4 };
            let owned = records
                .iter()
                .enumerate()
                .filter(|&(i, _)| shard.owns(i))
                .map(|(_, r)| r.clone())
                .collect();
            PartialReport::new(matrix.clone(), shard, 0.0, owned)
        })
        .collect();
    b.time("lab.partial.emit_ms", "ms", MS, || {
        partials
            .iter()
            .map(PartialReport::to_json)
            .collect::<Vec<_>>()
    });
    let texts: Vec<String> = partials.iter().map(PartialReport::to_json).collect();
    let parse_all = || -> Vec<PartialReport> {
        texts
            .iter()
            .map(|t| PartialReport::parse(t).expect("the lab parses its own partials"))
            .collect()
    };
    b.time("lab.partial.parse_ms", "ms", MS, parse_all);
    let parsed = parse_all();
    b.time("lab.merge.ms", "ms", MS, || merge(&parsed));
    let (merged, _) = merge(&parsed).expect("a complete shard set merges");
    assert_eq!(
        merged.to_json(),
        json,
        "merged report differs from the unsharded one"
    );

    // Worker-pool scaling is a layer metric, not an end-to-end one: on a
    // small shared box multi-worker wall clock swings far beyond any
    // bound. Median of five alternating pairs.
    let nproc = SweepEngine::new(0);
    let mut single = Vec::new();
    let mut pooled = Vec::new();
    for _ in 0..5 {
        single.push(one.execute_cells(&cells, matrix.max_steps).1.as_secs_f64());
        pooled.push(
            nproc
                .execute_cells(&cells, matrix.max_steps)
                .1
                .as_secs_f64(),
        );
    }
    b.push(
        "lab.pool.speedup",
        "ratio",
        median(&single) / median(&pooled),
        5,
    );

    let observing = one.observe(true);
    let (observed, samples) = b.best_timed(|| observing.execute_cells(&cells, matrix.max_steps).1);
    let (plain, _) = b.best_timed(|| one.execute_cells(&cells, matrix.max_steps).1);
    b.push(
        "lab.observe.overhead_ratio",
        "ratio",
        observed / plain,
        samples,
    );
}

/// Runs every layer's microbenchmarks within roughly `budget` in total.
pub fn run_layers(budget: Duration) -> Vec<LayerMetric> {
    // ~55 timed operations share the budget; the few whose single sample
    // outlasts their share (an n = 31 Algorithm 3 instance, the pool
    // pairs) still take their minimum three samples.
    let mut b = Bench {
        budget: budget / 55,
        out: Vec::new(),
    };
    core_layer(&mut b);
    crypto_layer(&mut b);
    simnet_layer(&mut b);
    protocols_layer(&mut b);
    adversary_layer(&mut b);
    lab_layer(&mut b);
    b.out
}
