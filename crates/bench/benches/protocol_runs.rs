//! Criterion end-to-end benchmarks: full simulated runs of each algorithm
//! at fixed (n, t) — the cost of regenerating one data point of the
//! complexity tables.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use validity_bench::runs;
use validity_core::{StrongLambda, SystemParams};

fn bench_protocols(c: &mut Criterion) {
    let params = SystemParams::new(7, 2).unwrap();
    let inputs: Vec<u64> = (0..7).collect();

    let mut group = c.benchmark_group("end_to_end_n7_t2");
    group.sample_size(20);

    for (id, engine) in [
        ("alg1_vector_auth", "alg1-auth"),
        ("alg3_vector_nonauth", "alg3-nonauth"),
        ("alg6_vector_fast", "alg6-fast"),
    ] {
        group.bench_function(id, |b| {
            b.iter_batched(
                || (),
                |_| runs::run(engine, None, params, 2, &inputs, 9, true),
                BatchSize::SmallInput,
            )
        });
    }
    group.bench_function("universal_strong_over_alg1", |b| {
        b.iter_batched(
            || (),
            |_| {
                runs::run(
                    "alg1-auth",
                    Some(&|| Box::new(StrongLambda)),
                    params,
                    2,
                    &inputs,
                    9,
                    true,
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
