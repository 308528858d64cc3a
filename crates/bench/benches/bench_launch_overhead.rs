//! Criterion bench: per-launch dispatch cost of the two execution
//! engines — persistent pool and forced sequential — plus an
//! end-to-end ECL-CC contrast between them. Worker counts are forced
//! to 4 so the numbers compare the engines, not the host's core count.

#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecl_gpusim::pool::{with_policy, DispatchPolicy};
use ecl_gpusim::LaunchConfig;

const WORKERS: usize = 4;

fn policies() -> [(&'static str, DispatchPolicy); 2] {
    [("pool", DispatchPolicy::pooled(WORKERS)), ("sequential", DispatchPolicy::sequential())]
}

/// A trivial kernel launched repeatedly: almost pure dispatch cost.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch-overhead");
    group.sample_size(20);
    for (name, policy) in policies() {
        for blocks in [1usize, 8, 64] {
            let cfg = LaunchConfig::new(blocks, 64);
            group.bench_with_input(BenchmarkId::new(name, blocks), &cfg, |b, &cfg| {
                with_policy(policy, || {
                    let device = ecl_bench::scaled_device(0.002);
                    // First dispatch may spawn the pool's workers.
                    ecl_gpusim::launch_flat_named(&device, "bench.warmup", cfg, |_| {});
                    b.iter(|| {
                        ecl_gpusim::launch_flat_named(&device, "bench.noop", cfg, |t| {
                            std::hint::black_box(t.global);
                        });
                    })
                });
            });
        }
    }
    group.finish();
}

/// End-to-end: the launch-heavy iterative CC on a power-law input.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch-end-to-end");
    group.sample_size(10);
    let spec = ecl_graphgen::registry::find("as-skitter").expect("registered input");
    let g = spec.generate(0.002, ecl_bench::DEFAULT_SEED);
    for (name, policy) in policies() {
        group.bench_with_input(BenchmarkId::new("cc", name), &g, |b, g| {
            with_policy(policy, || {
                b.iter(|| {
                    let device = ecl_bench::scaled_device(0.002);
                    std::hint::black_box(ecl_cc::run(&device, g, &ecl_cc::CcConfig::baseline()));
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_end_to_end);
criterion_main!(benches);
