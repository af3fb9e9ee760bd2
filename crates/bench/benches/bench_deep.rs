//! Deep-stack cost curves: log-psi evaluation and AUTO sampling for
//! MADE depths 1/2/3 at a fixed parameter-comparable width schedule,
//! n = 4096, 64 rows, at pool widths 1 and 2. Depth 1 is the baseline;
//! depths 2/3 price the extra masked layers the composable stack makes
//! expressible.  Sampling computes each deep unit once, at the bit of
//! its degree, so depth-2/3 sampling should stay within 2× of depth 1.
//!
//! Rows are `deep_<op>/<host>/depth<D>/t<width>`, where `<host>` names
//! the cores, SIMD arm, default pool width and `GIT_REV` (see
//! [`vqmc_bench::host_tag`]). Run with `GIT_REV=$(git rev-parse --short
//! HEAD) BENCH_JSON=$PWD/BENCH_kernels.json cargo bench --bench
//! bench_deep` to refresh the machine-readable medians.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vqmc_bench::host_tag;
use vqmc_nn::{Made, MadeWorkspace};
use vqmc_sampler::MadeBatchSampler;
use vqmc_tensor::{par, SpinBatch, Vector};

const N: usize = 4096;

/// Width schedules chosen so the three depths hold a roughly equal
/// parameter budget (the dominant cost is the n×h input layer).
fn stacks() -> [(&'static str, Vec<usize>); 3] {
    [
        ("depth1", vec![96]),
        ("depth2", vec![72, 48]),
        ("depth3", vec![64, 40, 24]),
    ]
}

fn bench_deep_log_psi(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("deep_log_psi/{}", host_tag()));
    group.sample_size(10);
    let batch = SpinBatch::from_fn(64, N, |s, i| ((s * 7 + i * 3) % 2) as u8);
    for (label, hidden) in stacks() {
        let wf = Made::with_hidden(N, &hidden, 1);
        for threads in [1usize, 2] {
            group.bench_function(format!("{label}/t{threads}"), |b| {
                par::with_threads(threads, || {
                    let mut ws = MadeWorkspace::default();
                    let mut out = Vector::default();
                    b.iter(|| {
                        wf.log_psi_with(&batch, &mut ws, &mut out);
                        black_box(out.as_slice()[0])
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_deep_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("deep_sampling/{}", host_tag()));
    group.sample_size(10);
    for (label, hidden) in stacks() {
        let wf = Made::with_hidden(N, &hidden, 1);
        for threads in [1usize, 2] {
            group.bench_function(format!("{label}/t{threads}"), |b| {
                par::with_threads(threads, || {
                    let mut sampler = MadeBatchSampler::new();
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut out_batch = SpinBatch::default();
                    let mut out_log_psi = Vector::default();
                    b.iter(|| {
                        sampler.sample_stream(&wf, 64, &mut rng, &mut out_batch, &mut out_log_psi);
                        black_box(out_log_psi.as_slice()[0])
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_deep_log_psi, bench_deep_sampling);
criterion_main!(benches);
