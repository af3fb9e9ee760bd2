//! The Table-1 kernel as a criterion micro-benchmark: one sampling call
//! of AUTO (MADE) vs MCMC (RBM, paper settings) across problem sizes.
//! The wall-clock ratio here is the engine behind the paper's 20-50x
//! training-time gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vqmc_nn::{made_hidden_size, rbm_hidden_size, Made, Rbm};
use vqmc_sampler::{AutoSampler, MadeBatchSampler, McmcSampler, Sampler};
use vqmc_tensor::{SpinBatch, Vector};

const BATCH: usize = 64;

fn bench_auto(c: &mut Criterion) {
    let mut group = c.benchmark_group("auto_sampling");
    group.sample_size(10);
    for &n in &[20usize, 50, 100] {
        let wf = Made::new(n, made_hidden_size(n), 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &wf, |b, wf| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(AutoSampler::new().sample(wf, BATCH, &mut rng)))
        });
    }
    group.finish();
}

fn bench_mcmc(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmc_sampling");
    group.sample_size(10);
    for &n in &[20usize, 50, 100] {
        let wf = Rbm::new(n, rbm_hidden_size(n), 1);
        let sampler = McmcSampler::default(); // 2 chains, k = 3n + 100
        group.bench_with_input(BenchmarkId::from_parameter(n), &wf, |b, wf| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(sampler.sample_rbm(wf, BATCH, &mut rng)))
        });
    }
    group.finish();
}

/// The training hot path: one `MadeBatchSampler::sample_stream` call
/// (exactly what `IncrementalAutoSampler` — and hence `Trainer::step` —
/// executes) through the fused transposed-panel pipeline.
fn bench_training_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.sample_size(10);
    // (n, batch): paper-scale spin counts, batch sized to keep one
    // measurement within the stub's time budget.
    for &(n, batch) in &[(1024usize, 256usize), (16384, 32)] {
        let wf = Made::new(n, made_hidden_size(n), 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &wf, |b, wf| {
            let mut sampler = MadeBatchSampler::new();
            let mut rng = StdRng::seed_from_u64(7);
            let mut out_batch = SpinBatch::default();
            let mut out_log_psi = Vector::default();
            b.iter(|| {
                sampler.sample_stream(wf, batch, &mut rng, &mut out_batch, &mut out_log_psi);
                black_box(out_log_psi.as_slice()[0])
            })
        });
    }
    group.finish();
}

/// Pool-width sweep on the acceptance sampling shape (16 384 samples):
/// the panel pipeline stripes the batch across workers.  On this
/// container `nproc` = 1, so t2/t4 time-slice one core and the medians
/// document dispatch overhead, not speedup — rerun on a multi-core host
/// for the scaling columns (output is bit-identical either way, so the
/// thread count is purely a throughput knob).
fn bench_sampling_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling_threads");
    group.sample_size(10);
    let n = 64;
    let batch = 16_384;
    let wf = Made::new(n, made_hidden_size(n), 1);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("cols_b16384/t{threads}"), |b| {
            vqmc_tensor::par::with_threads(threads, || {
                let mut sampler = MadeBatchSampler::new();
                let mut rng = StdRng::seed_from_u64(7);
                let mut out_batch = SpinBatch::default();
                let mut out_log_psi = Vector::default();
                b.iter(|| {
                    sampler.sample_stream(&wf, batch, &mut rng, &mut out_batch, &mut out_log_psi);
                    black_box(out_log_psi.as_slice()[0])
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_auto,
    bench_mcmc,
    bench_training_path,
    bench_sampling_threads
);
criterion_main!(benches);
