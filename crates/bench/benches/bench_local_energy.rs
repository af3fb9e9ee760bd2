//! The batched local-energy engine across pool widths: neighbour-batch
//! build + forward pass + vectorised ratio/exp + scatter, exactly the
//! per-iteration measurement path of `Trainer::step`.
//!
//! The neighbour build and log-ratio fill stripe over the worker pool;
//! the `logψ` forward pass rides the pool through the GEMM and slice
//! kernels.  Results are bit-identical at any width.
//!
//! `local_energy_tim_le/<host>` compares the two entry points at the
//! `tim_le` benchmark shape (TIM n=128, MADE hidden 128, batch 1024)
//! and at the 16-row serving shape: `closure` is
//! `local_energies_into` with one full forward pass per neighbour,
//! `flip` is `local_energies_flip_into` over `Made::flip_log_psi_into`
//! (prefix reuse).  `<host>` names the cores, SIMD arm, default pool
//! width (`VQMC_THREADS`, else the core count) and the `GIT_REV`
//! environment variable (when set), so rows from different hosts and
//! revisions never merge; the trailing `t1`/`t2` is the width the row
//! ran at.
//!
//! Run with `GIT_REV=$(git rev-parse --short HEAD)
//! BENCH_JSON=$PWD/BENCH_kernels.json cargo bench --bench
//! bench_local_energy` to refresh the machine-readable medians.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use vqmc_bench::host_tag;
use vqmc_hamiltonian::{
    local_energies_flip_into, local_energies_into, LocalEnergyConfig, LocalEnergyScratch,
    TransverseFieldIsing,
};
use vqmc_nn::{made_hidden_size, Made, WaveFunction};
use vqmc_sampler::MadeBatchSampler;
use vqmc_tensor::{par, Matrix, SpinBatch, Vector, Workspace};

fn bench_local_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_energy");
    group.sample_size(10);
    let n = 64;
    let batch_size = 512; // 512 samples × 64 flip-neighbours ≈ 33k logψ rows
    let h = TransverseFieldIsing::random(n, 5);
    let wf = Made::new(n, made_hidden_size(n), 1);
    let mut rng = StdRng::seed_from_u64(11);
    let mut batch = SpinBatch::default();
    let mut log_psi_x = Vector::default();
    MadeBatchSampler::new().sample_stream(&wf, batch_size, &mut rng, &mut batch, &mut log_psi_x);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("tim_n64_b512/t{threads}"), |b| {
            par::with_threads(threads, || {
                let mut scratch = LocalEnergyScratch::new();
                let mut out = Vector::default();
                b.iter(|| {
                    local_energies_into(
                        &h,
                        &batch,
                        &log_psi_x,
                        &mut |nb, dst: &mut Vector| dst.copy_from(&wf.log_psi(nb)),
                        LocalEnergyConfig::default(),
                        &mut scratch,
                        &mut out,
                    );
                    black_box(out.as_slice()[0])
                })
            })
        });
    }
    group.finish();
}

fn bench_flip_vs_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("local_energy_tim_le/{}", host_tag()));
    group.sample_size(10);
    let n = 128;
    let h = TransverseFieldIsing::random(n, 1);
    let wf = Made::new(n, 128, 1);
    for batch_size in [1024usize, 16] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut batch = SpinBatch::default();
        let mut log_psi_x = Vector::default();
        MadeBatchSampler::new().sample_stream(&wf, batch_size, &mut rng, &mut batch, &mut log_psi_x);
        for threads in [1usize, 2] {
            group.bench_function(format!("closure/b{batch_size}/t{threads}"), |b| {
                par::with_threads(threads, || {
                    let (mut ws, mut scratch, mut out) =
                        (Workspace::new(), LocalEnergyScratch::new(), Vector::default());
                    b.iter(|| {
                        local_energies_into(
                            &h,
                            &batch,
                            &log_psi_x,
                            &mut |nb, dst: &mut Vector| wf.log_psi_into(nb, &mut ws, dst),
                            LocalEnergyConfig::default(),
                            &mut scratch,
                            &mut out,
                        );
                        black_box(out.as_slice()[0])
                    })
                })
            });
            group.bench_function(format!("flip/b{batch_size}/t{threads}"), |b| {
                par::with_threads(threads, || {
                    let (mut ws, mut scratch, mut out) =
                        (Workspace::new(), LocalEnergyScratch::new(), Vector::default());
                    b.iter(|| {
                        local_energies_flip_into(
                            &h,
                            &batch,
                            &log_psi_x,
                            &mut |x, flips: &[usize], dst: &mut Matrix| {
                                wf.flip_log_psi_into(x, flips, &mut ws, dst)
                            },
                            LocalEnergyConfig::default(),
                            &mut scratch,
                            &mut out,
                        );
                        black_box(out.as_slice()[0])
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_local_energy, bench_flip_vs_closure);
criterion_main!(benches);
