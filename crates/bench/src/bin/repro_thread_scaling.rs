//! Real-thread scaling of the training hot paths on the worker pool.
//!
//! Two sweeps over `VQMC_THREADS`-style pool widths (overridden per
//! measurement with `par::with_threads`, so one run covers the curve):
//!
//! * **strong scaling** — fixed work (MADE cols-path sampling of a
//!   16 384-sample batch; the acceptance GEMM `(1024,512,512)`; a
//!   batched local-energy pass), wall time per call vs width;
//! * **weak scaling** — per-worker work held constant (4 096 sampled
//!   rows per worker), wall time should stay flat on a machine with
//!   that many cores.
//!
//! The output records `available_parallelism` alongside the curve:
//! on a single-core container the t>1 rows time-slice one core and
//! document dispatch overhead, **not** speedup — rerun on a multi-core
//! host for the real curve.  Results are bit-identical at every width
//! (the determinism contract), so the width is purely a throughput
//! knob; this binary also asserts that on the fly.
//!
//! Usage: `repro_thread_scaling [--rounds R]` (default 3); prints the
//! table to stdout — redirect into `results/thread_scaling.txt`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, TransverseFieldIsing,
};
use vqmc_nn::{made_hidden_size, Made, WaveFunction};
use vqmc_sampler::MadeBatchSampler;
use vqmc_tensor::{gemm, par, Matrix, SpinBatch, Vector};

fn main() {
    let mut rounds = 3usize;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--rounds") {
        rounds = args[i + 1].parse().expect("--rounds takes an integer");
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("Real-thread scaling on the vqmc_tensor::par worker pool");
    println!(
        "host cores (available_parallelism): {cores}   rounds per cell: {rounds}"
    );
    if cores == 1 {
        println!(
            "NOTE: single-core host — widths > 1 time-slice one core; the\n\
             t>1 rows measure dispatch overhead, not speedup. Rerun on a\n\
             multi-core host for the scaling curve."
        );
    }
    println!();

    let widths = [1usize, 2, 4, 8];

    // --- strong scaling: fixed work per cell -------------------------
    let n = 64;
    let wf = Made::new(n, made_hidden_size(n), 1);
    let batch_rows = 16_384;
    let a = Matrix::from_fn(1024, 512, |i, j| ((i * 31 + j * 7) % 100) as f64 / 50.0 - 1.0);
    let b = Matrix::from_fn(512, 512, |i, j| ((i * 17 + j * 13) % 100) as f64 / 50.0 - 1.0);
    let h = TransverseFieldIsing::random(n, 5);
    let le_rows = 512;

    println!("strong scaling (fixed work), best-of-{rounds} wall seconds:");
    println!("  threads  sample_cols_b16384  gemm_nt_1024x512x512  local_energy_n64_b512");
    let mut ref_bits: Option<(Vec<u8>, u64, u64)> = None;
    for &t in &widths {
        let (st, bits) = par::with_threads(t, || {
            let mut sampler = MadeBatchSampler::new();
            let mut out = SpinBatch::default();
            let mut lp = Vector::default();
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let mut rng = StdRng::seed_from_u64(7);
                let t0 = Instant::now();
                sampler.sample_stream(&wf, batch_rows, &mut rng, &mut out, &mut lp);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            (best, (out.as_bytes().to_vec(), lp[0].to_bits()))
        });
        let gt = par::with_threads(t, || {
            let mut c = Matrix::zeros(1024, 512);
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let t0 = Instant::now();
                gemm::gemm_nt_into(&a, &b, &mut c);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        });
        let (lt, le_bits) = par::with_threads(t, || {
            let mut sampler = MadeBatchSampler::new();
            let mut batch = SpinBatch::default();
            let mut lpx = Vector::default();
            let mut rng = StdRng::seed_from_u64(11);
            sampler.sample_stream(&wf, le_rows, &mut rng, &mut batch, &mut lpx);
            let mut scratch = LocalEnergyScratch::new();
            let mut out = Vector::default();
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let t0 = Instant::now();
                local_energies_into(
                    &h,
                    &batch,
                    &lpx,
                    &mut |nb, dst: &mut Vector| dst.copy_from(&wf.log_psi(nb)),
                    LocalEnergyConfig::default(),
                    &mut scratch,
                    &mut out,
                );
                best = best.min(t0.elapsed().as_secs_f64());
            }
            (best, out[0].to_bits())
        });
        println!("  {t:>7}  {st:>18.4}  {gt:>20.4}  {lt:>21.4}");
        // Bit-identity across the sweep, asserted inline.
        match &ref_bits {
            None => ref_bits = Some((bits.0, bits.1, le_bits)),
            Some(r) => {
                assert_eq!(r.0, bits.0, "sampled bits differ at {t} threads");
                assert_eq!(r.1, bits.1, "logψ differs at {t} threads");
                assert_eq!(r.2, le_bits, "local energy differs at {t} threads");
            }
        }
    }
    println!("  (outputs bit-identical across all widths: asserted)");
    println!();

    // --- weak scaling: 4096 sampled rows per worker ------------------
    println!("weak scaling (4096 sampled rows per worker), best-of-{rounds} wall seconds:");
    println!("  threads    rows  sample_cols  normalised");
    let mut base = None;
    for &t in &widths {
        let rows = 4_096 * t;
        let wt = par::with_threads(t, || {
            let mut sampler = MadeBatchSampler::new();
            let mut out = SpinBatch::default();
            let mut lp = Vector::default();
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                let mut rng = StdRng::seed_from_u64(7);
                let t0 = Instant::now();
                sampler.sample_stream(&wf, rows, &mut rng, &mut out, &mut lp);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        });
        let b0 = *base.get_or_insert(wt);
        println!("  {t:>7}  {rows:>6}  {wt:>11.4}  {:>10.2}", wt / b0);
    }
    println!(
        "  (flat normalised column = ideal weak scaling; expect ≈ t on a\n\
         single-core host where workers time-slice)"
    );
}
