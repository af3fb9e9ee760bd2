//! `Made::flip_log_psi_into` (prefix reuse) against the trait default
//! (one full forward pass per neighbour), bit for bit.
//!
//! The default is reached through [`FullForward`], a wrapper that
//! forwards every method to the wrapped `Made` except the flip
//! override.  Sweeps depths 1–3, `n ∈ {1, 2, 5, 13, 64}`, hidden widths
//! below and above `n − 1` (where degrees cycle), batch sizes
//! `{1, 3, 8, 33}`, flip subsets in any order (repeats included) and
//! pool widths 1/2/4, plus one shape large enough that the GEMMs and
//! row stripes dispatch to the pool.  Runs on whichever SIMD arm is
//! dispatched; run it again under `VQMC_SIMD=off` for the scalar arm.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_nn::{Made, WaveFunction};
use vqmc_tensor::{par, Matrix, SpinBatch, Vector, Workspace};

/// Everything but `flip_log_psi_into` forwarded, so the trait default
/// runs against `Made`'s own `log_psi_into`.
struct FullForward<'a>(&'a Made);

impl WaveFunction for FullForward<'_> {
    fn num_spins(&self) -> usize {
        self.0.num_spins()
    }
    fn num_params(&self) -> usize {
        self.0.num_params()
    }
    fn log_psi(&self, batch: &SpinBatch) -> Vector {
        self.0.log_psi(batch)
    }
    fn weighted_log_psi_grad(&self, batch: &SpinBatch, weights: &Vector) -> Vector {
        self.0.weighted_log_psi_grad(batch, weights)
    }
    fn per_sample_grads(&self, batch: &SpinBatch) -> Matrix {
        self.0.per_sample_grads(batch)
    }
    fn params(&self) -> Vector {
        self.0.params()
    }
    fn set_params(&mut self, _: &Vector) {
        unreachable!("read-only wrapper")
    }
    fn log_psi_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        self.0.log_psi_into(batch, ws, out)
    }
}

/// A model with broad random parameters, so pre-activations land on
/// both sides of the ReLU and logits are far from zero.
fn model(n: usize, hidden: &[usize], seed: u64) -> Made {
    let mut m = Made::with_hidden(n, hidden, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF11);
    let p = Vector::from_fn(m.num_params(), |_| rng.gen_range(-1.5..1.5));
    m.set_params(&p);
    m
}

fn batch(bs: usize, n: usize, seed: u64) -> SpinBatch {
    let mut rng = StdRng::seed_from_u64(seed);
    SpinBatch::from_fn(bs, n, |_, _| rng.gen_range(0..2u32) as u8)
}

/// Every flip in order, and a shuffled subset with a repeat.
fn flip_sets(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5B);
    let mut subset: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3) == 0).collect();
    subset.push(rng.gen_range(0..n));
    subset.reverse();
    if subset.len() > 2 {
        subset.swap(0, 1);
    }
    vec![(0..n).collect(), subset]
}

fn assert_flip_identity(wf: &Made, x: &SpinBatch, flips: &[usize], label: &str) {
    for threads in [1usize, 2, 4] {
        let (fast, full) = par::with_threads(threads, || {
            let mut ws = Workspace::new();
            ws.give(vec![0.75; 37]); // a dirty pool buffer
            let mut fast = Matrix::from_vec(2, 3, vec![9.0; 6]);
            wf.flip_log_psi_into(x, flips, &mut ws, &mut fast);
            let mut full = Matrix::default();
            FullForward(wf).flip_log_psi_into(x, flips, &mut Workspace::new(), &mut full);
            (fast, full)
        });
        assert_eq!(fast.shape(), (flips.len(), x.batch_size()), "{label}");
        for (k, (a, b)) in fast.as_slice().iter().zip(full.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{label} t={threads}: flip {} sample {}: {a:e} vs {b:e}",
                flips[k / x.batch_size()],
                k % x.batch_size()
            );
        }
    }
}

#[test]
fn made_flip_path_matches_full_forward_bitwise() {
    for n in [1usize, 2, 5, 13, 64] {
        let below = (n / 2).max(1);
        let stacks: [Vec<usize>; 4] = [
            vec![below],
            vec![n + 3],
            vec![2 * n + 1, n + 2],
            vec![n + 4, 2 * n, below],
        ];
        for (si, hidden) in stacks.iter().enumerate() {
            let wf = model(n, hidden, 100 * n as u64 + si as u64);
            for bs in [1usize, 3, 8, 33] {
                let x = batch(bs, n, (n * 7 + bs) as u64);
                for flips in flip_sets(n, (n + bs + si) as u64) {
                    let label = format!("n={n} hidden={hidden:?} bs={bs} flips={flips:?}");
                    assert_flip_identity(&wf, &x, &flips, &label);
                }
            }
        }
    }
}

/// Big enough that every GEMM clears the pool's FLOP gate and the row
/// stripes clear the element gate, at depths 1 and 2.
#[test]
fn made_flip_path_matches_full_forward_on_pool_sized_shapes() {
    let n = 64;
    for hidden in [vec![80usize], vec![96, 72]] {
        let wf = model(n, &hidden, 5);
        let x = batch(640, n, 6);
        let flips = [0usize, 1, 17, 40, 62, 63];
        assert_flip_identity(&wf, &x, &flips, &format!("pool-sized hidden={hidden:?}"));
    }
}

#[test]
fn empty_flip_list_and_empty_batch() {
    let wf = model(5, &[7], 1);
    let mut ws = Workspace::new();
    let mut out = Matrix::default();
    wf.flip_log_psi_into(&batch(4, 5, 2), &[], &mut ws, &mut out);
    assert_eq!(out.shape(), (0, 4));
    wf.flip_log_psi_into(&SpinBatch::zeros(0, 5), &[0, 4], &mut ws, &mut out);
    assert_eq!(out.shape(), (2, 0));
}
