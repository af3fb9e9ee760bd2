//! Cross-thread-count bit-identity: every pool-parallel kernel must
//! produce the same bits at `VQMC_THREADS ∈ {1, 2, 4, 8}`.
//!
//! This is the integration-level enforcement of the determinism
//! contract in `third_party/README.md`: static stripe partition, fixed
//! reduction trees, partition-safe kernels only.  The per-module unit
//! tests cover each kernel in isolation; this suite drives the public
//! entry points exactly as the training loop does, on shapes big enough
//! to clear every parallel gate (`PAR_THRESHOLD_ELEMS`,
//! `PAR_GEMM_MIN_FLOPS`), and compares against the 1-thread run
//! bit-for-bit.

use vqmc_tensor::{gemm, ops, par, reduce, vector, Matrix, Vector};

/// An in-place slice kernel.
type SliceFn = fn(&mut [f64]);

/// Deterministic ill-conditioned filler: mixed signs and magnitudes so
/// any change of summation association flips low (often high) bits.
fn filler(i: usize) -> f64 {
    let x = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
    let mag = 10f64.powi((i % 13) as i32 - 6);
    x * mag
}

fn mat(r: usize, c: usize, salt: usize) -> Matrix {
    Matrix::from_fn(r, c, |i, j| filler(i * c + j + salt))
}

fn vec_of(n: usize, salt: usize) -> Vector {
    Vector::from_fn(n, |i| filler(i + salt))
}

const THREADS: [usize; 3] = [2, 4, 8];

/// Big enough that `m·n·k` clears `PAR_GEMM_MIN_FLOPS` (1 Mi) and the
/// row-slab count exceeds any tested worker count.
#[test]
fn gemm_variants_bit_identical_across_thread_counts() {
    let a = mat(192, 160, 1);
    let b_nt = mat(144, 160, 2); // b is 144×160, nt computes a·bᵀ
    let b_nn = mat(160, 144, 3);
    let a_tn = mat(160, 192, 4); // tn computes aᵀ·b_nn

    let run = || {
        let mut c_nt = Matrix::zeros(192, 144);
        let mut c_nn = Matrix::zeros(192, 144);
        let mut c_tn = Matrix::zeros(192, 144);
        gemm::gemm_nt_into(&a, &b_nt, &mut c_nt);
        gemm::gemm_nn_into(&a, &b_nn, &mut c_nn);
        gemm::gemm_tn_into(&a_tn, &b_nn, &mut c_tn);
        (c_nt, c_nn, c_tn)
    };

    let seq = par::with_threads(1, run);
    for threads in THREADS {
        let par_res = par::with_threads(threads, run);
        assert_eq!(par_res.0, seq.0, "gemm_nt at {threads} threads");
        assert_eq!(par_res.1, seq.1, "gemm_nn at {threads} threads");
        assert_eq!(par_res.2, seq.2, "gemm_tn at {threads} threads");
    }
}

/// Slice transcendental kernels (the `ops` entry points ride
/// `par_apply`): element-wise, so bit-identity just needs the stripe
/// partition not to change which kernel arm handles an element.
#[test]
fn slice_ops_bit_identical_across_thread_counts() {
    let n = 200_000; // clears PAR_THRESHOLD_ELEMS (32 Ki)
    let run = |f: fn(&mut [f64])| {
        move || {
            let mut xs: Vec<f64> = (0..n).map(|i| filler(i) % 30.0).collect();
            f(&mut xs);
            xs
        }
    };
    let fns: [(&str, SliceFn); 3] = [
        ("exp_slice", ops::exp_slice),
        ("sigmoid_slice", ops::sigmoid_slice),
        ("log_sigmoid_slice", ops::log_sigmoid_slice),
    ];
    for (name, f) in fns {
        let seq = par::with_threads(1, run(f));
        for threads in THREADS {
            let par_res = par::with_threads(threads, run(f));
            assert!(
                par_res
                    .iter()
                    .zip(&seq)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name} differs at {threads} threads"
            );
        }
    }
}

/// Reductions replay a fixed pairwise tree at every thread count.
#[test]
fn reductions_bit_identical_across_thread_counts() {
    let xs = vec_of(150_000, 7);
    let run = || {
        (
            reduce::sum(xs.as_slice()),
            reduce::variance(xs.as_slice()),
            reduce::log_sum_exp(xs.as_slice()),
        )
    };
    let seq = par::with_threads(1, run);
    for threads in THREADS {
        let par_res = par::with_threads(threads, run);
        assert_eq!(par_res.0.to_bits(), seq.0.to_bits(), "sum at {threads}");
        assert_eq!(
            par_res.1.to_bits(),
            seq.1.to_bits(),
            "variance at {threads}"
        );
        assert_eq!(
            par_res.2.to_bits(),
            seq.2.to_bits(),
            "log_sum_exp at {threads}"
        );
    }
}

/// Striped vector updates (`axpy`, `xpby`, `scale`): per-element, fixed
/// partition.
#[test]
fn vector_updates_bit_identical_across_thread_counts() {
    let n = 120_000;
    let x = vec_of(n, 11);
    let run = || {
        let mut y = vec_of(n, 13);
        vector::axpy(y.as_mut_slice(), 0.37, x.as_slice());
        vector::xpby(y.as_mut_slice(), x.as_slice(), -1.25);
        y.scale(1.0 / 3.0);
        y
    };
    let seq = par::with_threads(1, run);
    for threads in THREADS {
        let par_res = par::with_threads(threads, run);
        assert!(
            par_res
                .as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "vector updates differ at {threads} threads"
        );
    }
}
