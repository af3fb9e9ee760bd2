//! Property tests for the `_into` kernel family (proptest).
//!
//! Two invariant classes, over randomised shapes that deliberately
//! include empty dimensions and non-multiples of the microkernel tile
//! (`MR`/`NR`) and cache blocks (`KC`/`NC`):
//!
//! 1. **Blocked vs. naive** — the register-blocked GEMM loop nest
//!    reassociates the `k`-sum, so it is compared against the
//!    triple-loop [`gemm_reference`] with a `≤ 1e-12` relative
//!    tolerance.
//! 2. **`_into` vs. allocating** — each `_into` kernel is the
//!    implementation its allocating twin wraps, so starting from a
//!    dirty, wrong-shaped output buffer it must reproduce the
//!    allocating result **bit-identically**.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_tensor::gemm::{self, gemm_reference, KC, MR, NC, NR};
use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

/// Uniform(-1, 1) matrix from a seed.
fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn rand_vector(n: usize, seed: u64) -> Vector {
    let mut rng = StdRng::seed_from_u64(seed);
    Vector::from_fn(n, |_| rng.gen_range(-1.0..1.0))
}

/// A dirty, wrong-shaped output buffer: `_into` kernels must fully
/// overwrite it regardless of its prior shape or contents.
fn dirty(seed: u64) -> Matrix {
    rand_matrix(3, 5, seed ^ 0xD1127)
}

/// `|a - b| ≤ tol · scale`, elementwise, where `scale` grows with the
/// inner-product length so the bound is relative to the accumulation.
fn assert_close(got: &Matrix, want: &Matrix, k: usize, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    let scale = 1.0 + k as f64;
    let diff = got.max_abs_diff(want);
    assert!(
        diff <= 1e-12 * scale,
        "{label}: max |Δ| = {diff:e} over tolerance {:e}",
        1e-12 * scale
    );
}

/// Maps a raw usize draw onto a shape that oscillates around the tile
/// boundaries: 0, 1, tile−1, tile, tile+1, … plus free values.
fn near(tile: usize, raw: usize) -> usize {
    match raw % 8 {
        0 => 0,
        1 => 1,
        2 => tile.saturating_sub(1),
        3 => tile,
        4 => tile + 1,
        5 => 2 * tile + 3,
        _ => raw % (2 * tile + 7),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `gemm_nt` equals the naive triple loop for any shape,
    /// including empty and non-tile-multiple dimensions.
    #[test]
    fn gemm_nt_matches_reference(mr in 0usize..64, nr in 0usize..64, kr in 0usize..512, seed in 0u64..1000) {
        let (m, n, k) = (near(MR, mr), near(NR, nr), near(KC, kr));
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0xB);
        let got = gemm::gemm_nt(&a, &b);
        let want = gemm_reference(&a, &b.transpose());
        assert_close(&got, &want, k, "gemm_nt");
    }

    /// Position independence: every entry of `gemm_nt` on a row
    /// selection of `A` (a copied sub-matrix) or of `B`
    /// (`gemm_nt_rows_into`, read in place) is bit-identical to the
    /// matching entry of the full product — on whichever SIMD arm is
    /// dispatched (run under `VQMC_SIMD=off` for the scalar arm) and at
    /// pool widths 1 and 2.  Shapes straddle the tile edges and `k`
    /// crosses `KC`.
    #[test]
    fn gemm_nt_sub_selection_bit_identical(
        mr in 0usize..64,
        nr in 0usize..64,
        kr in 0usize..700,
        picks in 0usize..40,
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (near(MR, mr).max(1), near(NR, nr).max(1), near(KC, kr));
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0x5E1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9);
        let rows: Vec<usize> = (0..picks % (m + 3)).map(|_| rng.gen_range(0..m)).collect();
        let cols: Vec<usize> = (0..picks % (n + 5)).map(|_| rng.gen_range(0..n)).collect();
        let a_sub = Matrix::from_fn(rows.len(), k, |r, l| a.get(rows[r], l));
        for threads in [1usize, 2] {
            let (full, by_rows, by_cols) = vqmc_tensor::par::with_threads(threads, || {
                let mut by_cols = dirty(seed);
                gemm::gemm_nt_rows_into(&a, &b, &cols, &mut by_cols);
                (gemm::gemm_nt(&a, &b), gemm::gemm_nt(&a_sub, &b), by_cols)
            });
            prop_assert_eq!(by_rows.shape(), (rows.len(), n));
            prop_assert_eq!(by_cols.shape(), (m, cols.len()));
            for (r, &src) in rows.iter().enumerate() {
                for j in 0..n {
                    prop_assert_eq!(by_rows.get(r, j).to_bits(), full.get(src, j).to_bits(),
                        "A row {} (as {}) col {} at ({},{},{}) t={}", src, r, j, m, n, k, threads);
                }
            }
            for i in 0..m {
                for (q, &src) in cols.iter().enumerate() {
                    prop_assert_eq!(by_cols.get(i, q).to_bits(), full.get(i, src).to_bits(),
                        "row {} B row {} (as {}) at ({},{},{}) t={}", i, src, q, m, n, k, threads);
                }
            }
        }
    }

    /// `gemm_nt` across the `NC` B-row block boundary (the L2 loop).
    #[test]
    fn gemm_nt_matches_reference_at_nc_block(m in 0usize..12, nr in 0usize..64, k in 0usize..40, seed in 0u64..1000) {
        let n = near(NC, nr);
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0xC);
        assert_close(&gemm::gemm_nt(&a, &b), &gemm_reference(&a, &b.transpose()), k, "gemm_nt@NC");
    }

    /// `gemm_nn` equals the naive triple loop.
    #[test]
    fn gemm_nn_matches_reference(m in 0usize..40, n in 0usize..40, k in 0usize..40, seed in 0u64..1000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0xD);
        assert_close(&gemm::gemm_nn(&a, &b), &gemm_reference(&a, &b), k, "gemm_nn");
    }

    /// `gemm_tn` equals the naive triple loop.
    #[test]
    fn gemm_tn_matches_reference(m in 0usize..40, n in 0usize..40, k in 0usize..40, seed in 0u64..1000) {
        let a = rand_matrix(k, m, seed);
        let b = rand_matrix(k, n, seed ^ 0xE);
        assert_close(&gemm::gemm_tn(&a, &b), &gemm_reference(&a.transpose(), &b), k, "gemm_tn");
    }

    /// Every GEMM `_into` variant writing a dirty, wrong-shaped buffer
    /// is bit-identical to its allocating twin.
    #[test]
    fn gemm_into_bit_identical(m in 0usize..24, n in 0usize..24, k in 0usize..24, seed in 0u64..1000) {
        let a = rand_matrix(m, k, seed);
        let b_nt = rand_matrix(n, k, seed ^ 0x1);
        let b_nn = rand_matrix(k, n, seed ^ 0x2);
        let a_tn = rand_matrix(k, m, seed ^ 0x3);

        let mut c = dirty(seed);
        gemm::gemm_nt_into(&a, &b_nt, &mut c);
        prop_assert!(c == gemm::gemm_nt(&a, &b_nt), "gemm_nt_into");

        let mut c = dirty(seed ^ 0x10);
        gemm::gemm_nn_into(&a, &b_nn, &mut c);
        prop_assert!(c == gemm::gemm_nn(&a, &b_nn), "gemm_nn_into");

        let mut c = dirty(seed ^ 0x20);
        gemm::gemm_tn_into(&a_tn, &b_nn, &mut c);
        prop_assert!(c == gemm::gemm_tn(&a_tn, &b_nn), "gemm_tn_into");
    }

    /// Matrix-vector and transpose `_into` kernels are bit-identical to
    /// their allocating twins on dirty outputs.
    #[test]
    fn matvec_and_transpose_into_bit_identical(m in 0usize..24, n in 0usize..24, seed in 0u64..1000) {
        let a = rand_matrix(m, n, seed);
        let x = rand_vector(n, seed ^ 0x4);
        let y = rand_vector(m, seed ^ 0x5);

        let mut out = rand_vector(7, seed ^ 0x6);
        a.matvec_into(&x, &mut out);
        prop_assert!(out == a.matvec(&x), "matvec_into");

        let mut out = rand_vector(7, seed ^ 0x7);
        a.matvec_t_into(&y, &mut out);
        prop_assert!(out == a.matvec_t(&y), "matvec_t_into");

        let mut out = dirty(seed ^ 0x8);
        a.transpose_into(&mut out);
        prop_assert!(out == a.transpose(), "transpose_into");
    }

    /// Spin-batch lowering `_into` kernels are bit-identical to their
    /// allocating twins on dirty outputs.
    #[test]
    fn batch_lowering_into_bit_identical(bs in 0usize..24, n in 1usize..16, seed in 0u64..1000) {
        let batch = SpinBatch::from_fn(bs, n, |s, i| {
            ((s.wrapping_mul(31) ^ i.wrapping_mul(17) ^ seed as usize) % 2) as u8
        });
        let mut out = dirty(seed ^ 0x9);
        batch.to_matrix_into(&mut out);
        prop_assert!(out == batch.to_matrix(), "to_matrix_into");

        let mut out = dirty(seed ^ 0xA);
        batch.to_ising_matrix_into(&mut out);
        prop_assert!(out == batch.to_ising_matrix(), "to_ising_matrix_into");
    }

    /// Workspace-pooled checkouts do not change kernel results: running
    /// a GEMM into a pool buffer that previously held other (dirty)
    /// data matches the allocating kernel bit-for-bit.
    #[test]
    fn pooled_buffers_do_not_leak_state(m in 0usize..16, n in 0usize..16, k in 0usize..16, seed in 0u64..1000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0xF);
        let mut ws = Workspace::new();
        // Park a dirty buffer, then check it out as the GEMM output.
        ws.give(rand_vector(37, seed ^ 0x11).into_vec());
        let mut c = ws.take_matrix(0, 0);
        gemm::gemm_nt_into(&a, &b, &mut c);
        prop_assert!(c == gemm::gemm_nt(&a, &b), "pooled gemm_nt_into");
        ws.give_matrix(c);
        prop_assert_eq!(ws.parked(), 1);
    }
}

/// The pool-parallel code path — shapes crossing the GEMM FLOP gate,
/// run at several thread counts via `par::with_threads` — agrees with
/// the naive reference too.  Deterministic shapes straddling tile
/// boundaries; not a proptest so the expensive cases run once.
#[test]
fn parallel_paths_match_reference() {
    for &(m, n, k) in &[
        (MR * 33 + 1, NR * 13 + 2, 29),
        (130, NC + 5, KC + 3),
        (2 * NC, 2 * MR, 601),
    ] {
        let a = rand_matrix(m, k, 77);
        let b = rand_matrix(n, k, 78);
        let b_nn = rand_matrix(k, n, 79);
        let a_tn = rand_matrix(k, m, 80);
        let seq = vqmc_tensor::par::with_threads(1, || {
            (
                gemm::gemm_nt(&a, &b),
                gemm::gemm_nn(&a, &b_nn),
                gemm::gemm_tn(&a_tn, &b_nn),
            )
        });
        assert_close(&seq.0, &gemm_reference(&a, &b.transpose()), k, "par gemm_nt");
        assert_close(&seq.1, &gemm_reference(&a, &b_nn), k, "par gemm_nn");
        assert_close(&seq.2, &gemm_reference(&a_tn.transpose(), &b_nn), k, "par gemm_tn");
        for threads in [2, 4] {
            let par = vqmc_tensor::par::with_threads(threads, || {
                (
                    gemm::gemm_nt(&a, &b),
                    gemm::gemm_nn(&a, &b_nn),
                    gemm::gemm_tn(&a_tn, &b_nn),
                )
            });
            assert!(par.0 == seq.0, "gemm_nt t={threads} ({m},{n},{k})");
            assert!(par.1 == seq.1, "gemm_nn t={threads} ({m},{n},{k})");
            assert!(par.2 == seq.2, "gemm_tn t={threads} ({m},{n},{k})");
        }
    }
}
