//! The batched local-energy engine (paper Eq. 3).
//!
//! For a sample `x` the local energy is
//!
//! ```text
//! l(x) = (Hψ)(x) / ψ(x) = H_xx + Σ_i H_{x,yᵢ} · ψ(yᵢ)/ψ(x),   yᵢ = flip_i(x)
//! ```
//!
//! The wavefunction ratios are evaluated in *log space*
//! (`ψ(y)/ψ(x) = exp(logψ(y) − logψ(x))`), which is the standard VQMC
//! trick to avoid under/overflow of raw amplitudes.
//!
//! Cost profile: the diagonal is one vectorised pass; the off-diagonal
//! terms need `logψ` at every flip-neighbour of every sample — up to
//! `bs · n` extra configurations.  Two entry points evaluate them:
//!
//! * [`local_energies_into`] (the *closure path*) gathers neighbours into
//!   large *neighbour batches* and pushes them through a `logψ` closure
//!   in chunks — a small, fixed number of big forward passes, as the
//!   paper describes ("a fixed number of forward passes for physical
//!   quantity measurements"), with the chunk size capping peak memory.
//! * [`local_energies_flip_into`] (the *flip path*) hands the batch and
//!   a list of flip indices to a callback returning `logψ(x ⊕ eᵢ)` per
//!   sample and flip — `WaveFunction::flip_log_psi_into`, which MADE
//!   answers by prefix reuse instead of full forward passes.
//!
//! Both share the diagonal, the work-item gather and the
//! ratio/exp/scatter stage, in the same order and chunking, so they
//! return bit-identical energies whenever the callbacks agree bit for
//! bit.

use vqmc_tensor::{par, Matrix, SpinBatch, Vector, Workspace};

use crate::SparseRowHamiltonian;

/// Tuning for the local-energy engine.
#[derive(Clone, Copy, Debug)]
pub struct LocalEnergyConfig {
    /// Neighbour rows per evaluation.  The closure path evaluates at
    /// most this many neighbour configurations per forward pass, which
    /// bounds peak memory at `chunk_rows × n` spin bytes plus the
    /// wavefunction's activation footprint.  The flip path asks each
    /// callback for at most `max(1, chunk_rows / bs)` flips, i.e. about
    /// `chunk_rows` neighbour `logψ` values per call.
    pub chunk_rows: usize,
}

impl Default for LocalEnergyConfig {
    fn default() -> Self {
        LocalEnergyConfig { chunk_rows: 16_384 }
    }
}

/// Reusable scratch state for [`local_energies_into`] and
/// [`local_energies_flip_into`].
///
/// Owns every intermediate the engine needs — the off-diagonal work-item
/// list, the neighbour batch, the neighbour `logψ` buffers, and a
/// scratch pool for the diagonal kernel — so that repeated calls with
/// stable shapes perform no heap allocation.
#[derive(Debug, Default)]
pub struct LocalEnergyScratch {
    /// Scratch pool for the batched diagonal.
    ws: Workspace,
    /// Off-diagonal work items `(sample index, flip index, H_xy)`.
    items: Vec<(usize, usize, f64)>,
    /// Neighbour configurations of the current chunk (closure path).
    neigh: SpinBatch,
    /// `logψ` of the current neighbour chunk (closure path).
    log_psi_y: Vector,
    /// Wavefunction ratios `ψ(y)/ψ(x)` of the current chunk (filled with
    /// the log-ratios, exponentiated in one vectorised pass).
    ratios: Vec<f64>,
    /// Flip path: the distinct flip indices of the items, ascending.
    flips: Vec<usize>,
    /// Flip path: flip index → its row in `flip_lp` (`usize::MAX` when
    /// no item flips that bit).
    flip_row: Vec<usize>,
    /// Flip path: `logψ(x ⊕ e_{flips[r]})` at `r · bs + s`.
    flip_lp: Vec<f64>,
    /// Flip path: one callback's output (`flips × bs`).
    flip_out: Matrix,
}

impl LocalEnergyScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        LocalEnergyScratch::default()
    }
}

/// Computes the local energies of every sample in `batch`.
///
/// * `log_psi_x` — `logψ` of the batch itself (the caller already has it
///   from the sampling step; recomputation would waste a forward pass).
/// * `log_psi` — evaluator for arbitrary configuration batches.
///
/// Returns the vector `l(x)` per sample.
pub fn local_energies(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    log_psi: &mut dyn FnMut(&SpinBatch) -> Vector,
    cfg: LocalEnergyConfig,
) -> Vector {
    let mut scratch = LocalEnergyScratch::new();
    let mut out = Vector::default();
    local_energies_into(
        h,
        batch,
        log_psi_x,
        &mut |b, dst: &mut Vector| dst.copy_from(&log_psi(b)),
        cfg,
        &mut scratch,
        &mut out,
    );
    out
}

/// The diagonal into `out` and the off-diagonal work items into
/// `scratch.items`, shared by both entry points.  Returns `false` when
/// there are no off-diagonal items (a diagonal Hamiltonian).
fn diagonal_and_items(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    cfg: LocalEnergyConfig,
    scratch: &mut LocalEnergyScratch,
    out: &mut Vector,
) -> bool {
    let bs = batch.batch_size();
    assert_eq!(log_psi_x.len(), bs, "local_energies: logψ(x) length mismatch");
    assert_eq!(h.num_spins(), batch.num_spins(), "local_energies: spin-count mismatch");
    assert!(cfg.chunk_rows > 0, "local_energies: zero chunk size");

    // Diagonal part, vectorised.
    h.diagonal_batch_into(batch, &mut scratch.ws, out);

    // Gather neighbour work items: (sample index, flip index, H_xy).
    scratch.items.clear();
    for s in 0..bs {
        let items = &mut scratch.items;
        h.for_each_offdiag(batch.sample(s), &mut |i, v| {
            items.push((s, i, v));
        });
    }
    !scratch.items.is_empty()
}

/// Pool stripes for a chunk of `rows` neighbours of `n` spins: the
/// neighbour build and the log-ratio fill share this static partition.
fn chunk_parts(rows: usize, n: usize) -> usize {
    if par::should_parallelize(rows * n) {
        par::active_threads().min(rows.max(1))
    } else {
        1
    }
}

/// `out[s] += H_xy · exp(logψ(y) − logψ(x))` over one chunk of work
/// items, `log_psi_y(row)` giving the chunk's neighbour `logψ`.
///
/// The log-ratio fill is striped over the pool (each worker owns a
/// contiguous row range of the chunk — a static partition, so results
/// are bit-identical at any thread count); the exponential is one
/// vectorised elementwise pass; the scatter-accumulate stays sequential
/// because many rows can target the same sample `s` and the
/// accumulation order must not depend on the partition.
fn add_offdiag(
    chunk: &[(usize, usize, f64)],
    parts: usize,
    log_psi_x: &Vector,
    log_psi_y: impl Fn(usize) -> f64 + Sync,
    ratios: &mut Vec<f64>,
    out: &mut Vector,
) {
    let rows = chunk.len();
    ratios.resize(rows, 0.0);
    let pratios = par::SendPtr(ratios.as_mut_ptr());
    par::run(parts, &|w| {
        for row in par::stripe(rows, parts, w) {
            let (s, _, _) = chunk[row];
            // SAFETY: disjoint per-row writes (stripes partition the
            // chunk), inside the `rows`-long buffer resized above.
            unsafe {
                *pratios.get().add(row) = log_psi_y(row) - log_psi_x[s];
            }
        }
    });
    vqmc_tensor::ops::exp_slice(ratios);
    for (row, &(s, _, hxy)) in chunk.iter().enumerate() {
        out[s] += hxy * ratios[row];
    }
}

/// [`local_energies`] into a caller-owned vector with reusable scratch —
/// the steady-state training path performs no heap allocation here.
///
/// `log_psi` writes the neighbour-batch `logψ` into a caller-owned
/// vector so the wavefunction's workspace variants plug in directly.
pub fn local_energies_into(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    log_psi: &mut dyn FnMut(&SpinBatch, &mut Vector),
    cfg: LocalEnergyConfig,
    scratch: &mut LocalEnergyScratch,
    out: &mut Vector,
) {
    if !diagonal_and_items(h, batch, log_psi_x, cfg, scratch, out) {
        return; // purely diagonal Hamiltonian (Max-Cut / QUBO)
    }
    let n = batch.num_spins();

    // Evaluate neighbours in chunks: one big forward pass per chunk.
    // The neighbour build is striped over the pool like the ratio fill.
    for chunk in scratch.items.chunks(cfg.chunk_rows) {
        let rows = chunk.len();
        scratch.neigh.resize(rows, n);
        let parts = chunk_parts(rows, n);
        {
            let pneigh = par::SendPtr(scratch.neigh.as_bytes_mut().as_mut_ptr());
            par::run(parts, &|w| {
                let r = par::stripe(rows, parts, w);
                for row in r {
                    // SAFETY: row ranges are disjoint across workers and
                    // every row lies inside the `rows × n` byte buffer
                    // resized above; the region joins before the borrow
                    // of `neigh` ends.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(pneigh.get().add(row * n), n)
                    };
                    let (s, flip, _) = chunk[row];
                    dst.copy_from_slice(batch.sample(s));
                    dst[flip] ^= 1;
                }
            });
        }
        log_psi(&scratch.neigh, &mut scratch.log_psi_y);
        debug_assert_eq!(scratch.log_psi_y.len(), rows);
        let log_psi_y = &scratch.log_psi_y;
        add_offdiag(chunk, parts, log_psi_x, |row| log_psi_y[row], &mut scratch.ratios, out);
    }
}

/// [`local_energies_into`] for wavefunctions that evaluate flip
/// neighbours directly: `flip_log_psi(batch, flips, dst)` must write
/// `logψ(x ⊕ eᵢ)` for every sample `x` of `batch` and every `i` in
/// `flips` into `dst`, shaped `flips.len() × bs` (row per flip) — the
/// contract of `WaveFunction::flip_log_psi_into`.
///
/// The distinct flip indices of the work items are requested in
/// ascending order, at most `max(1, chunk_rows / bs)` per call; the
/// ratio/exp/scatter stage then runs over the same item chunks as the
/// closure path.  With a callback that matches the closure's `logψ` bit
/// for bit, the energies are bit-identical to [`local_energies_into`].
pub fn local_energies_flip_into(
    h: &dyn SparseRowHamiltonian,
    batch: &SpinBatch,
    log_psi_x: &Vector,
    flip_log_psi: &mut dyn FnMut(&SpinBatch, &[usize], &mut Matrix),
    cfg: LocalEnergyConfig,
    scratch: &mut LocalEnergyScratch,
    out: &mut Vector,
) {
    if !diagonal_and_items(h, batch, log_psi_x, cfg, scratch, out) {
        return; // purely diagonal Hamiltonian (Max-Cut / QUBO)
    }
    let (bs, n) = (batch.batch_size(), batch.num_spins());
    let LocalEnergyScratch {
        items,
        ratios,
        flips,
        flip_row,
        flip_lp,
        flip_out,
        ..
    } = scratch;

    // The distinct flips, ascending, and each one's row of `flip_lp`.
    flip_row.clear();
    flip_row.resize(n, usize::MAX);
    for &(_, i, _) in items.iter() {
        flip_row[i] = 0;
    }
    flips.clear();
    for (i, row) in flip_row.iter_mut().enumerate() {
        if *row != usize::MAX {
            *row = flips.len();
            flips.push(i);
        }
    }

    let per_call = (cfg.chunk_rows / bs).max(1);
    flip_lp.resize(flips.len() * bs, 0.0);
    for (dst, group) in flip_lp.chunks_mut(per_call * bs).zip(flips.chunks(per_call)) {
        flip_log_psi(batch, group, flip_out);
        assert_eq!(
            flip_out.shape(),
            (group.len(), bs),
            "local_energies: flip logψ shape mismatch"
        );
        dst.copy_from_slice(flip_out.as_slice());
    }

    let (flip_row, flip_lp) = (&*flip_row, &*flip_lp);
    for chunk in items.chunks(cfg.chunk_rows) {
        let parts = chunk_parts(chunk.len(), n);
        let log_psi_y = |row: usize| {
            let (s, i, _) = chunk[row];
            flip_lp[flip_row[i] * bs + s]
        };
        add_offdiag(chunk, parts, log_psi_x, log_psi_y, ratios, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use crate::tim::TransverseFieldIsing;
    use crate::{DenseHamiltonian, SparseRowHamiltonian};
    use vqmc_tensor::batch::{encode_config, enumerate_configs};

    /// An explicit positive wavefunction over the full basis, for exact
    /// cross-checks: ψ(x) given by a fixed formula.
    fn log_psi_formula(config: &[u8]) -> f64 {
        // Arbitrary smooth positive amplitude.
        let idx = encode_config(config) as f64;
        0.3 * (idx * 0.17).sin() - 0.05 * idx.sqrt()
    }

    fn eval_log_psi(batch: &SpinBatch) -> Vector {
        Vector::from_fn(batch.batch_size(), |s| log_psi_formula(batch.sample(s)))
    }

    /// Local energy from the dense materialisation:
    /// `l(x) = Σ_y H_xy ψ(y) / ψ(x)`.
    fn dense_local_energy(dense: &DenseHamiltonian, n: usize, x: &[u8]) -> f64 {
        let xi = encode_config(x);
        let all = enumerate_configs(n);
        let mut acc = 0.0;
        for (y, config) in all.samples().enumerate() {
            let hxy = dense.matrix().get(xi, y);
            if hxy != 0.0 {
                acc += hxy * (log_psi_formula(config) - log_psi_formula(x)).exp();
            }
        }
        acc
    }

    #[test]
    fn tim_local_energy_matches_dense_definition() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 91);
        let dense = DenseHamiltonian::from_sparse(&h);
        let batch = enumerate_configs(n);
        let log_psi_x = eval_log_psi(&batch);
        let local = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig::default(),
        );
        for (s, config) in batch.samples().enumerate() {
            let expected = dense_local_energy(&dense, n, config);
            assert!(
                (local[s] - expected).abs() < 1e-9,
                "sample {s}: {} vs {expected}",
                local[s]
            );
        }
    }

    #[test]
    fn diagonal_hamiltonian_local_energy_is_diagonal() {
        let mc = MaxCut::random(6, 12);
        let batch = enumerate_configs(6);
        let log_psi_x = eval_log_psi(&batch);
        let local = local_energies(
            &mc,
            &batch,
            &log_psi_x,
            &mut |_b: &SpinBatch| panic!("diagonal model must not evaluate neighbours"),
            LocalEnergyConfig::default(),
        );
        for (s, config) in batch.samples().enumerate() {
            assert_eq!(local[s], mc.diagonal(config));
        }
    }

    #[test]
    fn chunking_is_transparent() {
        let n = 4;
        let h = TransverseFieldIsing::random(n, 7);
        let batch = enumerate_configs(n);
        let log_psi_x = eval_log_psi(&batch);
        let big = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig { chunk_rows: 1_000_000 },
        );
        let tiny = local_energies(
            &h,
            &batch,
            &log_psi_x,
            &mut eval_log_psi,
            LocalEnergyConfig { chunk_rows: 3 },
        );
        for s in 0..batch.batch_size() {
            assert!((big[s] - tiny[s]).abs() < 1e-12);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_allocating() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 17);
        let mut scratch = LocalEnergyScratch::new();
        let mut out = Vector::default();
        // Reuse one scratch across differently sized batches; every call
        // must agree bit-for-bit with the allocating path.
        for bs in [1usize, 7, 32, 4] {
            let batch = SpinBatch::from_fn(bs, n, |s, i| ((s * 31 + i * 7) % 3 == 0) as u8);
            let log_psi_x = eval_log_psi(&batch);
            local_energies_into(
                &h,
                &batch,
                &log_psi_x,
                &mut |b, dst: &mut Vector| dst.copy_from(&eval_log_psi(b)),
                LocalEnergyConfig { chunk_rows: 6 },
                &mut scratch,
                &mut out,
            );
            let alloc = local_energies(
                &h,
                &batch,
                &log_psi_x,
                &mut eval_log_psi,
                LocalEnergyConfig { chunk_rows: 6 },
            );
            assert_eq!(out.as_slice(), alloc.as_slice(), "bs={bs}");
        }
    }

    /// The flip-path callback for the formula wavefunction: each
    /// neighbour built explicitly.
    fn flip_eval(b: &SpinBatch, flips: &[usize], dst: &mut Matrix) {
        *dst = Matrix::from_fn(flips.len(), b.batch_size(), |f, s| {
            let mut y = b.sample(s).to_vec();
            y[flips[f]] ^= 1;
            log_psi_formula(&y)
        });
    }

    #[test]
    fn flip_path_is_bit_identical_to_closure_path() {
        let n = 6;
        let h = TransverseFieldIsing::random(n, 29);
        let mut scratch = LocalEnergyScratch::new();
        let mut flip = Vector::default();
        let mut calls = Vec::new();
        // chunk 1 and 5 force one flip per call; 1000 takes every flip
        // in one call; the items chunking differs from the flip grouping.
        for chunk_rows in [1usize, 5, 13, 1000] {
            for bs in [1usize, 4, 9] {
                let batch = SpinBatch::from_fn(bs, n, |s, i| ((s * 5 + i * 3) % 4 == 1) as u8);
                let log_psi_x = eval_log_psi(&batch);
                let cfg = LocalEnergyConfig { chunk_rows };
                let closure = local_energies(&h, &batch, &log_psi_x, &mut eval_log_psi, cfg);
                calls.clear();
                local_energies_flip_into(
                    &h,
                    &batch,
                    &log_psi_x,
                    &mut |b, flips, dst| {
                        calls.push(flips.to_vec());
                        flip_eval(b, flips, dst)
                    },
                    cfg,
                    &mut scratch,
                    &mut flip,
                );
                let bits = |v: &Vector| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&flip), bits(&closure), "chunk {chunk_rows} bs {bs}");
                // Every flip requested once, ascending, within the bound.
                let per_call = (chunk_rows / bs).max(1);
                assert!(calls.iter().all(|c| !c.is_empty() && c.len() <= per_call));
                assert_eq!(calls.concat(), (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn flip_path_skips_the_callback_for_diagonal_hamiltonians() {
        let mc = MaxCut::random(5, 3);
        let batch = enumerate_configs(5);
        let log_psi_x = eval_log_psi(&batch);
        let mut out = Vector::default();
        local_energies_flip_into(
            &mc,
            &batch,
            &log_psi_x,
            &mut |_, _, _| panic!("diagonal model must not evaluate neighbours"),
            LocalEnergyConfig::default(),
            &mut LocalEnergyScratch::new(),
            &mut out,
        );
        for (s, config) in batch.samples().enumerate() {
            assert_eq!(out[s], mc.diagonal(config));
        }
    }

    #[test]
    fn exact_eigenvector_gives_constant_local_energy() {
        // At an exact eigenvector, l(x) = λ for every x (zero-variance
        // principle, Eq. 4).
        let n = 4;
        let h = TransverseFieldIsing::random(n, 3);
        let gs = crate::exact::ground_state(&h, 100, 1e-13);
        let batch = enumerate_configs(n);
        let logpsi = |b: &SpinBatch| {
            Vector::from_fn(b.batch_size(), |s| {
                let idx = encode_config(b.sample(s));
                gs.vector[idx].max(1e-300).ln()
            })
        };
        let mut eval = logpsi;
        let log_psi_x = eval(&batch);
        let local = local_energies(&h, &batch, &log_psi_x, &mut eval, LocalEnergyConfig::default());
        for s in 0..batch.batch_size() {
            // Components with non-negligible amplitude must sit at λ_min.
            if gs.vector[s] > 1e-4 {
                assert!(
                    (local[s] - gs.energy).abs() < 1e-4,
                    "x={s}: l={} λ={}",
                    local[s],
                    gs.energy
                );
            }
        }
    }
}
