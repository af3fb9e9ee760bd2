//! Cache-blocked, pool-parallel GEMM kernels.
//!
//! Three layout variants cover every dense product in the workspace:
//!
//! * [`gemm_nt`] — `C[m,n] = A[m,k] * B[n,k]^T`.  The forward pass of a
//!   fully-connected layer (`Y = X W^T`): both operands stream row-major,
//!   so the kernel can register-block without packing.
//! * [`gemm_nn`] — `C[m,n] = A[m,k] * B[k,n]`.  Backprop's input gradient
//!   (`dX = dY W`); implemented as an axpy-accumulation over B's rows so
//!   B is still streamed contiguously.
//! * [`gemm_tn`] — `C[m,n] = A[k,m]^T * B[k,n]`.  Backprop's weight
//!   gradient (`dW = dY^T X`); an outer-product accumulation.
//!
//! Each kernel has an `_into` twin writing into a caller-owned matrix
//! (reshaped in place, so a warm buffer is never reallocated); the
//! allocating forms are thin wrappers over those.
//!
//! ## Packed SIMD path (the production path on AVX2+FMA hosts)
//!
//! When the [`crate::simd`] dispatch resolves to the AVX2 arm, all
//! three layout variants run one shared BLIS-style packed driver
//! ([`gemm_packed`]): operands are repacked into contiguous,
//! lane-ordered micro-panels (`kc×8` for A, `kc×4` for B) drawn from a
//! thread-local [`Workspace`] pool, and the inner loop is the 8×4 FMA
//! microkernel ([`crate::simd::Kernels::micro_8x4`]).  Packing is what
//! makes the layouts converge — `nn`/`tn` differ from `nt` only in
//! *which* strides the pack routines gather — and is also what keeps
//! the microkernel reading purely sequential, aligned memory.  Blocking:
//! `k` by [`KC`] (micro-panel depth), output rows by [`MC`]
//! (`MC×KC×8 B = 512 KiB`, half the L2), output columns by
//! [`NC_PACKED`] (the packed B panel, L3-resident).  The pack buffers
//! come from a thread-local pool, so steady-state training performs
//! zero heap allocations (the PR 1 invariant).
//!
//! ## Scalar path (fallback arm)
//!
//! `gemm_nt` otherwise runs the original blocked loop nest: a 4×4
//! register accumulator tile ([`MR`]×[`NR`]) in the innermost position,
//! `k` blocked by [`KC`] so a 4-row A-slab stays L1-resident, and B's
//! rows blocked by [`NC`] so the B-panel being swept is reused from L2
//! across the whole A row-panel sweep.  `nn`/`nt` keep their axpy /
//! outer-product formulations on this arm.
//!
//! ## Parallelisation (the [`crate::par`] pool)
//!
//! All three variants parallelise over **output-row slabs**: the packed
//! driver splits `m` into one [`MR_SIMD`]-aligned contiguous slab per
//! worker ([`packed_driver`]), each worker running the full BLIS loop
//! nest on its slab with its *own* thread-local pack buffers (workers
//! re-pack the shared B panel redundantly — an `O(1/slab_rows)`
//! overhead that buys the absence of any cross-worker handoff).  The
//! scalar arm stripes the same way at [`MR`] alignment.  Either way a
//! `C` element's value is a function of its row and column alone — the
//! per-element `k`-summation order (sequential within a `KC` block,
//! blocks ascending) does not depend on which slab the row landed in —
//! so the parallel results are **bit-identical** to the sequential
//! ones at every thread count (`tests/thread_identity.rs`).  `tn`
//! avoids a partial-`C` reduction by having each worker scan the whole
//! shared `k` dimension for its rows.
//!
//! ## Position independence of `nt`
//!
//! On either arm a `gemm_nt` element is `0 +` one `k`-ordered
//! multiply-add chain per `KC` block, the blocks added in ascending
//! order: the quad tiles, the row and column remainders and every lane
//! of the packed microkernel run the same chain.  So an element's bits
//! depend on its `A` row and `B` row alone — not on where the row sits
//! in the tile grid, on `m` or `n`, or on which other rows share the
//! call.  [`gemm_nt_rows_into`] (a row selection of `B`) relies on this,
//! and MADE's flip-local neighbour pass relies on it to reproduce a full
//! forward pass bit for bit (`tests/kernel_proptests.rs` pins it on
//! both arms).

use std::cell::RefCell;

use crate::matrix::Matrix;
use crate::par;
use crate::simd::{self, MicroKernel};
use crate::vector::axpy;
use crate::workspace::Workspace;

/// Microkernel accumulator tile height (A rows per tile).
pub const MR: usize = 4;
/// Microkernel accumulator tile width (B rows per tile).
pub const NR: usize = 4;
/// `k`-dimension block: `MR` A-rows × `KC` f64 = 8 KiB, safely L1.
pub const KC: usize = 256;
/// B-row block: `NC` rows × `KC` f64 = 128 KiB, sized for L2 residency.
pub const NC: usize = 64;

/// Packed-path microkernel tile height (8 C rows, two `ymm` per column).
pub const MR_SIMD: usize = 8;
/// Packed-path microkernel tile width (one `ymm` of C columns).
pub const NR_SIMD: usize = 4;
/// Packed A-block rows: `MC`×[`KC`]×8 B = 512 KiB, half the L2.
const MC: usize = 256;
/// Packed B-panel columns: [`KC`]×`NC_PACKED`×8 B = 4 MiB, L3-resident.
const NC_PACKED: usize = 2048;

/// A panel-packing routine: `(block_start, block_len, k_start, k_len, dst)`
/// fills `dst` with the packed micro-panel layout the microkernel reads.
type PackPanel<'a> = dyn Fn(usize, usize, usize, usize, &mut [f64]) + Sync + 'a;

thread_local! {
    /// Pool for the packed A/B micro-panel buffers.  Private to this
    /// module and only borrowed transiently (`take`/`give` are single
    /// calls), so re-entrancy cannot observe an outstanding borrow.
    /// Being thread-local, every pool worker owns its own pack buffers
    /// — the parallel packed driver needs no buffer handoff and no
    /// locking.  Capacities grow to the high-water mark of the shapes
    /// seen on that thread, after which `take` allocates nothing — the
    /// zero-allocation steady-state invariant holds on the caller *and*
    /// on every warm worker (asserted by the pool counting-allocator
    /// test in `vqmc-core`).
    static PACK_POOL: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// A zeroed pool buffer of exactly `len` elements (zero-fill is what
/// lets the pack routines skip writing the padded panel tails).
fn take_pack(len: usize) -> Vec<f64> {
    PACK_POOL.with(|p| p.borrow_mut().take(len))
}

fn give_pack(buf: Vec<f64>) {
    PACK_POOL.with(|p| p.borrow_mut().give(buf))
}

/// The packed-path microkernel, when the production dispatch resolved
/// to a vector arm.
fn packed_micro() -> Option<MicroKernel> {
    let k = simd::kernels();
    (k.backend != simd::Backend::Scalar).then_some(k.micro_8x4)
}

/// Parallel front-end for [`gemm_packed`]: when the shape clears
/// [`par::should_parallelize_gemm`], the output rows are split into one
/// `MR_SIMD`-aligned contiguous slab per worker and each worker runs
/// the *full* packed loop nest on its slab (own thread-local pack
/// buffers, shared read-only operands).  Slab boundaries land on
/// microtile edges, so every `C` element sees exactly the `k`-block
/// accumulation order it sees in the sequential sweep — bit-identical
/// output at any thread count.  Below the gate (or at one thread) this
/// is exactly `gemm_packed`.
fn packed_driver(
    m: usize,
    n: usize,
    k: usize,
    pack_a: &PackPanel<'_>,
    pack_b: &PackPanel<'_>,
    c: &mut [f64],
    micro: MicroKernel,
) {
    let units = m.div_ceil(MR_SIMD);
    let parts = par::active_threads().min(units.max(1));
    if parts <= 1 || !par::should_parallelize_gemm(m * n * k) {
        gemm_packed(m, n, k, pack_a, pack_b, c, micro);
        return;
    }
    let base = par::SendPtr(c.as_mut_ptr());
    par::run(parts, &|w| {
        let u = par::stripe(units, parts, w);
        let r0 = (u.start * MR_SIMD).min(m);
        let r1 = (u.end * MR_SIMD).min(m);
        if r0 < r1 {
            // SAFETY: stripes are disjoint, contiguous row ranges of `c`,
            // and the region joins before `c`'s borrow ends.
            let slab =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(r0 * n), (r1 - r0) * n) };
            gemm_packed(
                r1 - r0,
                n,
                k,
                |i0, ic, l0, lc, buf| pack_a(r0 + i0, ic, l0, lc, buf),
                pack_b,
                slab,
                micro,
            );
        }
    });
}

/// Gathers *rows* `[r0, r0+rc)` (k-slice `[l0, l0+lc)`) of a row-major
/// operand into `ph`-high micro-panels:
/// `buf[panel*ph*lc + p*ph + r] = src[r0 + panel*ph + r, l0 + p]`,
/// where row `j` means `src` row `sel[j]` when a selection is given.
/// Panel tails beyond `rc` stay at the pool's zero fill.
#[allow(clippy::too_many_arguments)]
fn pack_rows(
    src: &Matrix,
    sel: Option<&[usize]>,
    r0: usize,
    rc: usize,
    l0: usize,
    lc: usize,
    ph: usize,
    buf: &mut [f64],
) {
    for (ip, panel) in buf.chunks_mut(ph * lc).enumerate() {
        let rows_here = ph.min(rc.saturating_sub(ip * ph));
        for r in 0..rows_here {
            let j = r0 + ip * ph + r;
            let row = &src.row(sel.map_or(j, |rows| rows[j]))[l0..l0 + lc];
            for (p, &v) in row.iter().enumerate() {
                panel[p * ph + r] = v;
            }
        }
    }
}

/// Gathers *columns* `[c0, c0+cc)` of rows `[l0, l0+lc)` into `ph`-wide
/// micro-panels: `buf[panel*ph*lc + p*ph + q] = src[l0 + p, c0 +
/// panel*ph + q]`.  Reads are contiguous runs of `ph`, so packing a
/// `k`-major operand streams it row-major exactly once.
fn pack_cols(src: &Matrix, c0: usize, cc: usize, l0: usize, lc: usize, ph: usize, buf: &mut [f64]) {
    let panels = cc.div_ceil(ph);
    for p in 0..lc {
        let row = &src.row(l0 + p)[c0..c0 + cc];
        for jp in 0..panels {
            let w = ph.min(cc - jp * ph);
            buf[jp * ph * lc + p * ph..][..w].copy_from_slice(&row[jp * ph..jp * ph + w]);
        }
    }
}

/// The shared BLIS-style packed driver: loop nest `l0 (KC) → j0
/// (NC_PACKED, pack B) → i0 (MC, pack A) → jp → ip (microkernel)`.
/// The microkernel overwrites an 8×4 tile with the product over the
/// current `k`-block; the valid `iv×jv` region is then accumulated into
/// `C`, which also handles the partial-tile edges (packed tails are
/// zero, so the extra lanes compute zeros).
///
/// The `k`-summation order per element is identical to the scalar
/// blocked path: sequential within a `KC` block, blocks in ascending
/// order — only the fused rounding of the FMA differs.
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    pack_a: impl Fn(usize, usize, usize, usize, &mut [f64]),
    pack_b: impl Fn(usize, usize, usize, usize, &mut [f64]),
    c: &mut [f64],
    micro: MicroKernel,
) {
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut tile = [0.0f64; MR_SIMD * NR_SIMD];
    let mut l0 = 0;
    while l0 < k {
        let lc = KC.min(k - l0);
        let mut j0 = 0;
        while j0 < n {
            let jc = NC_PACKED.min(n - j0);
            let jpanels = jc.div_ceil(NR_SIMD);
            let mut bbuf = take_pack(jpanels * NR_SIMD * lc);
            pack_b(j0, jc, l0, lc, &mut bbuf);
            let mut i0 = 0;
            while i0 < m {
                let ic = MC.min(m - i0);
                let ipanels = ic.div_ceil(MR_SIMD);
                let mut abuf = take_pack(ipanels * MR_SIMD * lc);
                pack_a(i0, ic, l0, lc, &mut abuf);
                for jp in 0..jpanels {
                    let j = j0 + jp * NR_SIMD;
                    let jv = NR_SIMD.min(j0 + jc - j);
                    let bp = bbuf[jp * NR_SIMD * lc..].as_ptr();
                    for ip in 0..ipanels {
                        let i = i0 + ip * MR_SIMD;
                        let iv = MR_SIMD.min(i0 + ic - i);
                        let ap = abuf[ip * MR_SIMD * lc..].as_ptr();
                        // SAFETY: the packed panels hold `lc` groups of
                        // MR_SIMD/NR_SIMD elements, `tile` has 32, and
                        // vector microkernels are only installed after
                        // runtime feature detection.
                        unsafe { micro(lc, ap, bp, tile.as_mut_ptr()) };
                        for r in 0..iv {
                            let base = (i + r) * n + j;
                            for (cv, tv) in c[base..base + jv].iter_mut().zip(&tile[r * NR_SIMD..])
                            {
                                *cv += tv;
                            }
                        }
                    }
                }
                give_pack(abuf);
                i0 += ic;
            }
            give_pack(bbuf);
            j0 += jc;
        }
        l0 += lc;
    }
}

/// Packed `nt` with an explicit microkernel.  Hidden: the property
/// tests use it to pit the AVX2 microkernel against its scalar twin;
/// production code goes through [`gemm_nt_into`].
#[doc(hidden)]
pub fn gemm_nt_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: MicroKernel) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nt: inner dimensions disagree (A is {m}x{k}, B^T is {kb}x{n})"
    );
    c.resize(m, n);
    gemm_packed(
        m,
        n,
        k,
        |i0, ic, l0, lc, buf| pack_rows(a, None, i0, ic, l0, lc, MR_SIMD, buf),
        |j0, jc, l0, lc, buf| pack_rows(b, None, j0, jc, l0, lc, NR_SIMD, buf),
        c.as_mut_slice(),
        micro,
    );
}

/// Packed `nn` with an explicit microkernel (see [`gemm_nt_packed_with`]).
#[doc(hidden)]
pub fn gemm_nn_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: MicroKernel) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nn: inner dimensions disagree (A is {m}x{k}, B is {kb}x{n})"
    );
    c.resize(m, n);
    gemm_packed(
        m,
        n,
        k,
        |i0, ic, l0, lc, buf| pack_rows(a, None, i0, ic, l0, lc, MR_SIMD, buf),
        |j0, jc, l0, lc, buf| pack_cols(b, j0, jc, l0, lc, NR_SIMD, buf),
        c.as_mut_slice(),
        micro,
    );
}

/// Packed `tn` with an explicit microkernel (see [`gemm_nt_packed_with`]).
#[doc(hidden)]
pub fn gemm_tn_packed_with(a: &Matrix, b: &Matrix, c: &mut Matrix, micro: MicroKernel) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_tn: outer dimensions disagree (A^T is {m}x{k}, B is {kb}x{n})"
    );
    c.resize(m, n);
    gemm_packed(
        m,
        n,
        k,
        |i0, ic, l0, lc, buf| pack_cols(a, i0, ic, l0, lc, MR_SIMD, buf),
        |j0, jc, l0, lc, buf| pack_cols(b, j0, jc, l0, lc, NR_SIMD, buf),
        c.as_mut_slice(),
        micro,
    );
}

/// `C[m,n] = A[m,k] * B[n,k]^T` (B transposed: both row-major streams).
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm_nt_into(a, b, &mut c);
    c
}

/// [`gemm_nt`] into a caller-owned output (reshaped in place).
pub fn gemm_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    nt_into(a, b, None, c);
}

/// `C[m, j] = A[m,:] · B[rows[j],:]` — [`gemm_nt_into`] against a
/// selection of `B`'s rows (any order, repeats allowed), read in place
/// while packing: no copy of the selected rows is made.  Every entry is
/// bit-identical to the matching entry of the full product (see the
/// module docs on position independence).
pub fn gemm_nt_rows_into(a: &Matrix, b: &Matrix, rows: &[usize], c: &mut Matrix) {
    nt_into(a, b, Some(rows), c);
}

fn nt_into(a: &Matrix, b: &Matrix, sel: Option<&[usize]>, c: &mut Matrix) {
    let (m, k) = a.shape();
    let kb = b.cols();
    let n = sel.map_or(b.rows(), <[usize]>::len);
    assert_eq!(
        k, kb,
        "gemm_nt: inner dimensions disagree (A is {m}x{k}, B^T is {kb}x{n})"
    );
    c.resize(m, n);
    if let Some(micro) = packed_micro() {
        packed_driver(
            m,
            n,
            k,
            &|i0, ic, l0, lc, buf| pack_rows(a, None, i0, ic, l0, lc, MR_SIMD, buf),
            &|j0, jc, l0, lc, buf| pack_rows(b, sel, j0, jc, l0, lc, NR_SIMD, buf),
            c.as_mut_slice(),
            micro,
        );
    } else {
        nt_striped(a, b, sel, c.as_mut_slice());
    }
}

/// Scalar-arm `nt`: `MR`-aligned row stripes over the pool when the
/// shape clears the FLOP gate, one sequential [`nt_panel`] otherwise.
/// Quad tiles and remainders run the same per-element chain, so the
/// per-row value is partition-invariant, hence bit-identical.
fn nt_striped(a: &Matrix, b: &Matrix, sel: Option<&[usize]>, c: &mut [f64]) {
    let (m, k) = a.shape();
    let n = sel.map_or(b.rows(), <[usize]>::len);
    let units = m.div_ceil(MR);
    let parts = par::active_threads().min(units.max(1));
    if parts <= 1 || !par::should_parallelize_gemm(m * n * k) {
        nt_panel(a, b, sel, c, 0);
        return;
    }
    let base = par::SendPtr(c.as_mut_ptr());
    par::run(parts, &|w| {
        let u = par::stripe(units, parts, w);
        let r0 = (u.start * MR).min(m);
        let r1 = (u.end * MR).min(m);
        if r0 < r1 {
            // SAFETY: disjoint contiguous row ranges; region joins before
            // the borrow of `c` ends.
            let slab =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(r0 * n), (r1 - r0) * n) };
            nt_panel(a, b, sel, slab, r0);
        }
    });
}

/// The scalar blocked `nt` path, bypassing SIMD dispatch.  Hidden:
/// kept callable so the benches can report the pre-SIMD baseline.
#[doc(hidden)]
pub fn gemm_nt_blocked_scalar_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nt: inner dimensions disagree (A is {m}x{k}, B^T is {kb}x{n})"
    );
    c.resize(m, n);
    nt_panel(a, b, None, c.as_mut_slice(), 0);
}

/// The 4×4 register-tile inner product: `acc[i][j] = aᵢ · bⱼ` over one
/// `k`-block.  All eight operand slices are trimmed to a common length
/// up front so the bounds checks vanish from the unrolled loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_4x4(
    a0: &[f64],
    a1: &[f64],
    a2: &[f64],
    a3: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> [[f64; NR]; MR] {
    let lc = a0.len();
    let (a1, a2, a3) = (&a1[..lc], &a2[..lc], &a3[..lc]);
    let (b0, b1, b2, b3) = (&b0[..lc], &b1[..lc], &b2[..lc], &b3[..lc]);
    let (mut c00, mut c01, mut c02, mut c03) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c10, mut c11, mut c12, mut c13) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c20, mut c21, mut c22, mut c23) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut c30, mut c31, mut c32, mut c33) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..lc {
        let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
        let (y0, y1, y2, y3) = (b0[i], b1[i], b2[i], b3[i]);
        c00 += x0 * y0;
        c01 += x0 * y1;
        c02 += x0 * y2;
        c03 += x0 * y3;
        c10 += x1 * y0;
        c11 += x1 * y1;
        c12 += x1 * y2;
        c13 += x1 * y3;
        c20 += x2 * y0;
        c21 += x2 * y1;
        c22 += x2 * y2;
        c23 += x2 * y3;
        c30 += x3 * y0;
        c31 += x3 * y1;
        c32 += x3 * y2;
        c33 += x3 * y3;
    }
    [
        [c00, c01, c02, c03],
        [c10, c11, c12, c13],
        [c20, c21, c22, c23],
        [c30, c31, c32, c33],
    ]
}

/// One `k`-ordered multiply-add chain from zero: the per-element order
/// of [`micro_4x4`], used for the tile remainders so an element's bits
/// do not depend on its position in the tile grid.
#[inline(always)]
fn dot_chain(a: &[f64], b: &[f64]) -> f64 {
    let b = &b[..a.len()];
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Blocked `nt` sweep writing output rows `[row0, row0 + c_panel.len()/n)`;
/// `C` column `j` reads `B` row `sel[j]` when a selection is given.
fn nt_panel(a: &Matrix, b: &Matrix, sel: Option<&[usize]>, c_panel: &mut [f64], row0: usize) {
    let k = a.cols();
    let n = sel.map_or(b.rows(), <[usize]>::len);
    if n == 0 || c_panel.is_empty() {
        return;
    }
    let b_row = |j: usize| b.row(sel.map_or(j, |rows| rows[j]));
    let rows_here = c_panel.len() / n;
    c_panel.fill(0.0);

    let mut l0 = 0;
    while l0 < k {
        let lc = KC.min(k - l0);
        let mut j0 = 0;
        while j0 < n {
            let j_end = j0 + NC.min(n - j0);
            let mut r = 0;
            while r + MR <= rows_here {
                let a0 = &a.row(row0 + r)[l0..l0 + lc];
                let a1 = &a.row(row0 + r + 1)[l0..l0 + lc];
                let a2 = &a.row(row0 + r + 2)[l0..l0 + lc];
                let a3 = &a.row(row0 + r + 3)[l0..l0 + lc];
                let mut j = j0;
                while j + NR <= j_end {
                    let b0 = &b_row(j)[l0..l0 + lc];
                    let b1 = &b_row(j + 1)[l0..l0 + lc];
                    let b2 = &b_row(j + 2)[l0..l0 + lc];
                    let b3 = &b_row(j + 3)[l0..l0 + lc];
                    let acc = micro_4x4(a0, a1, a2, a3, b0, b1, b2, b3);
                    for (ri, acc_row) in acc.iter().enumerate() {
                        let base = (r + ri) * n + j;
                        for (cv, av) in c_panel[base..base + NR].iter_mut().zip(acc_row) {
                            *cv += av;
                        }
                    }
                    j += NR;
                }
                // Column remainder: one B row against the four A rows.
                while j < j_end {
                    let bj = &b_row(j)[l0..l0 + lc];
                    c_panel[r * n + j] += dot_chain(a0, bj);
                    c_panel[(r + 1) * n + j] += dot_chain(a1, bj);
                    c_panel[(r + 2) * n + j] += dot_chain(a2, bj);
                    c_panel[(r + 3) * n + j] += dot_chain(a3, bj);
                    j += 1;
                }
                r += MR;
            }
            // Row remainder: the same chain per element.
            while r < rows_here {
                let a_row = &a.row(row0 + r)[l0..l0 + lc];
                for j in j0..j_end {
                    c_panel[r * n + j] += dot_chain(a_row, &b_row(j)[l0..l0 + lc]);
                }
                r += 1;
            }
            j0 = j_end;
        }
        l0 += lc;
    }
}

/// `C[m,n] = A[m,k] * B[k,n]`.
pub fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_nn_into(a, b, &mut c);
    c
}

/// [`gemm_nn`] into a caller-owned output (reshaped in place).
pub fn gemm_nn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_nn: inner dimensions disagree (A is {m}x{k}, B is {kb}x{n})"
    );
    c.resize(m, n);
    if let Some(micro) = packed_micro() {
        packed_driver(
            m,
            n,
            k,
            &|i0, ic, l0, lc, buf| pack_rows(a, None, i0, ic, l0, lc, MR_SIMD, buf),
            &|j0, jc, l0, lc, buf| pack_cols(b, j0, jc, l0, lc, NR_SIMD, buf),
            c.as_mut_slice(),
            micro,
        );
        return;
    }
    c.fill(0.0);
    if n == 0 {
        return;
    }
    if par::should_parallelize_gemm(m * n * k) {
        // Row stripes: each output row is an independent axpy
        // accumulation over A's row, so the partition is bit-identical.
        par::for_each_stripe_mut(c.as_mut_slice(), n, |off, c_rows| {
            let row0 = off / n;
            for (local_r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
                accumulate_row_nn(a.row(row0 + local_r), b, c_row);
            }
        });
    } else {
        for r in 0..m {
            // Split borrows: read A's row, write C's row.
            let a_row: &[f64] = a.row(r);
            let c_row = c.row_mut(r);
            accumulate_row_nn(a_row, b, c_row);
        }
    }
}

/// One output row of `gemm_nn`: `c_row += sum_l a_row[l] * B[l, :]`,
/// streaming B row-major.
#[inline]
fn accumulate_row_nn(a_row: &[f64], b: &Matrix, c_row: &mut [f64]) {
    for (l, &a_val) in a_row.iter().enumerate() {
        if a_val != 0.0 {
            axpy(c_row, a_val, b.row(l));
        }
    }
}

/// `C[m,n] = A[k,m]^T * B[k,n]` (outer-product accumulation over `k`).
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm_tn_into(a, b, &mut c);
    c
}

/// [`gemm_tn`] into a caller-owned output (reshaped in place).
pub fn gemm_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(
        k, kb,
        "gemm_tn: outer dimensions disagree (A^T is {m}x{k}, B is {kb}x{n})"
    );
    c.resize(m, n);
    if let Some(micro) = packed_micro() {
        packed_driver(
            m,
            n,
            k,
            &|i0, ic, l0, lc, buf| pack_cols(a, i0, ic, l0, lc, MR_SIMD, buf),
            &|j0, jc, l0, lc, buf| pack_cols(b, j0, jc, l0, lc, NR_SIMD, buf),
            c.as_mut_slice(),
            micro,
        );
        return;
    }
    c.fill(0.0);
    if n == 0 {
        return;
    }
    if par::should_parallelize_gemm(m * n * k) && m >= 2 {
        // Each worker owns a stripe of output rows and scans the full
        // shared k dimension for them: no partial-C reduction needed,
        // and each row's l-ascending axpy chain matches the sequential
        // sweep exactly — bit-identical at any thread count.
        par::for_each_stripe_mut(c.as_mut_slice(), n, |off, c_rows| {
            let row0 = off / n;
            for l in 0..k {
                let a_row = a.row(l);
                let b_row = b.row(l);
                for (local_r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
                    let coeff = a_row[row0 + local_r];
                    if coeff != 0.0 {
                        axpy(c_row, coeff, b_row);
                    }
                }
            }
        });
    } else {
        for l in 0..k {
            let a_row = a.row(l);
            let b_row = b.row(l);
            for (r, &coeff) in a_row.iter().take(m).enumerate() {
                if coeff != 0.0 {
                    axpy(c.row_mut(r), coeff, b_row);
                }
            }
        }
    }
}

/// Naive triple-loop reference used by the tests to validate the blocked
/// kernels. Public so downstream crates' tests can reuse it.
pub fn gemm_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb);
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a.get(r, l) * b.get(l, j);
            }
            c.set(r, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill without pulling in rand.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn nt_matches_reference() {
        let a = mat(7, 5, 1);
        let b = mat(9, 5, 2);
        let c = gemm_nt(&a, &b);
        let c_ref = gemm_reference(&a, &b.transpose());
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn nt_matches_reference_across_tile_remainders() {
        // Sweep shapes around the MR/NR/KC/NC boundaries so every
        // remainder path of the blocked loop nest is exercised.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 3, 3),
            (4, 4, 4),
            (5, 7, 9),
            (8, 8, KC),
            (9, NC + 3, KC + 5),
            (MR * 3 + 2, NR * 5 + 1, 17),
        ] {
            let a = mat(m, k, m as u64 + 1);
            let b = mat(n, k, n as u64 + 100);
            let c = gemm_nt(&a, &b);
            let c_ref = gemm_reference(&a, &b.transpose());
            assert!(
                c.max_abs_diff(&c_ref) < 1e-10,
                "mismatch at shape ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn into_variants_reuse_and_reshape_output() {
        let a = mat(6, 8, 3);
        let b_nt = mat(5, 8, 4);
        let b_nn = mat(8, 5, 5);
        let a_tn = mat(8, 6, 6);

        // Start from a wrong-shaped, dirty output buffer.
        let mut c = mat(2, 2, 9);
        gemm_nt_into(&a, &b_nt, &mut c);
        assert!(c.max_abs_diff(&gemm_nt(&a, &b_nt)) == 0.0);

        gemm_nn_into(&a, &b_nn, &mut c);
        assert!(c.max_abs_diff(&gemm_nn(&a, &b_nn)) == 0.0);

        gemm_tn_into(&a_tn, &b_nn, &mut c);
        assert!(c.max_abs_diff(&gemm_tn(&a_tn, &b_nn)) == 0.0);
    }

    #[test]
    fn nn_matches_reference() {
        let a = mat(6, 8, 3);
        let b = mat(8, 4, 4);
        let c = gemm_nn(&a, &b);
        let c_ref = gemm_reference(&a, &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn tn_matches_reference() {
        let a = mat(8, 6, 5);
        let b = mat(8, 3, 6);
        let c = gemm_tn(&a, &b);
        let c_ref = gemm_reference(&a.transpose(), &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-12);
    }

    #[test]
    fn large_parallel_paths_match_reference() {
        // Big enough to cross PAR_GEMM_MIN_FLOPS (m*n*k >= 2^20) so the
        // pool branches of all three kernels actually fire under
        // with_threads.  Results must match the reference loosely and
        // the sequential sweep *bitwise* at every thread count.
        let a = mat(160, 96, 7);
        let b_nt = mat(112, 96, 8);
        let b_nn = mat(96, 112, 9);
        let a_tn = mat(96, 160, 10);
        const { assert!(160 * 112 * 96 >= par::PAR_GEMM_MIN_FLOPS) };

        let seq_nt = par::with_threads(1, || gemm_nt(&a, &b_nt));
        let seq_nn = par::with_threads(1, || gemm_nn(&a, &b_nn));
        let seq_tn = par::with_threads(1, || gemm_tn(&a_tn, &b_nn));
        assert!(seq_nt.max_abs_diff(&gemm_reference(&a, &b_nt.transpose())) < 1e-10);
        assert!(seq_nn.max_abs_diff(&gemm_reference(&a, &b_nn)) < 1e-10);
        assert!(seq_tn.max_abs_diff(&gemm_reference(&a_tn.transpose(), &b_nn)) < 1e-10);

        for threads in [2, 3, 4, 8] {
            let (p_nt, p_nn, p_tn) = par::with_threads(threads, || {
                (gemm_nt(&a, &b_nt), gemm_nn(&a, &b_nn), gemm_tn(&a_tn, &b_nn))
            });
            for (seq, par_c, name) in [
                (&seq_nt, &p_nt, "nt"),
                (&seq_nn, &p_nn, "nn"),
                (&seq_tn, &p_tn, "tn"),
            ] {
                assert!(
                    seq.as_slice()
                        .iter()
                        .zip(par_c.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name} not bit-identical at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(3, 5);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.shape(), (0, 3));

        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(3, 0);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));

        let a = mat(1, 1, 11);
        let b = mat(1, 1, 12);
        let c = gemm_nt(&a, &b);
        assert!((c.get(0, 0) - a.get(0, 0) * b.get(0, 0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn nt_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = gemm_nt(&a, &b);
    }
}
