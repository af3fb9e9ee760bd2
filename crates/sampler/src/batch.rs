//! The unified batched sampling layer: **one** incremental AUTO engine
//! shared by the training hot path (`Trainer` / `DistributedTrainer`
//! via [`IncrementalAutoSampler`](crate::IncrementalAutoSampler)), the
//! serving engine (`vqmc-serve` coalesces concurrent client requests
//! into one pass here), and the CLI's `evaluate`/`sample` commands.
//!
//! ```text
//! Trainer ─────────┐
//! DistributedTrainer ├─▶ BatchedSampling ─▶ BatchSampler ─┬▶ MadeBatchSampler (fused panel)
//! serve::Engine ───┤       (vqmc-nn)                      ├▶ NadeBatchSampler (native recursion)
//! CLI evaluate/sample ┘                                   └▶ McmcSampler      (RBM fallback)
//! ```
//!
//! Two call shapes, same arithmetic:
//!
//! * **coalesced requests** ([`BatchSampler::sample_requests`]) — every
//!   request's rows are drawn inside one combined pass, but from that
//!   request's *own* seeded RNG stream, so the result is bit-identical
//!   to sampling each request alone (property-tested);
//! * **single stream** ([`BatchSampler::sample_stream_into`]) — one
//!   caller-owned RNG drives the whole batch: the training path.  It is
//!   the one-request special case of the coalesced pass, so every
//!   kernel-level optimisation lands on training and serving at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_nn::{BatchedSampling, Made, MadeF32, Nade, Rbm, SamplingEngine, WaveFunction};
use vqmc_tensor::{ops, par, Matrix, Precision, SpinBatch, Vector};

use crate::{McmcSampler, SampleOutput, SampleStats};

/// A `Sample` request normalised for execution: callers (the serve
/// admission layer, tests) resolve seedless requests to a concrete seed
/// before reaching this layer, so execution is deterministic from here
/// on.
#[derive(Clone, Copy, Debug)]
pub struct SampleRequest {
    /// Number of configurations to draw.
    pub count: usize,
    /// RNG seed for this request's private stream.
    pub seed: u64,
}

/// Row-stripe granularity of the parallel panel pipeline: stripes are
/// multiples of 8 rows so the fused kernel's widest (8-row) register
/// blocks stay saturated on every worker but the last.
const PAR_ROW_UNIT: usize = 8;

/// Below this combined row count the pipeline stays on one thread: a
/// pool dispatch per bit cannot amortise over fewer than two stripes.
const PAR_ROWS_MIN: usize = 16;

/// Bits whose sign-flipped logits are buffered before one `log σ`
/// slice call (see [`DrawBuffers::ls_buf`]).
const LS_CHUNK: usize = 512;

/// Bit tile of the final transpose into the row-major output (64-bit
/// tiles keep both sides L1-resident).
const TILE: usize = 64;

/// The fused `sample_step_cols` kernel signature over a panel of `E`
/// (`f64` results in both precisions; see [`vqmc_tensor::simd`]).
type StepCols<E> = fn(&mut [E], usize, Option<&[E]>, &[E], &[E], f64, &mut [E], &mut [f64]);

/// The panel element of one execution precision: what the MADE panel
/// pipeline needs to know to run on `f64` (training and f64 serving)
/// or `f32` (the serving inference arm, DESIGN.md §4.1.1).  Everything
/// downstream of the kernel's `f64` logits — `σ`, the draw loop, the
/// `log σ` chunks, `logπ` — is shared verbatim by both precisions.
trait PanelElem: Copy + Default + From<u8> + Into<f64> + Send + Sync + std::fmt::Debug {
    /// Scratch stripes per row the kernel's contract asks for: 6 for
    /// f64 (5 accumulators + mask stash), 10 for f32 (9 + mask stash).
    const SCRATCH_STRIPES: usize;
    /// Sampler-layout weights derived from a [`Made`], keyed on its
    /// [`Made::params_version`].
    type Cache: Default + std::fmt::Debug + Sync;
    /// This precision's `sample_step_cols` entry of the dispatched
    /// kernel table.
    fn step() -> StepCols<Self>;
    /// Rebuilds `cache` if it was derived from other parameters.
    fn refresh(cache: &mut Self::Cache, wf: &Made);
    /// Column `i` of `W₁` (length `h₁`): bit `i`'s deferred update.
    fn w1t_row<'a>(cache: &'a Self::Cache, wf: &'a Made, i: usize) -> &'a [Self];
    /// Row `k` of layer `l ≥ 1`'s weights.
    fn w_row<'a>(cache: &'a Self::Cache, wf: &'a Made, l: usize, k: usize) -> &'a [Self];
    /// Layer `l`'s bias.
    fn bias<'a>(cache: &'a Self::Cache, wf: &'a Made, l: usize) -> &'a [Self];
    /// Runs `call` — one hidden unit's kernel reduction, accumulated in
    /// `f64` — so its result lands in the panel row `out`, staging
    /// through `dlog` where the panel is narrower than `f64`.
    fn land(out: &mut [Self], dlog: &mut [f64], call: impl FnOnce(&mut [f64]));
}

/// `W₁ᵀ` cached for the f64 pipeline (every other f64 weight is read
/// straight from the [`Made`]).
#[derive(Debug, Default)]
struct W1t {
    t: Matrix,
    version: Option<u64>,
}

impl PanelElem for f64 {
    const SCRATCH_STRIPES: usize = 6;
    type Cache = W1t;

    fn step() -> StepCols<f64> {
        vqmc_tensor::simd::kernels().sample_step_cols
    }

    fn refresh(cache: &mut W1t, wf: &Made) {
        if cache.version != Some(wf.params_version()) {
            wf.w1().transpose_into(&mut cache.t);
            cache.version = Some(wf.params_version());
        }
    }

    fn w1t_row<'a>(cache: &'a W1t, _: &'a Made, i: usize) -> &'a [f64] {
        cache.t.row(i)
    }

    fn w_row<'a>(_: &'a W1t, wf: &'a Made, l: usize, k: usize) -> &'a [f64] {
        wf.layers()[l].w().row(k)
    }

    fn bias<'a>(_: &'a W1t, wf: &'a Made, l: usize) -> &'a [f64] {
        wf.layers()[l].b().as_slice()
    }

    fn land(out: &mut [f64], _: &mut [f64], call: impl FnOnce(&mut [f64])) {
        call(out);
    }
}

impl PanelElem for f32 {
    const SCRATCH_STRIPES: usize = 10;
    type Cache = Option<MadeF32>;

    fn step() -> StepCols<f32> {
        vqmc_tensor::simd::kernels_f32().sample_step_cols
    }

    fn refresh(cache: &mut Option<MadeF32>, wf: &Made) {
        if cache.as_ref().map(MadeF32::version) != Some(wf.params_version()) {
            *cache = Some(MadeF32::for_sampling(wf));
        }
    }

    fn w1t_row<'a>(cache: &'a Option<MadeF32>, _: &'a Made, i: usize) -> &'a [f32] {
        cache.as_ref().expect("refreshed").w1t_row(i)
    }

    fn w_row<'a>(cache: &'a Option<MadeF32>, _: &'a Made, l: usize, k: usize) -> &'a [f32] {
        cache.as_ref().expect("refreshed").layer_w_row(l, k)
    }

    fn bias<'a>(cache: &'a Option<MadeF32>, _: &'a Made, l: usize) -> &'a [f32] {
        cache.as_ref().expect("refreshed").layer_b(l)
    }

    fn land(out: &mut [f32], dlog: &mut [f64], call: impl FnOnce(&mut [f64])) {
        call(dlog);
        for (dst, &v) in out.iter_mut().zip(&*dlog) {
            *dst = v as f32;
        }
    }
}

/// The precision-specific state of the panel pipeline: activation
/// panels, deferred-update mask, kernel scratch and cached weights.
#[derive(Debug, Default)]
struct Panels<E: PanelElem> {
    /// Every hidden layer's transposed pre-activation panel, layer
    /// after layer (`hₗ · rows` elements each).  Within a layer the
    /// panel is stripe-blocked: pool stripe `[start, end)` owns the
    /// contiguous `hₗ · bw` block at `hₗ · start`, unit `k` of it at
    /// `k · bw`.
    z: Vec<E>,
    /// Which rows drew the previous bit as 1 (`1`/`0`): the deferred
    /// `W₁`-column update mask for `sample_step_cols`.
    mask: Vec<E>,
    /// Kernel accumulator stripes plus the per-bit mask stash
    /// (`SCRATCH_STRIPES · rows`; each pool stripe uses its own
    /// contiguous slice, honouring the scratch contract per stripe).
    scratch: Vec<E>,
    /// Sampler-layout weights, invalidated via [`Made::params_version`].
    weights: E::Cache,
}

/// Precision-independent buffers of the panel pipeline: everything
/// from the `f64` logits onwards.
#[derive(Debug, Default)]
struct DrawBuffers {
    /// Drawn bits in transposed `n · rows` layout: the per-bit draw
    /// loop stores sequentially here instead of striding across the
    /// row-major output (64 pages touched per bit); transposed into the
    /// output in one tiled pass at the end.
    bits_t: Vec<u8>,
    /// Sign-flipped logits for a chunk of bits: `log σ` is applied to
    /// `LS_CHUNK · rows` elements at a time so the transcendental
    /// kernel runs at vector-friendly slice lengths instead of once per
    /// bit.  Elementwise results and the ascending bit-order
    /// accumulation into `log_prob` are unchanged by the chunking.
    ls_buf: Vec<f64>,
    /// Pre-drawn uniform variates for one bit (`rows`): the RNG streams
    /// are advanced *sequentially* in the exact (stream, row) order of
    /// the draw loop before the parallel region consumes them, so the
    /// variate sequence — and hence every drawn bit — is independent of
    /// the thread count.
    u_buf: Vec<f64>,
    /// Per-row accumulated `log π`.
    log_prob: Vec<f64>,
    /// Per-row logits of the current output bit.
    logits: Vec<f64>,
    /// `σ(logits)` scratch.
    probs: Vec<f64>,
    /// Per-row `f64` staging of one hidden unit's kernel output, for
    /// panels narrower than `f64` (see [`PanelElem::land`]).
    dlog: Vec<f64>,
    /// Per-request RNG streams (rebuilt each coalesced call; capacity
    /// reused).
    rngs: Vec<StdRng>,
}

/// The coalesced MADE sampler: the incremental AUTO pass, generalised
/// to draw each row-range of the combined batch from its own
/// request-seeded RNG — or the whole batch from one external stream
/// (the training path).
///
/// Invariant (property-tested): for every request `r`, rows
/// `[offset_r, offset_r + count_r)` of the output are bit-identical —
/// configurations *and* `logψ` — to a solo
/// `sample_stream(wf, count_r, StdRng::seed_from_u64(seed_r))`.
///
/// One panel pipeline serves every depth and both precisions.  Each
/// hidden layer keeps a *transposed* `hₗ · rows` panel; per bit, the
/// fused `sample_step_cols` kernel reduces one unit at a time over the
/// previous layer's panel, vectorised along the batch, so the weight
/// rows are streamed once per *batch* instead of once per *row*.  The
/// layer-1 panel is incremental: bit `i−1`'s `W₁`-column update is
/// deferred into the first kernel call that reads it (the output logit
/// at depth 1, layer 2's first unit of degree `i` deeper), so the panel
/// is touched in one memory pass per bit.
///
/// Deeper units are computed once each, on a degree schedule: at bit
/// `i`, layer by layer, only the units of degree exactly `i`
/// ([`Made::units_of_degree`]; `w_prev = None` makes the kernel a pure
/// `bias + Σⱼ w[j]·relu(panel[j])` reduction).  A layer-ℓ ≥ 2 unit of
/// degree `m` reads only inputs `< m`, so its value is final once bit
/// `m−1` is drawn, and nothing reads it before bit `m` (output `i` uses
/// only units of degree `≤ i`).  Past layer 2's top degree no bit
/// computes a layer-2 unit, panel 1 is never read again, and its
/// update is skipped (degrees are contiguous from 1, pinned in
/// `masks`).  This is bit-identical to recomputing every unit at every
/// bit, for finite parameters: the kernel adds each masked term as
/// `fma(±0, relu(z) ≥ +0, acc)` with `acc` starting at `+0`, which
/// leaves `acc` unchanged, so a unit's bits never depend on the units
/// its mask hides — whether those are stale, fresh, or still the zero
/// fill of a not-yet-computed unit.  A non-finite parameter breaks the
/// argument (`0 · ∞` is NaN) and with it the identity.
///
/// The kernel reproduces `relu_dot`'s per-row accumulation order at
/// any panel width (property-tested in `vqmc-tensor`), the batch is
/// split into fixed 8-row-aligned stripes per pool worker, and the
/// variates are pre-drawn sequentially — so output is bit-identical at
/// every thread count, and coalesced ≡ solo per request.
#[derive(Debug, Default)]
pub struct MadeBatchSampler {
    /// Execution precision (DESIGN.md §4.1.1): which [`Panels`] the
    /// pipeline runs on.
    precision: Precision,
    f64_panels: Panels<f64>,
    f32_panels: Panels<f32>,
    draw: DrawBuffers,
    /// Per-request row counts (pooled mirror of the request list).
    counts: Vec<usize>,
}

impl MadeBatchSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        MadeBatchSampler::default()
    }

    /// Selects the execution precision for subsequent passes.  `F32`
    /// runs the panels and weights in `f32` (half the streamed bytes,
    /// twice the lanes) with `f64` logit accumulation; results within
    /// the f32 arm are bit-identical across SIMD arms, thread counts
    /// and coalescing, but only *bound*-close to the f64 arm.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// Drops the cached sampler-layout weights of both precisions.
    /// [`Made::params_version`] only orders the versions of one model
    /// instance, so a caller that swaps in a *different* model (a hot
    /// reload) must call this before sampling it.
    pub fn clear_weight_cache(&mut self) {
        self.f64_panels.weights = Default::default();
        self.f32_panels.weights = Default::default();
    }

    /// Draws every request inside one combined incremental pass, each
    /// request's rows from its own seeded RNG stream.
    pub fn sample_coalesced(
        &mut self,
        wf: &Made,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.draw.rngs.clear();
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        for req in reqs {
            self.draw.rngs.push(StdRng::seed_from_u64(req.seed));
            counts.push(req.count);
        }
        self.sample_core(wf, &counts, None, out_batch, out_log_psi);
        self.counts = counts;
    }

    /// Draws one batch from a caller-owned RNG stream — the training
    /// path (`IncrementalAutoSampler` is a thin wrapper over this).
    pub fn sample_stream(
        &mut self,
        wf: &Made,
        count: usize,
        rng: &mut StdRng,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.sample_core(wf, &[count], Some(rng), out_batch, out_log_psi);
    }

    fn sample_core(
        &mut self,
        wf: &Made,
        counts: &[usize],
        external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        let draw = &mut self.draw;
        match self.precision {
            Precision::F64 => {
                self.f64_panels
                    .sample(draw, wf, counts, external, out_batch, out_log_psi)
            }
            Precision::F32 => {
                self.f32_panels
                    .sample(draw, wf, counts, external, out_batch, out_log_psi)
            }
        }
    }
}

impl<E: PanelElem> Panels<E> {
    /// The panel pipeline.  `counts[q]` rows are drawn for stream `q`;
    /// the RNG of a stream is `external` when given (single
    /// caller-owned stream), else `draw.rngs[q]` (seeded per request).
    /// The draw order within a stream is always bit-major then
    /// row-within-stream, so a stream sees the exact variate sequence
    /// it would see alone.
    fn sample(
        &mut self,
        draw: &mut DrawBuffers,
        wf: &Made,
        counts: &[usize],
        mut external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        let n = wf.num_spins();
        let rows: usize = counts.iter().sum();
        out_batch.resize(rows, n);
        out_batch.fill(0);
        out_log_psi.resize(rows);
        if rows == 0 {
            return;
        }
        E::refresh(&mut self.weights, wf);
        let kern = vqmc_tensor::simd::kernels();
        let step = E::step();
        let depth = wf.depth();
        let hidden = wf.hidden_sizes();
        // Panel offsets, on the stack (no per-call allocation): hidden
        // layer `l` (index `l−1`) starts at `off[l−1]` in `z`.
        let mut off = [0usize; vqmc_nn::MAX_LAYERS];
        let mut total = 0usize;
        for (o, &h) in off.iter_mut().zip(hidden) {
            *o = total;
            total += h * rows;
        }
        let Panels {
            z,
            mask,
            scratch,
            weights,
        } = self;
        let weights = &*weights;
        let DrawBuffers {
            bits_t,
            ls_buf,
            u_buf,
            log_prob,
            logits,
            probs,
            dlog,
            rngs,
        } = draw;
        let units = rows.div_ceil(PAR_ROW_UNIT);
        let parts = if rows >= PAR_ROWS_MIN {
            par::active_threads().min(units.max(1))
        } else {
            1
        };
        let stripe = |w: usize| {
            let u = par::stripe(units, parts, w);
            (
                (u.start * PAR_ROW_UNIT).min(rows),
                (u.end * PAR_ROW_UNIT).min(rows),
            )
        };
        // Stripe-blocked layer-1 panel init: every stripe's panel rows
        // start at b₁.  Deeper panels must be zero-filled: a deeper unit
        // is written only at the bit of its degree, but kernel calls
        // read the whole panel before that, through exact-zero masked
        // weights — the zero keeps those terms finite (`0 · 0`).
        z.clear();
        z.reserve(total);
        for w in 0..parts {
            let (start, end) = stripe(w);
            for &bj in E::bias(weights, wf, 0) {
                z.extend(std::iter::repeat_n(bj, end - start));
            }
        }
        z.resize(total, E::default());
        mask.clear();
        mask.resize(rows, E::default());
        scratch.resize(E::SCRATCH_STRIPES * rows, E::default());
        // No clear first: every byte is overwritten in the bit loop, so
        // only grow (and zero) when the geometry changes.
        bits_t.resize(n * rows, 0);
        bits_t.truncate(n * rows);
        ls_buf.clear();
        ls_buf.resize(LS_CHUNK.min(n.max(1)) * rows, 0.0);
        u_buf.clear();
        u_buf.resize(rows, 0.0);
        log_prob.clear();
        log_prob.resize(rows, 0.0);
        logits.resize(rows, 0.0);
        probs.resize(rows, 0.0);
        dlog.resize(rows, 0.0);
        for i in 0..n {
            // Pre-draw this bit's variates sequentially, in the exact
            // (stream, row-within-stream) order of the draw loop: every
            // RNG stream advances identically at any thread count.
            let mut s = 0;
            for (q, &count) in counts.iter().enumerate() {
                let rng: &mut StdRng = match external.as_deref_mut() {
                    Some(r) => r,
                    None => &mut rngs[q],
                };
                for _ in 0..count {
                    u_buf[s] = rng.gen::<f64>();
                    s += 1;
                }
            }
            let c = i % LS_CHUNK;
            let pz = par::SendPtr(z.as_mut_ptr());
            let pscratch = par::SendPtr(scratch.as_mut_ptr());
            let pdlog = par::SendPtr(dlog.as_mut_ptr());
            let plogits = par::SendPtr(logits.as_mut_ptr());
            let pprobs = par::SendPtr(probs.as_mut_ptr());
            let pmask = par::SendPtr(mask.as_mut_ptr());
            let pbits = par::SendPtr(bits_t[i * rows..(i + 1) * rows].as_mut_ptr());
            let psigned = par::SendPtr(ls_buf[c * rows..(c + 1) * rows].as_mut_ptr());
            let u_ref: &[f64] = u_buf;
            let w_prev = (i > 0).then(|| E::w1t_row(weights, wf, i - 1));
            let w_out = E::w_row(weights, wf, depth, i);
            let b_out: f64 = E::bias(weights, wf, depth)[i].into();
            par::run(parts, &|w| {
                let (start, end) = stripe(w);
                if start >= end {
                    return;
                }
                let bw = end - start;
                // SAFETY: stripes are disjoint row ranges; every
                // pointer below is offset into its stripe's slice of a
                // buffer sized above (panel regions are additionally
                // disjoint per layer by the offset arithmetic), and the
                // region joins before any of the borrows end.
                unsafe {
                    use std::slice::from_raw_parts_mut;
                    let scratch_s = from_raw_parts_mut(
                        pscratch.get().add(E::SCRATCH_STRIPES * start),
                        E::SCRATCH_STRIPES * bw,
                    );
                    let dlog_s = from_raw_parts_mut(pdlog.get().add(start), bw);
                    let logits_s = from_raw_parts_mut(plogits.get().add(start), bw);
                    let probs_s = from_raw_parts_mut(pprobs.get().add(start), bw);
                    let mask_s = from_raw_parts_mut(pmask.get().add(start), bw);
                    let bits_s = from_raw_parts_mut(pbits.get().add(start), bw);
                    let signed_s = from_raw_parts_mut(psigned.get().add(start), bw);
                    // Hidden layer l ≥ 2: one fused reduction over panel
                    // l−1 into panel l for each unit of degree i.  Bit
                    // i−1's deferred W₁-column update rides the first
                    // call that reads panel 1: layer 2's first unit of
                    // degree i here (none past its top degree, when
                    // panel 1 is dead), or the output call below at
                    // depth 1.
                    let mut pending = w_prev;
                    for l in 1..depth {
                        let hs = hidden[l - 1];
                        let src =
                            from_raw_parts_mut(pz.get().add(off[l - 1] + hs * start), hs * bw);
                        let dst = pz.get().add(off[l] + hidden[l] * start);
                        let bias = E::bias(weights, wf, l);
                        for &k in wf.units_of_degree(l, i) {
                            let out_row = from_raw_parts_mut(dst.add(k * bw), bw);
                            let wp = if l == 1 { pending.take() } else { None };
                            E::land(out_row, dlog_s, |out| {
                                let w_row = E::w_row(weights, wf, l, k);
                                step(src, bw, wp, mask_s, w_row, bias[k].into(), scratch_s, out)
                            });
                        }
                    }
                    // Output bit i's logit over the last hidden panel.
                    let hs = hidden[depth - 1];
                    let src =
                        from_raw_parts_mut(pz.get().add(off[depth - 1] + hs * start), hs * bw);
                    step(
                        src,
                        bw,
                        if depth == 1 { w_prev } else { None },
                        mask_s,
                        w_out,
                        b_out,
                        scratch_s,
                        logits_s,
                    );
                    probs_s.copy_from_slice(logits_s);
                    (kern.sigmoid_slice)(probs_s);
                    // The update is recorded in the mask instead of
                    // applied eagerly.  Branchless: the drawn bit is
                    // data, not control flow, so the 50/50 outcome
                    // can't mispredict; `-x` and the select are exact.
                    for s in 0..bw {
                        let u = u_ref[start + s];
                        let p = probs_s[s];
                        debug_assert!((0.0..=1.0).contains(&p), "conditional out of range");
                        let bit = (u < p) as u8;
                        bits_s[s] = bit;
                        mask_s[s] = E::from(bit);
                        signed_s[s] = if bit == 1 { logits_s[s] } else { -logits_s[s] };
                    }
                }
            });
            if c + 1 == LS_CHUNK || i + 1 == n {
                let filled = (c + 1) * rows;
                ops::log_sigmoid_slice(&mut ls_buf[..filled]);
                for chunk in ls_buf[..filled].chunks_exact(rows) {
                    for (lp, &v) in log_prob.iter_mut().zip(chunk) {
                        *lp += v;
                    }
                }
            }
        }
        // Tiled transpose of the drawn bits into the row-major output,
        // striped over the same row partition — each worker writes only
        // its own output rows.
        let pout = par::SendPtr(out_batch.as_bytes_mut().as_mut_ptr());
        let bits_ref: &[u8] = bits_t;
        par::run(parts, &|w| {
            let (start, end) = stripe(w);
            let mut i0 = 0;
            while i0 < n {
                let iend = (i0 + TILE).min(n);
                for s in start..end {
                    // SAFETY: rows [start, end) belong to this worker
                    // alone.
                    let row = unsafe { std::slice::from_raw_parts_mut(pout.get().add(s * n), n) };
                    for i in i0..iend {
                        row[i] = bits_ref[i * rows + s];
                    }
                }
                i0 = iend;
            }
        });
        for (o, &lp) in out_log_psi.iter_mut().zip(log_prob.iter()) {
            *o = 0.5 * lp;
        }
    }
}

/// The coalesced NADE sampler: the model's native `O(h)`-per-site
/// recursion over the combined batch, each request's rows drawn from
/// its own seeded RNG stream.
///
/// Invariant (property-tested): rows `[offset_r, offset_r + count_r)`
/// are bit-identical — configurations *and* `logψ` — to a solo
/// `Nade::sample_native(count_r, StdRng::seed_from_u64(seed_r))`.  The
/// recursion reuses `sample_native`'s exact scalar `σ` / `ln σ` ops in
/// the same `(site, row-within-request)` order, so the identity is
/// bitwise, not just numerical (the vectorised slice kernels are only
/// ≤ 2 ULP-equal to the scalar ops and would break it).
#[derive(Debug, Default)]
pub struct NadeBatchSampler {
    /// Per-row shared hidden pre-activations (`rows · h`).
    a: Vec<f64>,
    /// `σ(a)` scratch for one row.
    hidden: Vec<f64>,
    /// Per-row accumulated `log π`.
    log_prob: Vec<f64>,
    /// Per-request RNG streams (rebuilt each coalesced call).
    rngs: Vec<StdRng>,
    /// Per-request row counts (pooled mirror of the request list).
    counts: Vec<usize>,
}

impl NadeBatchSampler {
    /// A fresh sampler (scratch buffers grow on first use).
    pub fn new() -> Self {
        NadeBatchSampler::default()
    }

    /// Draws every request inside one combined native recursion, each
    /// request's rows from its own seeded RNG stream.
    pub fn sample_coalesced(
        &mut self,
        wf: &Nade,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.rngs.clear();
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        for req in reqs {
            self.rngs.push(StdRng::seed_from_u64(req.seed));
            counts.push(req.count);
        }
        self.sample_core(wf, &counts, None, out_batch, out_log_psi);
        self.counts = counts;
    }

    /// Draws one batch from a caller-owned RNG stream (the training
    /// path — pooled-scratch equivalent of [`Nade::sample_native`]).
    pub fn sample_stream(
        &mut self,
        wf: &Nade,
        count: usize,
        rng: &mut StdRng,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        self.sample_core(wf, &[count], Some(rng), out_batch, out_log_psi);
    }

    fn sample_core(
        &mut self,
        wf: &Nade,
        counts: &[usize],
        mut external: Option<&mut StdRng>,
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) {
        let n = wf.num_spins();
        let h = wf.hidden_size();
        let rows: usize = counts.iter().sum();
        out_batch.resize(rows, n);
        out_batch.fill(0);
        let b = wf.b().as_slice();
        self.a.clear();
        self.a.reserve(rows * h);
        for _ in 0..rows {
            self.a.extend_from_slice(b);
        }
        self.hidden.clear();
        self.hidden.resize(h, 0.0);
        self.log_prob.clear();
        self.log_prob.resize(rows, 0.0);
        let (v, c, w_t) = (wf.v(), wf.c(), wf.w_t());
        for i in 0..n {
            let v_row = v.row(i);
            let w_col = w_t.row(i);
            let mut s = 0;
            for (q, &count) in counts.iter().enumerate() {
                let rng: &mut StdRng = match external.as_deref_mut() {
                    Some(r) => r,
                    None => &mut self.rngs[q],
                };
                for _ in 0..count {
                    let a_row = &mut self.a[s * h..(s + 1) * h];
                    for (hk, &ak) in self.hidden.iter_mut().zip(a_row.iter()) {
                        *hk = ops::sigmoid(ak);
                    }
                    let logit = vqmc_tensor::vector::dot(v_row, &self.hidden) + c[i];
                    if rng.gen::<f64>() < ops::sigmoid(logit) {
                        out_batch.set(s, i, 1);
                        self.log_prob[s] += ops::log_sigmoid(logit);
                        vqmc_tensor::vector::axpy(a_row, 1.0, w_col);
                    } else {
                        self.log_prob[s] += ops::log_one_minus_sigmoid(logit);
                    }
                    s += 1;
                }
            }
        }
        out_log_psi.resize(rows);
        for (o, &lp) in out_log_psi.iter_mut().zip(&self.log_prob) {
            *o = 0.5 * lp;
        }
    }
}

/// Exact-AUTO accounting in the paper's Algorithm-1 unit: the
/// equivalent work of one logical forward pass per bit.
fn auto_stats(n: usize, rows: usize) -> SampleStats {
    SampleStats {
        forward_passes: n,
        configurations_evaluated: rows * n,
        proposals: 0,
        accepted: 0,
    }
}

/// The architecture-dispatching batch sampler: owns one engine per
/// model family and routes a [`BatchedSampling`] model to the right one
/// via double dispatch — no `AnyModel` match anywhere in the consumers.
#[derive(Debug, Default)]
pub struct BatchSampler {
    made: MadeBatchSampler,
    nade: NadeBatchSampler,
    mcmc: McmcSampler,
}

impl BatchSampler {
    /// A fresh sampler (per-architecture scratch grows on first use).
    pub fn new() -> Self {
        BatchSampler::default()
    }

    /// A sampler whose RBM fallback uses a custom MCMC configuration.
    pub fn with_mcmc(mcmc: McmcSampler) -> Self {
        BatchSampler {
            mcmc,
            ..BatchSampler::default()
        }
    }

    /// Selects the execution precision for subsequent passes.  Only
    /// the MADE panel sampler has an f32 arm (see
    /// [`MadeBatchSampler::set_precision`]); NADE and RBM run f64 at
    /// either setting (the serving layer documents this fallback).
    pub fn set_precision(&mut self, precision: Precision) {
        self.made.set_precision(precision);
    }

    /// Drops every weight cache derived from a model's parameters (see
    /// [`MadeBatchSampler::clear_weight_cache`]): call it when the
    /// sampled model is replaced by a different instance.
    pub fn clear_weight_cache(&mut self) {
        self.made.clear_weight_cache();
    }

    /// Draws every request into one coalesced output batch (request
    /// `r`'s rows at `[Σ_{q<r} count_q, …)`), bit-identical per request
    /// to a solo call with that request's seed.  Exact-AUTO models run
    /// as one combined pass; RBM falls back to per-request MCMC chains
    /// (inherently sequential per chain).
    pub fn sample_requests(
        &mut self,
        model: &dyn BatchedSampling,
        reqs: &[SampleRequest],
        out_batch: &mut SpinBatch,
        out_log_psi: &mut Vector,
    ) -> SampleStats {
        let mut call = RequestCall {
            made: &mut self.made,
            nade: &mut self.nade,
            mcmc: &self.mcmc,
            reqs,
            out_batch,
            out_log_psi,
            stats: SampleStats::default(),
        };
        model.sample_via(&mut call);
        call.stats
    }

    /// Draws one batch from a caller-owned RNG stream into a
    /// caller-owned output — the single-stream shape the CLI's
    /// `evaluate`/`sample` commands use on a loaded checkpoint.
    pub fn sample_stream_into(
        &mut self,
        model: &dyn BatchedSampling,
        count: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    ) {
        let mut call = StreamCall {
            made: &mut self.made,
            nade: &mut self.nade,
            mcmc: &self.mcmc,
            count,
            rng,
            out,
        };
        model.sample_via(&mut call);
    }

    /// Allocating convenience form of [`BatchSampler::sample_stream_into`].
    pub fn sample_stream(
        &mut self,
        model: &dyn BatchedSampling,
        count: usize,
        rng: &mut StdRng,
    ) -> SampleOutput {
        let mut out = SampleOutput::default();
        self.sample_stream_into(model, count, rng, &mut out);
        out
    }
}

/// [`SamplingEngine`] arms for a coalesced multi-request call.
struct RequestCall<'a> {
    made: &'a mut MadeBatchSampler,
    nade: &'a mut NadeBatchSampler,
    mcmc: &'a McmcSampler,
    reqs: &'a [SampleRequest],
    out_batch: &'a mut SpinBatch,
    out_log_psi: &'a mut Vector,
    stats: SampleStats,
}

impl RequestCall<'_> {
    fn rows(&self) -> usize {
        self.reqs.iter().map(|r| r.count).sum()
    }
}

impl SamplingEngine for RequestCall<'_> {
    fn sample_made(&mut self, wf: &Made) {
        self.made
            .sample_coalesced(wf, self.reqs, self.out_batch, self.out_log_psi);
        self.stats = auto_stats(wf.num_spins(), self.rows());
    }

    fn sample_nade(&mut self, wf: &Nade) {
        self.nade
            .sample_coalesced(wf, self.reqs, self.out_batch, self.out_log_psi);
        self.stats = auto_stats(wf.num_spins(), self.rows());
    }

    fn sample_rbm(&mut self, wf: &Rbm) {
        let n = wf.num_spins();
        let rows = self.rows();
        self.out_batch.resize(rows, n);
        self.out_log_psi.resize(rows);
        let mut stats = SampleStats::default();
        let mut offset = 0;
        for req in self.reqs {
            let mut rng = StdRng::seed_from_u64(req.seed);
            let out = self.mcmc.sample_rbm(wf, req.count, &mut rng);
            for s in 0..req.count {
                self.out_batch
                    .sample_mut(offset + s)
                    .copy_from_slice(out.batch.sample(s));
            }
            self.out_log_psi.as_mut_slice()[offset..offset + req.count]
                .copy_from_slice(out.log_psi.as_slice());
            offset += req.count;
            stats.forward_passes += out.stats.forward_passes;
            stats.configurations_evaluated += out.stats.configurations_evaluated;
            stats.proposals += out.stats.proposals;
            stats.accepted += out.stats.accepted;
        }
        self.stats = stats;
    }
}

/// [`SamplingEngine`] arms for a single caller-owned RNG stream.
struct StreamCall<'a> {
    made: &'a mut MadeBatchSampler,
    nade: &'a mut NadeBatchSampler,
    mcmc: &'a McmcSampler,
    count: usize,
    rng: &'a mut StdRng,
    out: &'a mut SampleOutput,
}

impl SamplingEngine for StreamCall<'_> {
    fn sample_made(&mut self, wf: &Made) {
        self.made
            .sample_stream(wf, self.count, self.rng, &mut self.out.batch, &mut self.out.log_psi);
        self.out.stats = auto_stats(wf.num_spins(), self.count);
    }

    fn sample_nade(&mut self, wf: &Nade) {
        self.nade
            .sample_stream(wf, self.count, self.rng, &mut self.out.batch, &mut self.out.log_psi);
        self.out.stats = auto_stats(wf.num_spins(), self.count);
    }

    fn sample_rbm(&mut self, wf: &Rbm) {
        // The `O(h)`-per-proposal RBM fast path, same as the trainer's
        // `RbmFastMcmc` adapter.
        *self.out = self.mcmc.sample_rbm(wf, self.count, self.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sampler;

    #[test]
    fn coalesced_rows_land_at_request_offsets() {
        let wf = Made::new(7, 11, 5);
        let reqs = [
            SampleRequest { count: 3, seed: 1 },
            SampleRequest { count: 9, seed: 2 },
        ];
        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        let stats = bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);
        assert_eq!(batch.batch_size(), 12);
        assert_eq!(log_psi.len(), 12);
        assert_eq!(stats.forward_passes, 7);
        assert_eq!(stats.configurations_evaluated, 12 * 7);
        // Solo redraw of the second request lands exactly at offset 3.
        let mut solo_b = SpinBatch::default();
        let mut solo_lp = Vector::default();
        MadeBatchSampler::new().sample_stream(
            &wf,
            9,
            &mut StdRng::seed_from_u64(2),
            &mut solo_b,
            &mut solo_lp,
        );
        for s in 0..9 {
            assert_eq!(batch.sample(3 + s), solo_b.sample(s));
            assert_eq!(log_psi[3 + s].to_bits(), solo_lp[s].to_bits());
        }
    }

    #[test]
    fn stream_call_dispatches_every_architecture() {
        let mut bs = BatchSampler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let made = Made::new(6, 9, 1);
        let out = bs.sample_stream(&made, 10, &mut rng);
        assert_eq!(out.batch.batch_size(), 10);
        assert_eq!(out.stats.forward_passes, 6);

        let nade = Nade::new(6, 5, 1);
        let out = bs.sample_stream(&nade, 10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.batch_size(), 10);
        // Bit-identical to the model's own native sampler.
        let (nb, nlp) = nade.sample_native(10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.as_bytes(), nb.as_bytes());
        for s in 0..10 {
            assert_eq!(out.log_psi[s].to_bits(), nlp[s].to_bits());
        }

        let rbm = Rbm::new(6, 6, 1);
        let out = bs.sample_stream(&rbm, 10, &mut StdRng::seed_from_u64(3));
        assert_eq!(out.batch.batch_size(), 10);
        assert!(out.stats.proposals > 0, "RBM must go through MCMC");
    }

    #[test]
    fn rbm_requests_match_solo_mcmc_per_seed() {
        let wf = Rbm::new(5, 5, 7);
        let reqs = [
            SampleRequest { count: 4, seed: 21 },
            SampleRequest { count: 6, seed: 22 },
        ];
        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        let stats = bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);
        assert!(stats.proposals > 0);
        let mut offset = 0;
        for req in &reqs {
            let solo = McmcSampler::default().sample_rbm(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
            );
            for s in 0..req.count {
                assert_eq!(batch.sample(offset + s), solo.batch.sample(s));
                assert_eq!(log_psi[offset + s].to_bits(), solo.log_psi[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// The coalesced≡solo invariant holds inside the f32 arm too —
    /// including a request below the pool-striping minimum solo.
    #[test]
    fn f32_coalesced_rows_match_solo_f32_stream() {
        let wf = Made::new(9, 14, 6);
        let reqs = [
            SampleRequest { count: 3, seed: 5 },
            SampleRequest { count: 13, seed: 9 },
        ];
        let mut bs = BatchSampler::new();
        bs.set_precision(Precision::F32);
        let mut batch = SpinBatch::default();
        let mut lp = Vector::default();
        bs.sample_requests(&wf, &reqs, &mut batch, &mut lp);
        assert_eq!(batch.batch_size(), 16);
        let mut offset = 0;
        for req in &reqs {
            let mut sampler = MadeBatchSampler::new();
            sampler.set_precision(Precision::F32);
            let mut sb = SpinBatch::default();
            let mut slp = Vector::default();
            sampler.sample_stream(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
                &mut sb,
                &mut slp,
            );
            for s in 0..req.count {
                assert_eq!(batch.sample(offset + s), sb.sample(s), "seed {}", req.seed);
                assert_eq!(lp[offset + s].to_bits(), slp[s].to_bits(), "seed {}", req.seed);
            }
            offset += req.count;
        }
    }

    /// A pass over zero rows (no requests, or only empty ones) returns
    /// an empty batch at every depth and precision.
    #[test]
    fn zero_rows_is_an_empty_pass() {
        for hidden in [&[5usize][..], &[5, 4]] {
            let wf = Made::with_hidden(6, hidden, 1);
            for precision in [Precision::F64, Precision::F32] {
                let mut bs = BatchSampler::new();
                bs.set_precision(precision);
                let mut batch = SpinBatch::default();
                let mut lp = Vector::default();
                for reqs in [&[][..], &[SampleRequest { count: 0, seed: 1 }]] {
                    bs.sample_requests(&wf, reqs, &mut batch, &mut lp);
                    assert_eq!(batch.batch_size(), 0, "{hidden:?} {precision:?}");
                    assert_eq!(lp.len(), 0, "{hidden:?} {precision:?}");
                }
            }
        }
    }

    /// The f32 arm draws a valid, deterministic batch whose `logψ`
    /// tracks the f64 arm within the documented serving bound (the two
    /// arms see identical logits up to `O(h·ε₃₂)` per bit, so with the
    /// same seed the drawn bits *almost always* agree; we assert only
    /// determinism and shape, never cross-precision bits).
    #[test]
    fn f32_stream_is_deterministic_and_well_formed() {
        let wf = Made::new(12, 17, 11);
        let draw = || {
            let mut sampler = MadeBatchSampler::new();
            sampler.set_precision(Precision::F32);
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 20, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            (b, lp)
        };
        let (b1, lp1) = draw();
        let (b2, lp2) = draw();
        assert_eq!(b1.as_bytes(), b2.as_bytes());
        assert_eq!(b1.batch_size(), 20);
        for s in 0..20 {
            assert_eq!(lp1[s].to_bits(), lp2[s].to_bits());
            assert!(lp1[s] < 0.0, "logψ of a normalised π must be negative");
        }
        // Warm (cached-weights) redraws stay identical after the first
        // pass built the f32 weight cache.
        let mut sampler = MadeBatchSampler::new();
        sampler.set_precision(Precision::F32);
        for _ in 0..2 {
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 20, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            assert_eq!(b.as_bytes(), b1.as_bytes());
            for s in 0..20 {
                assert_eq!(lp[s].to_bits(), lp1[s].to_bits());
            }
        }
    }

    #[test]
    fn training_wrapper_equals_engine_stream() {
        // IncrementalAutoSampler is a thin wrapper over MadeBatchSampler:
        // same output, same stats.
        let wf = Made::new(8, 12, 3);
        let via_wrapper =
            crate::IncrementalAutoSampler::new().sample(&wf, 20, &mut StdRng::seed_from_u64(4));
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        MadeBatchSampler::new().sample_stream(
            &wf,
            20,
            &mut StdRng::seed_from_u64(4),
            &mut batch,
            &mut log_psi,
        );
        assert_eq!(via_wrapper.batch.as_bytes(), batch.as_bytes());
        for s in 0..20 {
            assert_eq!(via_wrapper.log_psi[s].to_bits(), log_psi[s].to_bits());
        }
    }

    /// Deep stacks: the incremental panel pipeline draws the same
    /// configurations as the naive full-recompute AUTO sampler and its
    /// `logψ` agrees within the incremental-vs-naive contract (same
    /// arithmetic, different accumulation order) — at depths 2 and 3,
    /// across batch sizes that land on either side of the striping
    /// minimum.
    #[test]
    fn deep_stream_matches_naive_auto_sampler() {
        for hidden in [vec![11usize, 6], vec![9, 7, 5]] {
            for seed in 0..4u64 {
                let wf = Made::with_hidden(7, &hidden, 100 + seed);
                for count in [3usize, 16, 40] {
                    let naive = crate::AutoSampler::new().sample(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let mut b = SpinBatch::default();
                    let mut lp = Vector::default();
                    MadeBatchSampler::new().sample_stream(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                        &mut b,
                        &mut lp,
                    );
                    assert_eq!(
                        naive.batch.as_bytes(),
                        b.as_bytes(),
                        "depth {} seed {seed} count {count}: batches differ",
                        hidden.len()
                    );
                    for s in 0..count {
                        assert!(
                            (naive.log_psi[s] - lp[s]).abs() < 1e-10,
                            "depth {} seed {seed} count {count} row {s}: logψ differs",
                            hidden.len()
                        );
                    }
                }
            }
        }
    }

    /// Deep stacks keep the coalesced≡solo invariant in both
    /// precisions: every request's rows in a combined pass are
    /// bit-identical to a solo stream with that request's seed.
    #[test]
    fn deep_coalesced_rows_match_solo_streams() {
        let wf = Made::with_hidden(8, &[12, 7], 19);
        let reqs = [
            SampleRequest { count: 3, seed: 5 },
            SampleRequest { count: 13, seed: 9 },
            SampleRequest { count: 6, seed: 31 },
        ];
        for precision in [Precision::F64, Precision::F32] {
            let mut bs = BatchSampler::new();
            bs.set_precision(precision);
            let mut batch = SpinBatch::default();
            let mut lp = Vector::default();
            bs.sample_requests(&wf, &reqs, &mut batch, &mut lp);
            assert_eq!(batch.batch_size(), 22);
            let mut offset = 0;
            for req in &reqs {
                let mut sampler = MadeBatchSampler::new();
                sampler.set_precision(precision);
                let mut sb = SpinBatch::default();
                let mut slp = Vector::default();
                sampler.sample_stream(
                    &wf,
                    req.count,
                    &mut StdRng::seed_from_u64(req.seed),
                    &mut sb,
                    &mut slp,
                );
                for s in 0..req.count {
                    assert_eq!(
                        batch.sample(offset + s),
                        sb.sample(s),
                        "{precision:?} seed {}",
                        req.seed
                    );
                    assert_eq!(
                        lp[offset + s].to_bits(),
                        slp[s].to_bits(),
                        "{precision:?} seed {}",
                        req.seed
                    );
                }
                offset += req.count;
            }
        }
    }

    /// The f32 deep arm is deterministic, well-formed, and tracks the
    /// f64 deep arm's `logψ` within the documented serving bound.
    #[test]
    fn deep_f32_stream_tracks_f64_within_bound() {
        let n = 10;
        let wf = Made::with_hidden(n, &[16, 9], 7);
        let draw = |precision: Precision| {
            let mut sampler = MadeBatchSampler::new();
            sampler.set_precision(precision);
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(&wf, 24, &mut StdRng::seed_from_u64(3), &mut b, &mut lp);
            (b, lp)
        };
        let (b32a, lp32a) = draw(Precision::F32);
        let (b32b, lp32b) = draw(Precision::F32);
        assert_eq!(b32a.as_bytes(), b32b.as_bytes());
        for s in 0..24 {
            assert_eq!(lp32a[s].to_bits(), lp32b[s].to_bits());
            assert!(lp32a[s] < 0.0, "logψ of a normalised π must be negative");
        }
        // Same drawn bits imply logψ within the f32 drift bound.
        let (b64, lp64) = draw(Precision::F64);
        if b64.as_bytes() == b32a.as_bytes() {
            for s in 0..24 {
                assert!(
                    (lp64[s] - lp32a[s]).abs() <= 1e-5 * n as f64,
                    "row {s}: f32 logψ drifted {} vs {}",
                    lp32a[s],
                    lp64[s]
                );
            }
        }
    }

    /// A warm deep sampler tracks parameter updates (the cached `W₁ᵀ`
    /// and f32 weight copies invalidate on `params_version`).
    #[test]
    fn deep_warm_sampler_survives_parameter_updates() {
        let mut wf = Made::with_hidden(6, &[9, 5], 3);
        let mut warm = MadeBatchSampler::new();
        for round in 0..3u64 {
            let mut wb = SpinBatch::default();
            let mut wlp = Vector::default();
            warm.sample_stream(&wf, 12, &mut StdRng::seed_from_u64(round), &mut wb, &mut wlp);
            let mut fresh_b = SpinBatch::default();
            let mut fresh_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                12,
                &mut StdRng::seed_from_u64(round),
                &mut fresh_b,
                &mut fresh_lp,
            );
            assert_eq!(wb.as_bytes(), fresh_b.as_bytes(), "round {round}");
            for s in 0..12 {
                assert_eq!(wlp[s].to_bits(), fresh_lp[s].to_bits(), "round {round}");
            }
            let mut p = wf.params();
            for v in p.iter_mut() {
                *v += 0.01;
            }
            wf.set_params(&p);
        }
    }
}
