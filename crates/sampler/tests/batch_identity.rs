//! Property tests for the unified batched sampling layer: coalesced
//! multi-request passes must be **bit-identical** — configurations and
//! `logψ` — to solo per-request sampling, and the MADE panel sampler's
//! output must not depend on the pool width.
//!
//! The verify skill runs this suite on both SIMD dispatch arms
//! (default and `VQMC_SIMD=off` / `--features vqmc/force-scalar`), so
//! the invariants are pinned across every kernel implementation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_nn::{Made, Nade};
use vqmc_sampler::{BatchSampler, MadeBatchSampler, NadeBatchSampler, SampleRequest};
use vqmc_tensor::{par, Precision, SpinBatch, Vector};

/// Request sizes derived from a seed (the vendored proptest stub has no
/// collection strategies). Sizes span 1..=11 so the coalesced row count
/// crosses the pool-striping minimum in some cases and not in others.
fn request_list(nreq: usize, seed0: u64) -> Vec<SampleRequest> {
    (0..nreq)
        .map(|r| SampleRequest {
            count: 1 + ((seed0 >> (5 * r)) % 11) as usize,
            seed: seed0.wrapping_add(r as u64),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// MADE: every request's rows in a coalesced pass match a solo
    /// `sample_stream` with that request's seed, bit for bit.
    #[test]
    fn made_coalesced_requests_match_solo_streams(
        n in 3usize..12,
        h in 2usize..16,
        model_seed in 0u64..500,
        nreq in 2usize..5,
        seed0 in 0u64..10_000,
    ) {
        let wf = Made::new(n, h, model_seed);
        let reqs = request_list(nreq, seed0);

        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);

        let mut offset = 0;
        for req in &reqs {
            let mut solo_b = SpinBatch::default();
            let mut solo_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
                &mut solo_b,
                &mut solo_lp,
            );
            for s in 0..req.count {
                prop_assert_eq!(batch.sample(offset + s), solo_b.sample(s));
                prop_assert_eq!(log_psi[offset + s].to_bits(), solo_lp[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// NADE: the coalesced batched path is bit-identical per request to
    /// the model's own solo `sample_native` — the batched path must be
    /// a pure re-ordering of the same scalar arithmetic.
    #[test]
    fn nade_coalesced_requests_match_sample_native(
        n in 3usize..12,
        h in 2usize..14,
        model_seed in 0u64..500,
        nreq in 2usize..5,
        seed0 in 0u64..10_000,
    ) {
        let wf = Nade::new(n, h, model_seed);
        let reqs = request_list(nreq, seed0);

        let mut sampler = NadeBatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        sampler.sample_coalesced(&wf, &reqs, &mut batch, &mut log_psi);

        let mut offset = 0;
        for req in &reqs {
            let (solo_b, solo_lp) =
                wf.sample_native(req.count, &mut StdRng::seed_from_u64(req.seed));
            for s in 0..req.count {
                prop_assert_eq!(batch.sample(offset + s), solo_b.sample(s));
                prop_assert_eq!(log_psi[offset + s].to_bits(), solo_lp[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// NADE single-stream (the training shape) equals `sample_native`
    /// on the same RNG stream.
    #[test]
    fn nade_stream_matches_sample_native(
        n in 3usize..12,
        h in 2usize..14,
        model_seed in 0u64..500,
        count in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let wf = Nade::new(n, h, model_seed);
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        NadeBatchSampler::new().sample_stream(
            &wf,
            count,
            &mut StdRng::seed_from_u64(seed),
            &mut batch,
            &mut log_psi,
        );
        let (nb, nlp) = wf.sample_native(count, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(batch.as_bytes(), nb.as_bytes());
        for s in 0..count {
            prop_assert_eq!(log_psi[s].to_bits(), nlp[s].to_bits());
        }
    }

    /// MADE panel pipeline, both precisions: configurations and `logψ`
    /// are **bit-identical at every thread count** — the per-worker
    /// panel stripes and the pre-drawn variates must be observationally
    /// invisible.
    #[test]
    fn made_sampling_bit_identical_across_thread_counts(
        n in 3usize..14,
        h in 2usize..18,
        model_seed in 0u64..500,
        count in 16usize..160,
        seed in 0u64..10_000,
    ) {
        let wf = Made::new(n, h, model_seed);
        for precision in [Precision::F64, Precision::F32] {
            let run = |threads: usize| {
                par::with_threads(threads, || {
                    let mut sampler = MadeBatchSampler::new();
                    sampler.set_precision(precision);
                    let mut b = SpinBatch::default();
                    let mut lp = Vector::default();
                    sampler.sample_stream(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                        &mut b,
                        &mut lp,
                    );
                    (b, lp)
                })
            };
            let seq = run(1);
            for threads in [2usize, 4, 8] {
                let par_out = run(threads);
                prop_assert_eq!(
                    par_out.0.as_bytes(),
                    seq.0.as_bytes(),
                    "{:?} bits at {} threads",
                    precision,
                    threads
                );
                for s in 0..count {
                    prop_assert_eq!(par_out.1[s].to_bits(), seq.1[s].to_bits());
                }
            }
        }
    }
    /// Deep MADE stacks (depth 2): every request's rows in a coalesced
    /// pass match a solo `sample_stream` with that request's seed, bit
    /// for bit — the deep panel pipeline preserves the invariant the
    /// serving layer depends on.
    #[test]
    fn deep_made_coalesced_requests_match_solo_streams(
        n in 3usize..12,
        h1 in 3usize..14,
        h2 in 2usize..10,
        model_seed in 0u64..500,
        nreq in 2usize..5,
        seed0 in 0u64..10_000,
    ) {
        let wf = Made::with_hidden(n, &[h1, h2], model_seed);
        let reqs = request_list(nreq, seed0);

        let mut bs = BatchSampler::new();
        let mut batch = SpinBatch::default();
        let mut log_psi = Vector::default();
        bs.sample_requests(&wf, &reqs, &mut batch, &mut log_psi);

        let mut offset = 0;
        for req in &reqs {
            let mut solo_b = SpinBatch::default();
            let mut solo_lp = Vector::default();
            MadeBatchSampler::new().sample_stream(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
                &mut solo_b,
                &mut solo_lp,
            );
            for s in 0..req.count {
                prop_assert_eq!(batch.sample(offset + s), solo_b.sample(s));
                prop_assert_eq!(log_psi[offset + s].to_bits(), solo_lp[s].to_bits());
            }
            offset += req.count;
        }
    }

    /// Deep MADE stacks: configurations and `logψ` are bit-identical
    /// at every thread count in both precisions, like depth 1.
    #[test]
    fn deep_made_sampling_bit_identical_across_thread_counts(
        n in 3usize..12,
        h1 in 3usize..14,
        h2 in 2usize..10,
        model_seed in 0u64..500,
        count in 16usize..120,
        seed in 0u64..10_000,
    ) {
        let wf = Made::with_hidden(n, &[h1, h2], model_seed);
        for precision in [Precision::F64, Precision::F32] {
            let run = |threads: usize| {
                par::with_threads(threads, || {
                    let mut sampler = MadeBatchSampler::new();
                    sampler.set_precision(precision);
                    let mut b = SpinBatch::default();
                    let mut lp = Vector::default();
                    sampler.sample_stream(
                        &wf,
                        count,
                        &mut StdRng::seed_from_u64(seed),
                        &mut b,
                        &mut lp,
                    );
                    (b, lp)
                })
            };
            let seq = run(1);
            for threads in [2usize, 4, 8] {
                let par_out = run(threads);
                prop_assert_eq!(
                    par_out.0.as_bytes(),
                    seq.0.as_bytes(),
                    "{:?} bits at {} threads",
                    precision,
                    threads
                );
                for s in 0..count {
                    prop_assert_eq!(par_out.1[s].to_bits(), seq.1[s].to_bits());
                }
            }
        }
    }
}

/// The acceptance training shape (rows = 16384): one deterministic pass
/// through the panel pipeline at 1/2/4/8 threads must agree bit-for-bit.
/// Moderate hidden size keeps the debug-mode runtime reasonable; the
/// stripe arithmetic being exercised is identical at any `h`.
#[test]
fn training_shape_sampling_bit_identical_across_thread_counts() {
    let n = 16;
    let wf = Made::new(n, 24, 41);
    let count = 16_384;
    let run = |threads: usize| {
        par::with_threads(threads, || {
            let mut sampler = MadeBatchSampler::new();
            let mut b = SpinBatch::default();
            let mut lp = Vector::default();
            sampler.sample_stream(
                &wf,
                count,
                &mut StdRng::seed_from_u64(2021),
                &mut b,
                &mut lp,
            );
            (b, lp)
        })
    };
    let seq = run(1);
    for threads in [2usize, 4, 8] {
        let par_out = run(threads);
        assert_eq!(par_out.0.as_bytes(), seq.0.as_bytes(), "bits at {threads} threads");
        assert!(
            par_out
                .1
                .as_slice()
                .iter()
                .zip(seq.1.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "logψ differs at {threads} threads"
        );
    }
}

/// One pinned deep-sampling shape: `(n, hidden widths, counts, model
/// seed, f64 digest, f32 digest)`.
type DeepCase = (usize, &'static [usize], &'static [usize], u64, u64, u64);

/// Digests of deep MADE sampling output (drawn bits plus `logψ` bit
/// patterns), recorded from the per-bit full-recompute panel pipeline.
/// The shapes cover degree-0 units (`n = 1`), layers narrower than
/// `n − 1` (bits past a layer's top degree compute nothing there),
/// layers wider than `n − 1` (degrees repeat, so one bit computes
/// several units), a second layer wider than the first, and depth 3.
const DEEP_DIGESTS: &[DeepCase] = &[
    (1, &[3, 2], &[1, 3, 16], 5, 0x4c756d59a45badab, 0x7cee2f6b943c251b),
    (2, &[3, 4], &[1, 3, 40], 6, 0xc85313394683123a, 0xdc74722fdae03138),
    (7, &[9, 14], &[1, 16, 40], 7, 0x9089d7259bc65870, 0x81b9ce0df5fc57c6),
    (7, &[5, 3, 8], &[3, 16], 8, 0x98fce28c2d5be3a2, 0x9c898bb7bda8383d),
    (64, &[48, 20], &[3, 40, 256], 9, 0x5ea00d82043889d7, 0x6d6655081335e2c4),
    (64, &[70, 90, 12], &[16], 10, 0xfab6e4bf248cce00, 0x7fb002868c16ce57),
    (256, &[128, 64], &[1, 40, 256], 11, 0x6a8b6e0406722e98, 0x2cbfcbbaccb05366),
    (256, &[40, 24, 300], &[3], 12, 0x9f92cf936a3988cf, 0xfe07d7efef1a74f2),
];

/// FNV-1a, folded over one sampler output.
fn fold_digest(h: &mut u64, batch: &SpinBatch, log_psi: &Vector) {
    let lp = log_psi.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes());
    for b in batch.as_bytes().iter().copied().chain(lp) {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// One warm sampler draws every count as a solo stream, then all counts
/// again as one coalesced pass; returns the digest of every output.
fn deep_digest(wf: &Made, counts: &[usize], precision: Precision) -> u64 {
    let mut sampler = MadeBatchSampler::new();
    sampler.set_precision(precision);
    let mut b = SpinBatch::default();
    let mut lp = Vector::default();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &count in counts {
        let mut rng = StdRng::seed_from_u64(1000 + count as u64);
        sampler.sample_stream(wf, count, &mut rng, &mut b, &mut lp);
        fold_digest(&mut h, &b, &lp);
    }
    let reqs: Vec<SampleRequest> = (0..counts.len())
        .map(|j| SampleRequest {
            count: counts[j],
            seed: 77 + j as u64,
        })
        .collect();
    sampler.sample_coalesced(wf, &reqs, &mut b, &mut lp);
    fold_digest(&mut h, &b, &lp);
    h
}

/// Deep sampling output is pinned bit for bit — both precisions, pool
/// widths 1/2/4, solo streams and coalesced requests — so any change to
/// the deep panel schedule must reproduce the recorded bits exactly.
#[test]
fn deep_sampling_matches_pinned_digests() {
    let mut mismatches = Vec::new();
    for &(n, hidden, counts, seed, want64, want32) in DEEP_DIGESTS {
        let wf = Made::with_hidden(n, hidden, seed);
        for (precision, want) in [(Precision::F64, want64), (Precision::F32, want32)] {
            for threads in [1usize, 2, 4] {
                let got = par::with_threads(threads, || deep_digest(&wf, counts, precision));
                if got != want {
                    mismatches.push(format!(
                        "n={n} hidden={hidden:?} {precision:?} width {threads}: {got:#018x}"
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "deep digests differ:\n{}", mismatches.join("\n"));
}
