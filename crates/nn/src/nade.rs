//! The neural autoregressive distribution estimator (NADE — Larochelle
//! & Murray 2011), the architecture MADE was designed to streamline
//! (paper §3).  Included as a second [`Autoregressive`] wavefunction:
//! it validates that the sampling/training stack is genuinely
//! architecture-agnostic, and its weight-sharing gives an `O(n·h)`
//! *native* sampling pass — the cost MADE only reaches with the
//! incremental cache.
//!
//! ## Model
//!
//! ```text
//! aᵢ = b + Σ_{j<i} W[:,j]·xⱼ          (shared hidden pre-activation)
//! hᵢ = σ(aᵢ)
//! p(xᵢ=1|x_{<i}) = σ(Vᵢ·hᵢ + cᵢ)
//! ```
//!
//! The recursion `aᵢ₊₁ = aᵢ + W[:,i]·xᵢ` makes both density evaluation
//! and sampling `O(h)` per site.
//!
//! ## Parameter layout (flattened)
//!
//! `[W (h·n, row-major) | b (h) | V (n·h, row-major) | c (n)]`,
//! total `d = 2hn + h + n` — identical to MADE's, which keeps every
//! optimiser and the distributed trainer oblivious to the swap.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vqmc_tensor::{ops, Matrix, SpinBatch, Vector};

use crate::{init, Autoregressive, WaveFunction};

/// NADE wavefunction.
#[derive(Clone, Serialize, Deserialize)]
pub struct Nade {
    n: usize,
    h: usize,
    /// Shared input weights; column `j` feeds every conditional `i > j`.
    w: Matrix,
    b: Vector,
    /// Per-output readout rows.
    v: Matrix,
    c: Vector,
    /// Transposed copy of `w` (n×h) for contiguous column access in the
    /// sequential recursion; rebuilt on every parameter update.
    w_t: Matrix,
}

impl Nade {
    /// Creates a NADE with `n` spins and `h` hidden units.
    pub fn new(n: usize, h: usize, seed: u64) -> Self {
        assert!(n >= 1 && h >= 1, "Nade: degenerate shape");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = init::xavier_uniform(h, n, &mut rng);
        let b = init::linear_bias(n, h, &mut rng);
        let v = init::xavier_uniform(n, h, &mut rng);
        let c = init::linear_bias(h, n, &mut rng);
        let w_t = w.transpose();
        Nade {
            n,
            h,
            w,
            b,
            v,
            c,
            w_t,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.h
    }

    /// Shared hidden bias `b` (the recursion's initial pre-activation).
    pub fn b(&self) -> &Vector {
        &self.b
    }

    /// Per-output readout rows `V` (`n × h`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Per-output readout biases `c`.
    pub fn c(&self) -> &Vector {
        &self.c
    }

    /// Transposed input weights `Wᵀ` (`n × h`): row `i` is the column of
    /// `W` folded into the recursion when bit `i` is drawn 1.
    pub fn w_t(&self) -> &Matrix {
        &self.w_t
    }

    /// Runs the shared recursion for one sample, invoking `visit(i, hᵢ,
    /// logitᵢ)` at every site, in order.
    fn scan(&self, x: &[u8], mut visit: impl FnMut(usize, &[f64], f64)) {
        let mut a: Vec<f64> = self.b.as_slice().to_vec();
        let mut hidden = vec![0.0; self.h];
        for (i, &xi) in x.iter().enumerate() {
            for (hk, &ak) in hidden.iter_mut().zip(&a) {
                *hk = ops::sigmoid(ak);
            }
            let logit = vqmc_tensor::vector::dot(self.v.row(i), &hidden) + self.c[i];
            visit(i, &hidden, logit);
            if xi == 1 {
                vqmc_tensor::vector::axpy(&mut a, 1.0, self.w_t.row(i));
            }
        }
    }

    /// Native `O(bs·n·h)` exact sampling (the architecture's built-in
    /// equivalent of MADE's incremental sampler).  Draws bits in the
    /// same `(sample-major within site)` order as `AutoSampler`.
    pub fn sample_native(&self, batch_size: usize, rng: &mut StdRng) -> (SpinBatch, Vector) {
        let mut batch = SpinBatch::zeros(batch_size, self.n);
        let mut a: Vec<f64> = Vec::with_capacity(batch_size * self.h);
        for _ in 0..batch_size {
            a.extend_from_slice(&self.b);
        }
        let mut hidden = vec![0.0; self.h];
        let mut log_prob = vec![0.0f64; batch_size];
        for i in 0..self.n {
            let v_row = self.v.row(i);
            let w_col = self.w_t.row(i);
            for s in 0..batch_size {
                let a_row = &mut a[s * self.h..(s + 1) * self.h];
                for (hk, &ak) in hidden.iter_mut().zip(a_row.iter()) {
                    *hk = ops::sigmoid(ak);
                }
                let logit = vqmc_tensor::vector::dot(v_row, &hidden) + self.c[i];
                if rng.gen::<f64>() < ops::sigmoid(logit) {
                    batch.set(s, i, 1);
                    log_prob[s] += ops::log_sigmoid(logit);
                    vqmc_tensor::vector::axpy(a_row, 1.0, w_col);
                } else {
                    log_prob[s] += ops::log_one_minus_sigmoid(logit);
                }
            }
        }
        let log_psi = Vector(log_prob.into_iter().map(|lp| 0.5 * lp).collect());
        (batch, log_psi)
    }
}

impl WaveFunction for Nade {
    fn num_spins(&self) -> usize {
        self.n
    }

    fn num_params(&self) -> usize {
        2 * self.h * self.n + self.h + self.n
    }

    fn log_psi(&self, batch: &SpinBatch) -> Vector {
        Vector::from_fn(batch.batch_size(), |s| {
            let x = batch.sample(s);
            let mut lp = 0.0;
            self.scan(x, |i, _, logit| {
                lp += if x[i] == 1 {
                    ops::log_sigmoid(logit)
                } else {
                    ops::log_one_minus_sigmoid(logit)
                };
            });
            0.5 * lp
        })
    }

    fn weighted_log_psi_grad(&self, batch: &SpinBatch, weights: &Vector) -> Vector {
        assert_eq!(weights.len(), batch.batch_size());
        let (h, n) = (self.h, self.n);
        let mut dw = Matrix::zeros(h, n);
        let mut db = Vector::zeros(h);
        let mut dv = Matrix::zeros(n, h);
        let mut dc = Vector::zeros(n);

        // Per-sample reverse pass over the recursion.
        let mut deltas = vec![0.0f64; n];
        let mut hiddens = Matrix::zeros(n, h);
        for s in 0..batch.batch_size() {
            let wgt = weights[s];
            if wgt == 0.0 {
                continue;
            }
            let x = batch.sample(s);
            self.scan(x, |i, hidden, logit| {
                deltas[i] = wgt * 0.5 * (x[i] as f64 - ops::sigmoid(logit));
                hiddens.row_mut(i).copy_from_slice(hidden);
            });
            // Readout gradients and hidden-pre-activation gradients gᵢ.
            // Suffix-sum trick: dW[:,j] = xⱼ · Σ_{i>j} gᵢ.
            let mut suffix = vec![0.0f64; h];
            for i in (0..n).rev() {
                let d = deltas[i];
                let h_row = hiddens.row(i);
                if d != 0.0 {
                    vqmc_tensor::vector::axpy(dv.row_mut(i), d, h_row);
                    dc[i] += d;
                }
                // gᵢ = d · vᵢ ⊙ h(1−h); accumulate into b and suffix.
                let v_row = self.v.row(i);
                for k in 0..h {
                    let g = d * v_row[k] * ops::sigmoid_prime_from_value(h_row[k]);
                    db[k] += g;
                    // W column j < i receives xⱼ·g — handled by adding g
                    // to the suffix *after* assigning this site's dW,
                    // because aᵢ only sees strictly earlier inputs.
                }
                // dW for column i: uses the suffix accumulated from
                // sites > i.
                if x[i] == 1 {
                    for (k, &sk) in suffix.iter().enumerate() {
                        dw.set(k, i, dw.get(k, i) + sk);
                    }
                }
                for k in 0..h {
                    suffix[k] += d * v_row[k] * ops::sigmoid_prime_from_value(h_row[k]);
                }
            }
        }

        let mut out = Vec::with_capacity(self.num_params());
        out.extend_from_slice(dw.as_slice());
        out.extend_from_slice(&db);
        out.extend_from_slice(dv.as_slice());
        out.extend_from_slice(&dc);
        Vector(out)
    }

    fn per_sample_grads(&self, batch: &SpinBatch) -> Matrix {
        let d = self.num_params();
        let mut rows = Matrix::zeros(batch.batch_size(), d);
        // Reuse the weighted pass with a one-hot weight per sample:
        // clarity over speed — SR with NADE is oracle-scale only.
        for s in 0..batch.batch_size() {
            let single = SpinBatch::from_single(batch.sample(s));
            let g = self.weighted_log_psi_grad(&single, &Vector(vec![1.0]));
            rows.row_mut(s).copy_from_slice(&g);
        }
        rows
    }

    fn params(&self) -> Vector {
        let mut out = Vec::with_capacity(self.num_params());
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
        out.extend_from_slice(self.v.as_slice());
        out.extend_from_slice(&self.c);
        Vector(out)
    }

    fn set_params(&mut self, params: &Vector) {
        assert_eq!(params.len(), self.num_params(), "Nade: param length");
        let (h, n) = (self.h, self.n);
        let mut off = 0;
        self.w = Matrix::from_vec(h, n, params.as_slice()[off..off + h * n].to_vec());
        off += h * n;
        self.b = Vector(params.as_slice()[off..off + h].to_vec());
        off += h;
        self.v = Matrix::from_vec(n, h, params.as_slice()[off..off + n * h].to_vec());
        off += n * h;
        self.c = Vector(params.as_slice()[off..off + n].to_vec());
        self.w_t = self.w.transpose();
    }
}

impl Autoregressive for Nade {
    fn conditionals(&self, batch: &SpinBatch) -> Matrix {
        let mut out = Matrix::zeros(batch.batch_size(), self.n);
        for s in 0..batch.batch_size() {
            let x = batch.sample(s);
            let row = out.row_mut(s);
            self.scan(x, |i, _, logit| {
                row[i] = ops::sigmoid(logit);
            });
        }
        out
    }
}

impl std::fmt::Debug for Nade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Nade(n={}, h={}, d={})", self.n, self.h, self.num_params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_tensor::batch::enumerate_configs;
    use vqmc_tensor::reduce::log_sum_exp;

    fn tiny() -> Nade {
        Nade::new(5, 7, 11)
    }

    #[test]
    fn normalised_distribution() {
        for n in 1..=9 {
            let m = Nade::new(n, n + 3, 3 + n as u64);
            let all = enumerate_configs(n);
            let lp = m.log_prob(&all);
            let total = log_sum_exp(&lp);
            assert!(total.abs() < 1e-10, "n={n}: Σπ = exp({total})");
        }
    }

    #[test]
    fn conditionals_respect_autoregressive_order() {
        let m = tiny();
        let mut batch = SpinBatch::zeros(1, 5);
        batch.set(0, 1, 1);
        let base = m.conditionals(&batch);
        for j in 0..5 {
            let mut pert = batch.clone();
            pert.flip(0, j);
            let cond = m.conditionals(&pert);
            for i in 0..=j {
                assert!(
                    (cond.get(0, i) - base.get(0, i)).abs() < 1e-14,
                    "conditional {i} saw bit {j}"
                );
            }
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = tiny();
        let batch = SpinBatch::from_fn(4, 5, |s, i| (((s + 2) * (i + 1)) % 2) as u8);
        let weights = Vector(vec![1.0, -0.4, 0.8, 2.0]);
        let analytic = m.weighted_log_psi_grad(&batch, &weights);
        let p0 = m.params();
        let f = |p: &[f64]| {
            let mut probe = m.clone();
            probe.set_params(&Vector(p.to_vec()));
            let lp = probe.log_psi(&batch);
            lp.iter().zip(weights.iter()).map(|(l, w)| l * w).sum()
        };
        vqmc_autodiff::check_gradient("nade-weighted", &f, &p0, &analytic, 1e-5);
    }

    #[test]
    fn per_sample_rows_sum_to_weighted() {
        let m = tiny();
        let batch = SpinBatch::from_fn(3, 5, |s, i| ((s + i) % 2) as u8);
        let rows = m.per_sample_grads(&batch);
        let weights = Vector(vec![0.5, -1.5, 2.0]);
        let weighted = m.weighted_log_psi_grad(&batch, &weights);
        let mut acc = Vector::zeros(m.num_params());
        for s in 0..3 {
            vqmc_tensor::vector::axpy(&mut acc, weights[s], rows.row(s));
        }
        for k in 0..m.num_params() {
            assert!((acc[k] - weighted[k]).abs() < 1e-10, "param {k}");
        }
    }

    #[test]
    fn native_sampling_matches_model_log_psi() {
        let m = tiny();
        let mut rng = StdRng::seed_from_u64(5);
        let (batch, log_psi) = m.sample_native(32, &mut rng);
        let fresh = m.log_psi(&batch);
        for s in 0..32 {
            assert!((log_psi[s] - fresh[s]).abs() < 1e-10);
        }
    }

    #[test]
    fn native_sampling_is_exact_chi_square() {
        use vqmc_tensor::batch::encode_config;
        let n = 4;
        let m = Nade::new(n, 6, 9);
        let all = enumerate_configs(n);
        let probs: Vec<f64> = m.log_prob(&all).iter().map(|l| l.exp()).collect();
        let draws = 40_000;
        let (batch, _) = m.sample_native(draws, &mut StdRng::seed_from_u64(3));
        let mut counts = [0usize; 16];
        for s in batch.samples() {
            counts[encode_config(s)] += 1;
        }
        let chi2: f64 = (0..16)
            .map(|x| {
                let e = probs[x] * draws as f64;
                (counts[x] as f64 - e) * (counts[x] as f64 - e) / e.max(1e-9)
            })
            .sum();
        assert!(chi2 < 37.7, "chi-square {chi2}");
    }

    #[test]
    fn params_round_trip() {
        let mut m = tiny();
        let batch = enumerate_configs(5);
        let before = m.log_psi(&batch);
        let p = m.params();
        m.set_params(&p);
        let after = m.log_psi(&batch);
        for s in 0..32 {
            assert_eq!(before[s], after[s]);
        }
    }

    /// Rebuilds the NADE computation on the autodiff tape — per-site
    /// prefix-masked hidden states and a row-selected readout — and
    /// returns the gradient of `Σ_s w_s logψ(x_s)` in the flat
    /// `[W|b|V|c]` layout.
    fn tape_weighted_grad(m: &Nade, batch: &SpinBatch, weights: &Vector) -> Vec<f64> {
        use vqmc_autodiff::Tape;
        let (n, h) = (m.num_spins(), m.hidden_size());
        let bs = batch.batch_size();
        let p = m.params();
        let ps = p.as_slice();
        let mut tape = Tape::new();
        let x = tape.input(batch.to_matrix());
        let w = tape.input(Matrix::from_vec(h, n, ps[..h * n].to_vec()));
        let b = tape.input(Matrix::from_vec(1, h, ps[h * n..h * n + h].to_vec()));
        let v = tape.input(Matrix::from_vec(
            n,
            h,
            ps[h * n + h..h * n + h + n * h].to_vec(),
        ));
        let c = tape.input(Matrix::from_vec(1, n, ps[h * n + h + n * h..].to_vec()));
        let mut logits = None;
        for i in 0..n {
            // Site i's hidden state sees bits j < i only.
            let prefix = Matrix::from_fn(bs, n, |_, j| if j < i { 1.0 } else { 0.0 });
            let xp = tape.mul_const(x, prefix);
            let zi = tape.matmul_nt(xp, w);
            let ai = tape.add_row_bias(zi, b);
            let hi = tape.sigmoid(ai); // bs×h
            // Keep only readout row i; its product lands in column i.
            let sel = Matrix::from_fn(n, h, |r, _| if r == i { 1.0 } else { 0.0 });
            let vi = tape.mul_const(v, sel);
            let term = tape.matmul_nt(hi, vi); // bs×n, col i = Vᵢ·hᵢ
            logits = Some(match logits {
                None => term,
                Some(acc) => tape.add(acc, term),
            });
        }
        let lg = tape.add_row_bias(logits.expect("n >= 1"), c);
        let logpi = tape.bernoulli_log_prob(lg, batch.to_matrix());
        let logpsi = tape.scale(logpi, 0.5);
        let weighted =
            tape.mul_const(logpsi, Matrix::from_vec(weights.len(), 1, weights.to_vec()));
        let loss = tape.sum(weighted);
        let grads = tape.backward(loss);
        let mut out = Vec::with_capacity(m.num_params());
        out.extend_from_slice(grads.get(w).as_slice());
        out.extend_from_slice(grads.get(b).as_slice());
        out.extend_from_slice(grads.get(v).as_slice());
        out.extend_from_slice(grads.get(c).as_slice());
        out
    }

    fn assert_close_rel(analytic: &[f64], oracle: &[f64], tag: &str) {
        assert_eq!(analytic.len(), oracle.len(), "{tag}: length");
        for (i, (a, t)) in analytic.iter().zip(oracle).enumerate() {
            let tol = 1e-10 * t.abs().max(1.0);
            assert!(
                (a - t).abs() <= tol,
                "{tag} param {i}: analytic {a} vs tape {t}"
            );
        }
    }

    #[test]
    fn weighted_grad_matches_autodiff_tape() {
        for (n, h, seed) in [(5usize, 7usize, 11u64), (1, 3, 4), (8, 2, 23), (6, 9, 90)] {
            let m = Nade::new(n, h, seed);
            let bs = 5;
            let batch = SpinBatch::from_fn(bs, n, |s, i| {
                (((s + 3) * (i + 2) + seed as usize) % 2) as u8
            });
            let weights = Vector::from_fn(bs, |s| 0.8 - 0.6 * s as f64);
            let analytic = m.weighted_log_psi_grad(&batch, &weights);
            let oracle = tape_weighted_grad(&m, &batch, &weights);
            assert_close_rel(analytic.as_slice(), &oracle, &format!("nade n={n} h={h}"));
        }
    }

    #[test]
    fn per_sample_grads_match_autodiff_tape() {
        // One-hot weight vectors turn the weighted gradient into a
        // per-sample gradient; every row must match the tape oracle.
        let m = tiny();
        let bs = 4;
        let batch = SpinBatch::from_fn(bs, 5, |s, i| (((s + 2) * (i + 1)) % 2) as u8);
        for s in 0..bs {
            let weights = Vector::from_fn(bs, |k| if k == s { 1.0 } else { 0.0 });
            let analytic = m.weighted_log_psi_grad(&batch, &weights);
            let oracle = tape_weighted_grad(&m, &batch, &weights);
            assert_close_rel(analytic.as_slice(), &oracle, &format!("nade sample {s}"));
        }
    }
}
