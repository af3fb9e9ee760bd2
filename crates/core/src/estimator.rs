//! Monte-Carlo estimators (paper Eqs. 3–5).

use vqmc_hamiltonian::{
    local_energies_flip_into, LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian,
};
use vqmc_nn::WaveFunction;
use vqmc_sampler::SampleOutput;
use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

/// Summary statistics of a local-energy batch.
#[derive(Clone, Debug)]
pub struct EnergyStats {
    /// Sample mean — the estimate of `L(θ)` (Eq. 3).
    pub mean: f64,
    /// Sample standard deviation of the local energy — the paper's
    /// zero-variance convergence diagnostic (Eq. 4): it vanishes exactly
    /// when `ψθ` is an eigenvector.
    pub std_dev: f64,
    /// Minimum local energy in the batch (the best configuration seen —
    /// the relevant score for combinatorial optimisation).
    pub min: f64,
}

impl EnergyStats {
    /// Computes the statistics of a local-energy vector.
    pub fn from_local_energies(local: &Vector) -> Self {
        EnergyStats {
            mean: local.mean(),
            std_dev: vqmc_tensor::reduce::std_dev(local),
            min: local.min(),
        }
    }
}

/// The baseline-subtracted energy gradient (Eq. 5):
///
/// ```text
/// ∇L(θ) ≈ (2/bs) Σ_s (l(x_s) − L̄) ∇θ logψθ(x_s)
/// ```
///
/// computed as a single weighted backprop pass — `O(d)` memory at any
/// batch size.  The baseline `L̄` does not change the expectation
/// (`E[∇logψ] ∝ ∇ Σπ = 0` for normalised models) but collapses the
/// variance near convergence.
pub fn energy_gradient(
    wf: &dyn WaveFunction,
    batch: &SpinBatch,
    local: &Vector,
    mean_energy: f64,
) -> Vector {
    let mut ws = Workspace::new();
    let mut weights = Vector::default();
    let mut out = Vector::default();
    energy_gradient_into(wf, batch, local, mean_energy, &mut ws, &mut weights, &mut out);
    out
}

/// [`energy_gradient`] with caller-owned weight/output buffers and a
/// scratch pool for the backprop pass — allocation-free at steady state.
pub fn energy_gradient_into(
    wf: &dyn WaveFunction,
    batch: &SpinBatch,
    local: &Vector,
    mean_energy: f64,
    ws: &mut Workspace,
    weights: &mut Vector,
    out: &mut Vector,
) {
    let bs = batch.batch_size();
    assert_eq!(local.len(), bs, "energy_gradient: local-energy length");
    weights.resize(bs);
    for s in 0..bs {
        weights[s] = 2.0 * (local[s] - mean_energy) / bs as f64;
    }
    wf.weighted_log_psi_grad_into(batch, weights, ws, out);
}

/// Local energies `l(x)` (Eq. 3) of a sampled batch into `out`, each
/// sample's neighbour `logψ` from the wavefunction's flip pass
/// ([`WaveFunction::flip_log_psi_into`]) — the one measurement call
/// every trainer makes.
pub(crate) fn local_energies_into(
    wf: &dyn WaveFunction,
    h: &dyn SparseRowHamiltonian,
    sample: &SampleOutput,
    cfg: LocalEnergyConfig,
    ws: &mut Workspace,
    le: &mut LocalEnergyScratch,
    out: &mut Vector,
) {
    let mut eval = |b: &SpinBatch, flips: &[usize], dst: &mut Matrix| {
        wf.flip_log_psi_into(b, flips, ws, dst)
    };
    local_energies_flip_into(h, &sample.batch, &sample.log_psi, &mut eval, cfg, le, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_hamiltonian::{local_energies, LocalEnergyConfig};
    use vqmc_nn::{Made, WaveFunction};
    use vqmc_tensor::batch::enumerate_configs;

    #[test]
    fn stats_of_constant_batch() {
        let local = Vector(vec![3.0; 10]);
        let s = EnergyStats::from_local_energies(&local);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.0);
    }

    #[test]
    fn stats_known_values() {
        let local = Vector(vec![1.0, 3.0]);
        let s = EnergyStats::from_local_energies(&local);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 1.0);
        assert_eq!(s.min, 1.0);
    }

    /// The Monte-Carlo gradient over the *full enumerated basis with
    /// exact weights* must match the analytic derivative of the Rayleigh
    /// quotient computed by finite differences.
    #[test]
    fn gradient_matches_rayleigh_quotient_derivative() {
        let n = 4;
        let h = vqmc_hamiltonian::TransverseFieldIsing::random(n, 5);
        let wf = Made::new(n, 7, 3);
        let all = enumerate_configs(n);

        // Exact population quantities: probabilities π(x) and locals.
        let log_psi = wf.log_psi(&all);
        let probs: Vec<f64> = {
            let lw: Vec<f64> = log_psi.iter().map(|lp| 2.0 * lp).collect();
            let z = vqmc_tensor::reduce::log_sum_exp(&lw);
            lw.iter().map(|l| (l - z).exp()).collect()
        };
        let mut eval = |b: &SpinBatch| wf.log_psi(b);
        let local = local_energies(&h, &all, &log_psi, &mut eval, LocalEnergyConfig::default());
        let energy: f64 = probs.iter().zip(local.iter()).map(|(p, l)| p * l).sum();

        // Population gradient: 2 Σ_x π(x)(l(x) − L) ∇logψ(x), expressed
        // through the weighted-backprop API with weights π·2(l−L).
        let weights = Vector::from_fn(all.batch_size(), |s| {
            2.0 * probs[s] * (local[s] - energy)
        });
        let analytic = wf.weighted_log_psi_grad(&all, &weights);

        // Finite-difference of the exact Rayleigh quotient.
        let dense = vqmc_hamiltonian::DenseHamiltonian::from_sparse(&h);
        let p0 = wf.params();
        let f = |p: &[f64]| {
            let mut probe = wf.clone();
            probe.set_params(&Vector(p.to_vec()));
            let lp = probe.log_psi(&all);
            let v = Vector::from_fn(1 << n, |x| lp[x].exp());
            dense.rayleigh_quotient(&v)
        };
        vqmc_autodiff::check_gradient("rayleigh-grad", &f, &p0, &analytic, 2e-4);
    }

    #[test]
    fn baseline_reduces_variance_of_stochastic_gradient() {
        // With finite batches, subtracting L̄ must shrink the gradient
        // norm spread across seeds (sanity of the variance-reduction
        // claim, not a theorem-grade test).
        use rand::SeedableRng;
        use vqmc_sampler::{AutoSampler, Sampler};
        let n = 6;
        let h = vqmc_hamiltonian::TransverseFieldIsing::random(n, 9);
        let wf = Made::new(n, 10, 4);
        let mut with_baseline = Vec::new();
        let mut without_baseline = Vec::new();
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let out = AutoSampler::new().sample(&wf, 64, &mut rng);
            let mut eval = |b: &SpinBatch| wf.log_psi(b);
            let local = local_energies(
                &h,
                &out.batch,
                &out.log_psi,
                &mut eval,
                LocalEnergyConfig::default(),
            );
            let stats = EnergyStats::from_local_energies(&local);
            let g1 = energy_gradient(&wf, &out.batch, &local, stats.mean);
            let g0 = energy_gradient(&wf, &out.batch, &local, 0.0);
            with_baseline.push(g1.norm2());
            without_baseline.push(g0.norm2());
        }
        let mean_with: f64 = with_baseline.iter().sum::<f64>() / 8.0;
        let mean_without: f64 = without_baseline.iter().sum::<f64>() / 8.0;
        assert!(
            mean_with < mean_without,
            "baseline should shrink the stochastic gradient ({mean_with} vs {mean_without})"
        );
    }
}
