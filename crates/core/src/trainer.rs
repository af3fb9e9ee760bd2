//! The single-device VQMC training loop.
//!
//! One iteration is the paper's Figure 1 right-hand side:
//!
//! 1. **Sample** a batch from `|ψθ|²` (AUTO or MCMC);
//! 2. **Measure** local energies `l(x)` (Eq. 3) and their statistics;
//! 3. **Gradient** via the baseline-subtracted estimator (Eq. 5);
//! 4. **Update** with SGD / Adam, optionally preconditioned by
//!    stochastic reconfiguration (natural gradient).
//!
//! Every iteration is recorded — energy, the zero-variance diagnostic,
//! wall-clock and sampler cost — which is exactly the data behind the
//! paper's Figure 2 training curves and the timing tables.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_hamiltonian::{
    local_energies_flip_into, LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian,
};
use vqmc_nn::WaveFunction;
use vqmc_optim::{Adam, Optimizer, Sgd, SrConfig, SrScratch, StochasticReconfiguration};
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

use crate::estimator::{energy_gradient_into, EnergyStats};

/// Which optimiser drives the update (paper §5.1 settings as defaults).
#[derive(Clone, Copy, Debug)]
pub enum OptimizerChoice {
    /// Plain SGD (paper lr 0.1).
    Sgd {
        /// Learning rate.
        lr: f64,
    },
    /// Adam (paper lr 0.01; the paper's default optimiser).
    Adam {
        /// Learning rate.
        lr: f64,
    },
    /// SGD on the stochastic-reconfiguration (natural-gradient)
    /// direction (paper: lr 0.1, λ = 10⁻³).
    SgdSr {
        /// Learning rate applied to the natural-gradient direction.
        lr: f64,
        /// SR solve configuration.
        sr: SrConfig,
    },
}

impl OptimizerChoice {
    /// The paper's default: Adam at lr 0.01.
    pub fn paper_default() -> Self {
        OptimizerChoice::Adam { lr: 0.01 }
    }

    /// The paper's SGD+SR setting.
    pub fn paper_sr() -> Self {
        OptimizerChoice::SgdSr {
            lr: 0.1,
            sr: SrConfig::default(),
        }
    }

    /// Table label ("SGD", "ADAM", "SGD+SR").
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerChoice::Sgd { .. } => "SGD",
            OptimizerChoice::Adam { .. } => "ADAM",
            OptimizerChoice::SgdSr { .. } => "SGD+SR",
        }
    }
}

/// Trainer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TrainerConfig {
    /// Training iterations (paper: 300).
    pub iterations: usize,
    /// Batch size per iteration (paper single-GPU: 1024).
    pub batch_size: usize,
    /// Optimiser.
    pub optimizer: OptimizerChoice,
    /// Local-energy chunking.
    pub local_energy: LocalEnergyConfig,
    /// Master seed for the sampling RNG stream.
    pub seed: u64,
}

impl TrainerConfig {
    /// The paper's single-GPU setup: 300 iterations, batch 1024, Adam.
    pub fn paper_default(seed: u64) -> Self {
        TrainerConfig {
            iterations: 300,
            batch_size: 1024,
            optimizer: OptimizerChoice::paper_default(),
            local_energy: LocalEnergyConfig::default(),
            seed,
        }
    }
}

/// One training iteration's record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Mean local energy (the training loss of Figure 2's red curves).
    pub energy: f64,
    /// Std-dev of the local energy (Figure 2's blue curves).
    pub std_dev: f64,
    /// Best (lowest) local energy in the batch.
    pub min_energy: f64,
    /// Wall-clock seconds spent in this iteration.
    pub wall_secs: f64,
    /// Sampler cost accounting.
    pub sample_stats: SampleStats,
}

/// A full training run's trace.
#[derive(Clone, Debug, Default)]
pub struct TrainingTrace {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// Total wall-clock seconds.
    pub total_secs: f64,
}

impl TrainingTrace {
    /// Final recorded energy.
    pub fn final_energy(&self) -> f64 {
        self.records.last().expect("empty trace").energy
    }

    /// Minimum mean energy over the run.
    pub fn best_energy(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.energy)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Evaluation result on a fresh test batch (the paper's protocol: draw
/// 1024 fresh samples from the trained model, report their mean).
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Energy statistics of the evaluation batch.
    pub stats: EnergyStats,
    /// The evaluation batch itself (for cut-value reporting etc.).
    pub batch: SpinBatch,
}

/// Every buffer one training iteration needs, owned across iterations
/// so that [`Trainer::step`] performs **zero heap allocations** once the
/// shapes are warm (two iterations suffice; verified by the
/// allocation-counter test in this crate).
#[derive(Debug, Default)]
struct TrainerScratch {
    /// Scratch pool for wavefunction forward/backward passes.
    ws: Workspace,
    /// The sampled batch and its `logψ`.
    sample_out: SampleOutput,
    /// Local energies `l(x)` per sample.
    local: Vector,
    /// Local-energy engine scratch (work items, neighbour batch).
    le: LocalEnergyScratch,
    /// Baseline-subtracted per-sample weights.
    weights: Vector,
    /// Energy gradient.
    grad: Vector,
    /// Parameter vector (round-tripped through the optimiser).
    params: Vector,
    /// Per-sample log-derivative rows `O` (SR only).
    o_rows: Matrix,
    /// SR solver scratch (mean row, CG vectors).
    sr: SrScratch,
    /// Natural-gradient direction (SR only).
    direction: Vector,
}

/// The single-device VQMC trainer.
pub struct Trainer<W, S> {
    wf: W,
    sampler: S,
    config: TrainerConfig,
    rng: StdRng,
    scratch: TrainerScratch,
}

impl<W, S> Trainer<W, S>
where
    W: WaveFunction,
    S: Sampler<W>,
{
    /// Creates a trainer owning the wavefunction and sampler.
    pub fn new(wf: W, sampler: S, config: TrainerConfig) -> Self {
        let rng = StdRng::seed_from_u64(crate::derive_seed(config.seed, 0, 0));
        Trainer {
            wf,
            sampler,
            config,
            rng,
            scratch: TrainerScratch::default(),
        }
    }

    /// Read access to the (current) wavefunction.
    pub fn wavefunction(&self) -> &W {
        &self.wf
    }

    /// Consumes the trainer, returning the trained wavefunction.
    pub fn into_wavefunction(self) -> W {
        self.wf
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Runs one training iteration, returning its record.
    ///
    /// Every intermediate lives in [`TrainerScratch`]; once buffer shapes
    /// are warm (two iterations) a step performs no heap allocation.
    pub fn step(&mut self, h: &dyn SparseRowHamiltonian, opt: &mut dyn Optimizer) -> IterationRecord {
        let start = Instant::now();
        let TrainerScratch {
            ws,
            sample_out,
            local,
            le,
            weights,
            grad,
            params,
            o_rows,
            sr,
            direction,
        } = &mut self.scratch;
        self.sampler
            .sample_into(&self.wf, self.config.batch_size, &mut self.rng, sample_out);
        let wf = &self.wf;
        let mut eval = |b: &SpinBatch, flips: &[usize], out: &mut Matrix| {
            wf.flip_log_psi_into(b, flips, ws, out)
        };
        local_energies_flip_into(
            h,
            &sample_out.batch,
            &sample_out.log_psi,
            &mut eval,
            self.config.local_energy,
            le,
            local,
        );
        let stats = EnergyStats::from_local_energies(local);
        energy_gradient_into(&self.wf, &sample_out.batch, local, stats.mean, ws, weights, grad);

        let update: &Vector = match self.config.optimizer {
            OptimizerChoice::SgdSr { sr: sr_cfg, .. } => {
                self.wf
                    .per_sample_grads_into(&sample_out.batch, ws, o_rows);
                StochasticReconfiguration::new(sr_cfg)
                    .precondition_into(o_rows, grad, sr, direction);
                direction
            }
            _ => grad,
        };
        self.wf.params_into(params);
        opt.step(params, update);
        self.wf.set_params(params);

        IterationRecord {
            energy: stats.mean,
            std_dev: stats.std_dev,
            min_energy: stats.min,
            wall_secs: start.elapsed().as_secs_f64(),
            sample_stats: sample_out.stats,
        }
    }

    /// Runs the configured number of iterations.
    pub fn run(&mut self, h: &dyn SparseRowHamiltonian) -> TrainingTrace {
        let mut opt = self.make_optimizer();
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            records.push(self.step(h, opt.as_mut()));
        }
        TrainingTrace {
            records,
            total_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Builds the configured base optimiser (SR preconditions inside
    /// [`Trainer::step`]; its base step is SGD per the paper).
    pub fn make_optimizer(&self) -> Box<dyn Optimizer> {
        match self.config.optimizer {
            OptimizerChoice::Sgd { lr } => Box::new(Sgd::new(lr)),
            OptimizerChoice::Adam { lr } => Box::new(Adam::new(lr)),
            OptimizerChoice::SgdSr { lr, .. } => Box::new(Sgd::new(lr)),
        }
    }

    /// Draws a fresh evaluation batch from the trained model and
    /// reports its statistics (the paper's test protocol).
    pub fn evaluate(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        eval_batch_size: usize,
    ) -> EvalResult {
        let out = self.sampler.sample(&self.wf, eval_batch_size, &mut self.rng);
        let TrainerScratch { ws, le, local, .. } = &mut self.scratch;
        let wf = &self.wf;
        let mut eval = |b: &SpinBatch, flips: &[usize], dst: &mut Matrix| {
            wf.flip_log_psi_into(b, flips, ws, dst)
        };
        local_energies_flip_into(
            h,
            &out.batch,
            &out.log_psi,
            &mut eval,
            self.config.local_energy,
            le,
            local,
        );
        EvalResult {
            stats: EnergyStats::from_local_energies(local),
            batch: out.batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_hamiltonian::{ground_state, MaxCut, TransverseFieldIsing};
    use vqmc_nn::{Made, Rbm};
    use vqmc_sampler::{AutoSampler, McmcSampler, RbmFastMcmc};

    fn small_config(iters: usize, bs: usize, opt: OptimizerChoice, seed: u64) -> TrainerConfig {
        TrainerConfig {
            iterations: iters,
            batch_size: bs,
            optimizer: opt,
            local_energy: LocalEnergyConfig::default(),
            seed,
        }
    }

    #[test]
    fn energy_respects_variational_bound() {
        // L(θ) ≥ λ_min at every iteration (Eq. 1's inequality) — up to
        // Monte-Carlo noise, bounded here by 4σ/√bs.
        let n = 6;
        let h = TransverseFieldIsing::random(n, 3);
        let gs = ground_state(&h, 200, 1e-10);
        let cfg = small_config(30, 256, OptimizerChoice::paper_default(), 1);
        let mut t = Trainer::new(Made::new(n, 12, 7), AutoSampler::new(), cfg);
        let trace = t.run(&h);
        for (i, rec) in trace.records.iter().enumerate() {
            let tolerance = 4.0 * rec.std_dev / (256.0f64).sqrt() + 1e-9;
            assert!(
                rec.energy >= gs.energy - tolerance,
                "iter {i}: energy {} below λ_min {}",
                rec.energy,
                gs.energy
            );
        }
    }

    #[test]
    fn made_auto_converges_to_ground_state_small_tim() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 11);
        let gs = ground_state(&h, 200, 1e-10);
        let cfg = small_config(250, 512, OptimizerChoice::paper_default(), 5);
        let mut t = Trainer::new(Made::new(n, 12, 2), AutoSampler::new(), cfg);
        let trace = t.run(&h);
        let final_e = trace.records.last().unwrap().energy;
        let gap = (final_e - gs.energy) / gs.energy.abs();
        assert!(
            gap.abs() < 0.05,
            "converged to {final_e}, exact {}, relative gap {gap}",
            gs.energy
        );
        // Zero-variance diagnostic must have shrunk substantially.
        let first_std = trace.records[0].std_dev;
        let last_std = trace.records.last().unwrap().std_dev;
        assert!(last_std < first_std * 0.5, "{first_std} -> {last_std}");
    }

    #[test]
    fn sgd_sr_converges_faster_than_sgd_on_small_tim() {
        // The paper's observation: natural gradient reaches lower energy
        // in the same iteration budget.
        let n = 5;
        let h = TransverseFieldIsing::random(n, 21);
        let iters = 60;
        let run = |opt: OptimizerChoice| {
            let cfg = small_config(iters, 256, opt, 9);
            let mut t = Trainer::new(Made::new(n, 10, 9), AutoSampler::new(), cfg);
            t.run(&h).final_energy()
        };
        let sgd = run(OptimizerChoice::Sgd { lr: 0.1 });
        let sr = run(OptimizerChoice::paper_sr());
        assert!(
            sr <= sgd + 1e-6,
            "SR ({sr}) should not be worse than SGD ({sgd}) here"
        );
    }

    #[test]
    fn rbm_mcmc_trains_on_maxcut() {
        let n = 10;
        let mc = MaxCut::random(n, 5);
        let cfg = small_config(60, 128, OptimizerChoice::paper_default(), 2);
        let mut t = Trainer::new(
            Rbm::new(n, n, 4),
            RbmFastMcmc(McmcSampler::default()),
            cfg,
        );
        let trace = t.run(&mc);
        // Energy = −cut must improve over training.
        let first = trace.records[0].energy;
        let last = trace.final_energy();
        assert!(last < first, "no improvement: {first} -> {last}");
        // And the evaluation protocol returns a consistent batch.
        let eval = t.evaluate(&mc, 64);
        assert_eq!(eval.batch.batch_size(), 64);
        assert!(eval.stats.mean <= 0.0, "Max-Cut energies are non-positive");
    }

    #[test]
    fn trace_is_deterministic_given_seed() {
        let n = 5;
        let h = TransverseFieldIsing::random(n, 2);
        let run = || {
            let cfg = small_config(10, 64, OptimizerChoice::paper_default(), 77);
            let mut t = Trainer::new(Made::new(n, 8, 3), AutoSampler::new(), cfg);
            t.run(&h)
        };
        let a = run();
        let b = run();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.energy, rb.energy);
            assert_eq!(ra.std_dev, rb.std_dev);
        }
    }

    /// `Made` with every method forwarded except `flip_log_psi_into`,
    /// so the trainer's local energy runs the trait default (one full
    /// forward pass per neighbour).
    struct FullForward(Made);

    impl WaveFunction for FullForward {
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
        fn set_params(&mut self, params: &Vector) {
            self.0.set_params(params)
        }
        fn log_psi_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
            self.0.log_psi_into(batch, ws, out)
        }
        fn weighted_log_psi_grad_into(
            &self,
            batch: &SpinBatch,
            weights: &Vector,
            ws: &mut Workspace,
            out: &mut Vector,
        ) {
            self.0.weighted_log_psi_grad_into(batch, weights, ws, out)
        }
        fn per_sample_grads_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
            self.0.per_sample_grads_into(batch, ws, out)
        }
        fn params_into(&self, out: &mut Vector) {
            self.0.params_into(out)
        }
    }

    impl vqmc_nn::Autoregressive for FullForward {
        fn conditionals(&self, batch: &SpinBatch) -> Matrix {
            self.0.conditionals(batch)
        }
        fn conditionals_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Matrix) {
            self.0.conditionals_into(batch, ws, out)
        }
    }

    /// The trainer on MADE's flip-local local energy reproduces the
    /// full-forward trainer bit for bit over several TIM iterations —
    /// energies, spreads and final parameters — at depths 1 and 2, with
    /// every flip in one call and with one flip per call.
    #[test]
    fn flip_local_energy_trains_bit_identically_to_full_forward() {
        let n = 10;
        let h = TransverseFieldIsing::random(n, 8);
        for hidden in [vec![24usize], vec![20, 14]] {
            for chunk_rows in [16_384usize, 40] {
                let mut cfg = small_config(6, 48, OptimizerChoice::paper_default(), 4);
                cfg.local_energy = LocalEnergyConfig { chunk_rows };
                let wf = Made::with_hidden(n, &hidden, 6);
                let mut fast = Trainer::new(wf.clone(), AutoSampler::new(), cfg);
                let mut full = Trainer::new(FullForward(wf), AutoSampler::new(), cfg);
                let (a, b) = (fast.run(&h), full.run(&h));
                for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
                    let tag = format!("hidden {hidden:?} chunk {chunk_rows} iter {i}");
                    assert_eq!(ra.energy.to_bits(), rb.energy.to_bits(), "{tag}");
                    assert_eq!(ra.std_dev.to_bits(), rb.std_dev.to_bits(), "{tag}");
                }
                let bits = |v: Vector| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(fast.wavefunction().params()),
                    bits(full.wavefunction().params()),
                    "hidden {hidden:?} chunk {chunk_rows}: final parameters"
                );
            }
        }
    }

    #[test]
    fn optimizer_labels() {
        assert_eq!(OptimizerChoice::paper_default().label(), "ADAM");
        assert_eq!(OptimizerChoice::paper_sr().label(), "SGD+SR");
        assert_eq!(OptimizerChoice::Sgd { lr: 0.1 }.label(), "SGD");
    }
}
