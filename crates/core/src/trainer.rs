//! The VQMC training loop, on one process or replicated over ranks.
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
//!
//! The same step runs over any [`Collective`] (the mode behind
//! `vqmc-cli train --ranks N`) and keeps the single-process numerics at
//! every world size:
//!
//! * **Sampling is replicated.**  Every rank samples the full batch
//!   from the same RNG stream (`derive_seed(seed, 0, 0)`), so every
//!   rank holds identical batches.
//! * **Measurement is sharded.**  Local energies are the dominant cost
//!   (`n` neighbour evaluations per sample for TIM vs the sampler's one
//!   pass); each rank measures only its contiguous row shard
//!   ([`shard_bounds`]).  A sample's local energy depends only on its
//!   own row, so a shard equals the same slice of the full-batch result
//!   (`shard_slices_match_full_batch` below).  The shards are
//!   allgathered and reassembled in rank order.  At world 1 the shard
//!   is the whole batch: no row is copied and no collective is called.
//! * **Statistics, gradient and update are replicated** on the
//!   bit-identical full local-energy vector.
//!
//! So [`Trainer::step_over`] on a thread or socket mesh of any size
//! produces the byte sequence of [`Trainer::step`], which is what lets
//! the golden trace (-10.555253) be asserted under `--ranks ∈ {1,2,4}`.
//! The data-parallel [`crate::DistributedTrainer`] is a different
//! algorithm: per-rank RNG streams and minibatches, so its trajectory
//! depends on the device count.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_hamiltonian::{LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian};
use vqmc_nn::WaveFunction;
use vqmc_optim::{Adam, Optimizer, Sgd, SrConfig, SrScratch, StochasticReconfiguration};
use vqmc_sampler::{SampleOutput, SampleStats, Sampler};
use vqmc_tensor::{Matrix, SpinBatch, Vector, Workspace};

use crate::backend::{Collective, CollectiveError, SoloCollective};
use crate::estimator::{energy_gradient_into, local_energies_into, EnergyStats};

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

    /// Builds the base optimiser.  SR's base step is SGD (the paper):
    /// [`Trainer`] preconditions the gradient with SR before that step.
    /// [`crate::DistributedTrainer`] runs SGD+SR as plain SGD — SR there
    /// would need the per-sample rows of the *global* batch; the paper's
    /// scaling experiments use Adam, and SR stays a replicated-sampling
    /// feature (Table 2).
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerChoice::Sgd { lr } | OptimizerChoice::SgdSr { lr, .. } => {
                Box::new(Sgd::new(lr))
            }
            OptimizerChoice::Adam { lr } => Box::new(Adam::new(lr)),
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

/// Contiguous row shard of a `total`-row batch owned by `rank`: the
/// first `total % world` ranks take one extra row.  Shards tile the
/// batch in rank order, which is the reassembly order after the
/// allgather.
pub fn shard_bounds(total: usize, world: usize, rank: usize) -> (usize, usize) {
    assert!(rank < world, "rank {rank} out of world {world}");
    let base = total / world;
    let extra = total % world;
    let lo = rank * base + rank.min(extra);
    let hi = lo + base + usize::from(rank < extra);
    (lo, hi)
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
    /// This rank's rows of the sampled batch and their `logψ` (world > 1).
    shard: SampleOutput,
    /// Local energies of the shard (world > 1).
    shard_local: Vector,
    /// Local energies `l(x)` per sample of the full batch.
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

/// The VQMC trainer.  Over a collective, one instance per rank; all
/// ranks must be constructed with identical `(wf, sampler, config)`.
pub struct Trainer<W, S> {
    wf: W,
    sampler: S,
    config: TrainerConfig,
    rng: StdRng,
    scratch: TrainerScratch,
}

/// Unwraps the result of a world-1 run, which calls no collective.
fn solo<T>(r: Result<T, CollectiveError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("a world-1 step calls no collective: {e}"),
    }
}

impl<W, S> Trainer<W, S>
where
    W: WaveFunction,
    S: Sampler<W>,
{
    /// Creates a trainer owning the wavefunction and sampler.  The RNG
    /// is the single-process stream (`derive_seed(seed, 0, 0)`) on every
    /// rank — replicated sampling depends on it.
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

    /// Runs one training iteration in this process, returning its
    /// record.
    ///
    /// Every intermediate lives in the trainer's reused scratch buffers;
    /// once buffer shapes are warm (two iterations) a step performs no
    /// heap allocation.
    pub fn step(&mut self, h: &dyn SparseRowHamiltonian, opt: &mut dyn Optimizer) -> IterationRecord {
        solo(self.step_over(h, &mut SoloCollective, opt))
    }

    /// Runs one training iteration as one rank of `coll` (see the module
    /// docs).  On any collective error the model parameters are
    /// untouched — the only collective runs strictly before the
    /// optimiser step — so a surviving rank reports a clean
    /// [`CollectiveError`] without having applied a partial update.
    pub fn step_over(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        coll: &mut dyn Collective,
        opt: &mut dyn Optimizer,
    ) -> Result<IterationRecord, CollectiveError> {
        let start = Instant::now();
        let bs = self.config.batch_size;
        let le_cfg = self.config.local_energy;
        let TrainerScratch {
            ws,
            sample_out,
            shard,
            shard_local,
            local,
            le,
            weights,
            grad,
            params,
            o_rows,
            sr,
            direction,
        } = &mut self.scratch;

        // 1. Replicated sampling: the full batch, the same stream on
        // every rank.
        self.sampler.sample_into(&self.wf, bs, &mut self.rng, sample_out);

        // 2. Measurement: the whole batch at world 1; otherwise this
        // rank's shard, allgathered and reassembled in rank order.
        let world = coll.world();
        if world == 1 {
            local_energies_into(&self.wf, h, sample_out, le_cfg, ws, le, local);
        } else {
            let (lo, hi) = shard_bounds(bs, world, coll.rank());
            if hi > lo {
                sample_out.batch.copy_rows_into(lo..hi, &mut shard.batch);
                shard.log_psi.resize(hi - lo);
                shard
                    .log_psi
                    .as_mut_slice()
                    .copy_from_slice(&sample_out.log_psi.as_slice()[lo..hi]);
                local_energies_into(&self.wf, h, shard, le_cfg, ws, le, shard_local);
            } else {
                // More ranks than samples: this rank measures nothing but
                // still takes part in the collective.
                shard_local.resize(0);
            }
            let gathered = coll.allgather(shard_local)?;
            local.resize(bs);
            for (r, part) in gathered.iter().enumerate() {
                let (rlo, rhi) = shard_bounds(bs, world, r);
                if part.len() != rhi - rlo {
                    return Err(CollectiveError::Protocol(format!(
                        "rank {r} gathered {} local energies, expected {}",
                        part.len(),
                        rhi - rlo
                    )));
                }
                local.as_mut_slice()[rlo..rhi].copy_from_slice(part.as_slice());
            }
        }

        // 3–4. Replicated statistics, gradient and update.
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

        Ok(IterationRecord {
            energy: stats.mean,
            std_dev: stats.std_dev,
            min_energy: stats.min,
            wall_secs: start.elapsed().as_secs_f64(),
            sample_stats: sample_out.stats,
        })
    }

    /// Runs the configured number of iterations in this process.
    pub fn run(&mut self, h: &dyn SparseRowHamiltonian) -> TrainingTrace {
        solo(self.run_over(h, &mut SoloCollective))
    }

    /// Runs the configured number of iterations as one rank of `coll`.
    /// Stops at the first collective failure with no partial update
    /// applied.
    pub fn run_over(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        coll: &mut dyn Collective,
    ) -> Result<TrainingTrace, CollectiveError> {
        let mut opt = self.make_optimizer();
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.config.iterations);
        for _ in 0..self.config.iterations {
            records.push(self.step_over(h, coll, opt.as_mut())?);
        }
        Ok(TrainingTrace {
            records,
            total_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Builds the configured base optimiser ([`OptimizerChoice::build`]).
    pub fn make_optimizer(&self) -> Box<dyn Optimizer> {
        self.config.optimizer.build()
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
        local_energies_into(&self.wf, h, &out, self.config.local_energy, ws, le, local);
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
    use vqmc_sampler::{AutoSampler, IncrementalAutoSampler, McmcSampler, RbmFastMcmc};

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
    fn shard_bounds_tile_the_batch() {
        for &(total, world) in &[(128usize, 1usize), (128, 2), (128, 3), (7, 4), (3, 5), (0, 2)] {
            let mut next = 0;
            for rank in 0..world {
                let (lo, hi) = shard_bounds(total, world, rank);
                assert_eq!(lo, next, "total {total}, world {world}, rank {rank}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, total, "shards must cover the batch exactly");
            // Balanced: sizes differ by at most one row.
            let sizes: Vec<usize> = (0..world)
                .map(|r| {
                    let (lo, hi) = shard_bounds(total, world, r);
                    hi - lo
                })
                .collect();
            let (min, max) = (
                *sizes.iter().min().unwrap(),
                *sizes.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    /// The design-carrying property of sharded measurement: per-sample
    /// local energies are invariant to batch composition, so a shard's
    /// result equals the same slice of the full-batch result, bit for
    /// bit.
    #[test]
    fn shard_slices_match_full_batch() {
        let n = 8;
        let bs = 37;
        let h = TransverseFieldIsing::random(n, 5);
        let wf = Made::new(n, 12, 9);
        let mut rng = StdRng::seed_from_u64(1234);
        let out = IncrementalAutoSampler::new().sample(&wf, bs, &mut rng);
        let measure = |sample: &SampleOutput| {
            let mut local = Vector::default();
            let cfg = LocalEnergyConfig::default();
            let (mut ws, mut le) = (Workspace::default(), LocalEnergyScratch::default());
            local_energies_into(&wf, &h, sample, cfg, &mut ws, &mut le, &mut local);
            local
        };
        let full = measure(&out);

        for world in [2usize, 3, 5] {
            for rank in 0..world {
                let (lo, hi) = shard_bounds(bs, world, rank);
                let mut shard = SampleOutput::default();
                out.batch.copy_rows_into(lo..hi, &mut shard.batch);
                shard.log_psi = Vector(out.log_psi.as_slice()[lo..hi].to_vec());
                assert_eq!(
                    measure(&shard).as_slice(),
                    &full.as_slice()[lo..hi],
                    "world {world}, rank {rank}: shard not bit-identical to full-batch slice"
                );
            }
        }
    }

    /// `step_over` on a thread mesh of any world size reproduces the
    /// in-process `run` bit for bit — energies, spreads, minima and
    /// final parameters on every rank — for Adam and SGD+SR at depth 1
    /// and for a depth-2 stack.  World 1 takes the no-collective path;
    /// 3 ranks exercise the non-power-of-two tree and a ragged shard
    /// split (50 = 17 + 17 + 16).
    #[test]
    fn thread_mesh_matches_plain_trainer_bitwise_any_world() {
        use crate::backend::ThreadMesh;
        use std::time::Duration;

        let n = 7;
        let h = TransverseFieldIsing::random(n, 17);
        let cases = [
            (vec![10usize], OptimizerChoice::paper_default()),
            (vec![10], OptimizerChoice::paper_sr()),
            (vec![10, 6], OptimizerChoice::paper_default()),
        ];
        let bits = |r: &IterationRecord| [r.energy, r.std_dev, r.min_energy].map(f64::to_bits);
        for (hidden, opt) in cases {
            let cfg = small_config(6, 50, opt, 3);
            let made = Made::with_hidden(n, &hidden, 4);
            let mut plain = Trainer::new(made.clone(), IncrementalAutoSampler::new(), cfg);
            let reference = plain.run(&h);
            let ref_params = plain.into_wavefunction().params();

            for world in [1usize, 2, 3, 4] {
                let handles: Vec<_> = ThreadMesh::split(world, Duration::from_secs(30))
                    .into_iter()
                    .map(|mut mesh| {
                        let (h, made) = (h.clone(), made.clone());
                        std::thread::spawn(move || {
                            let mut t = Trainer::new(made, IncrementalAutoSampler::new(), cfg);
                            let trace = t.run_over(&h, &mut mesh).unwrap();
                            (trace, t.into_wavefunction().params())
                        })
                    })
                    .collect();
                for (rank, handle) in handles.into_iter().enumerate() {
                    let tag = format!("{hidden:?} {} world {world} rank {rank}", opt.label());
                    let (trace, params) = handle.join().unwrap();
                    assert_eq!(trace.records.len(), reference.records.len(), "{tag}");
                    for (i, (a, b)) in reference.records.iter().zip(&trace.records).enumerate() {
                        assert_eq!(bits(a), bits(b), "{tag} iter {i}");
                    }
                    assert_eq!(
                        ref_params.as_slice(),
                        params.as_slice(),
                        "{tag}: parameters diverged"
                    );
                }
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
