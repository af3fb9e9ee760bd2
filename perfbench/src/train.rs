//! The two training workloads.
//!
//! * `tim_le` — local-energy-bound single-process training (TIM).
//! * `maxcut_deep_dp2` — sampling-bound data-parallel training (Max-Cut,
//!   deep MADE) on a two-rank loopback socket mesh, plus the same
//!   per-rank minibatch on one plain worker as the baseline.
//!
//! Untraced runs call the program exactly as a user would
//! (`Trainer::step`, `DistributedTrainer::try_step`).  Traced runs time
//! the same public calls from outside: for `tim_le` the benchmark
//! drives the calls `Trainer::step` makes, in the same order; for
//! `maxcut_deep_dp2` it hands `try_step` a timing sampler, a timing
//! collective and a counting Hamiltonian.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqmc_core::backend::{Collective, CollectiveError};
use vqmc_core::estimator::energy_gradient_into;
use vqmc_core::{
    DistributedConfig, DistributedTrainer, EnergyStats, OptimizerChoice, Trainer, TrainerConfig,
};
use vqmc_dist::{Mesh, MeshConfig};
use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, MaxCut, SparseRowHamiltonian,
    TransverseFieldIsing,
};
use vqmc_nn::{Made, WaveFunction};
use vqmc_optim::{Adam, Optimizer};
use vqmc_sampler::{IncrementalAutoSampler, SampleOutput, Sampler};
use vqmc_tensor::{par, SpinBatch, Vector, Workspace};

use crate::util::{
    median, pin_current_thread, self_secs, sub_seed, tail, write_spans, Outcome, Recorder, Span,
};
use crate::RunCfg;

/// Iterations whose energies the `tim_le` gate compares (the set-up
/// warm-up iteration counts as the first).
pub const GATE_ITERS: usize = 3;

/// Shape of the `tim_le` workload.
#[derive(Clone, Debug)]
pub struct TimShape {
    /// Spins.
    pub n: usize,
    /// MADE hidden widths.
    pub hidden: Vec<usize>,
    /// Samples per iteration.
    pub batch: usize,
    /// Kernel pool width.
    pub threads: usize,
}

impl TimShape {
    /// The measured shape.
    pub fn full() -> Self {
        TimShape {
            n: 128,
            hidden: vec![128],
            batch: 1024,
            threads: 2,
        }
    }

    /// The self-test shape.
    pub fn tiny() -> Self {
        TimShape {
            n: 12,
            hidden: vec![16],
            batch: 64,
            threads: 2,
        }
    }
}

/// Shape of the `maxcut_deep_dp2` workload.
#[derive(Clone, Debug)]
pub struct DpShape {
    /// Spins.
    pub n: usize,
    /// MADE hidden widths.
    pub hidden: Vec<usize>,
    /// Samples per rank per iteration.
    pub per_rank: usize,
    /// Ranks of the loopback mesh.
    pub ranks: usize,
}

impl DpShape {
    /// The measured shape.
    pub fn full() -> Self {
        DpShape {
            n: 256,
            hidden: vec![128, 64],
            per_rank: 256,
            ranks: 2,
        }
    }

    /// The self-test shape.
    pub fn tiny() -> Self {
        DpShape {
            n: 16,
            hidden: vec![16, 8],
            per_rank: 32,
            ranks: 2,
        }
    }
}

const ADAM_LR: f64 = 0.01;

/// Multiply-adds of one MADE forward row, counted as computed (masked
/// entries included): `2·in·out` flops per layer.
fn forward_flops_per_row(wf: &Made) -> f64 {
    wf.layers()
        .iter()
        .map(|l| 2.0 * (l.in_dim() * l.out_dim()) as f64)
        .sum()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Perturbs the last value by one ULP: the wrong expected value the
/// self-test feeds each gate.
fn corrupt(mut v: Vec<f64>) -> Vec<f64> {
    if let Some(x) = v.last_mut() {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
    v
}

/// The `tim_le` output gate: the first [`GATE_ITERS`] energies equal the
/// expected ones bit for bit.
pub fn energy_gate(measured: &[f64], expected: &[f64]) -> Result<String, String> {
    let k = GATE_ITERS.min(measured.len());
    if expected.len() < k {
        return Err(format!(
            "{} expected energies for {k} iterations",
            expected.len()
        ));
    }
    if bits_equal(&measured[..k], &expected[..k]) {
        Ok(format!("first {k} energies bit-identical"))
    } else {
        Err(format!(
            "energies {:?} differ from expected {:?}",
            &measured[..k],
            &expected[..k]
        ))
    }
}

/// The `maxcut_deep_dp2` output gate: every rank ends with the same
/// parameters, bit for bit.
pub fn replica_gate(params: &[Vec<f64>]) -> Result<String, String> {
    match params.iter().position(|p| !bits_equal(p, &params[0])) {
        None => Ok(format!(
            "{} ranks hold bit-identical parameters",
            params.len()
        )),
        Some(r) => Err(format!("rank {r} parameters differ from rank 0")),
    }
}

fn tim_instance(seed: u64, shape: &TimShape) -> (TransverseFieldIsing, Made, TrainerConfig) {
    let h = TransverseFieldIsing::random(shape.n, sub_seed(seed, 1));
    let wf = Made::with_hidden(shape.n, &shape.hidden, sub_seed(seed, 2));
    let cfg = TrainerConfig {
        iterations: GATE_ITERS,
        batch_size: shape.batch,
        optimizer: OptimizerChoice::Adam { lr: ADAM_LR },
        local_energy: LocalEnergyConfig::default(),
        seed: sub_seed(seed, 3),
    };
    (h, wf, cfg)
}

/// The first [`GATE_ITERS`] energies of `Trainer::run` at this seed —
/// the value `pins.json` stores, and the fallback reference for seeds
/// it does not cover.
pub fn reference_energies(seed: u64, shape: &TimShape) -> Vec<f64> {
    par::with_threads(shape.threads, || {
        let (h, wf, cfg) = tim_instance(seed, shape);
        let mut t = Trainer::new(wf, IncrementalAutoSampler::new(), cfg);
        t.run(&h).records.iter().map(|r| r.energy).collect()
    })
}

/// The buffers and state `Trainer::step` keeps, owned by the benchmark
/// so the traced run can time each call.
struct ManualStep {
    wf: Made,
    sampler: IncrementalAutoSampler,
    rng: StdRng,
    opt: Adam,
    ws: Workspace,
    out: SampleOutput,
    local: Vector,
    le: LocalEnergyScratch,
    weights: Vector,
    grad: Vector,
    params: Vector,
}

impl ManualStep {
    fn new(wf: Made, cfg: &TrainerConfig) -> Self {
        ManualStep {
            wf,
            sampler: IncrementalAutoSampler::new(),
            // The stream `Trainer::new` derives from the config seed.
            rng: StdRng::seed_from_u64(vqmc_core::derive_seed(cfg.seed, 0, 0)),
            opt: Adam::new(ADAM_LR),
            ws: Workspace::new(),
            out: SampleOutput::default(),
            local: Vector::default(),
            le: LocalEnergyScratch::new(),
            weights: Vector::default(),
            grad: Vector::default(),
            params: Vector::default(),
        }
    }

    /// One iteration through the same public calls, in the same order,
    /// as `Trainer::step` with Adam; spans go to `rec` under `id`.
    /// Returns the mean energy and the neighbour rows evaluated.
    fn step(
        &mut self,
        h: &dyn SparseRowHamiltonian,
        cfg: &TrainerConfig,
        rec: &Recorder,
        id: u64,
    ) -> (f64, u64) {
        let ManualStep {
            wf,
            sampler,
            rng,
            opt,
            ws,
            out,
            local,
            le,
            weights,
            grad,
            params,
        } = self;
        let span = |name, start, end| Span {
            name,
            start,
            end,
            parent: None,
            id,
            lane: 0,
        };
        let t0 = rec.now();
        sampler.sample_into(wf, cfg.batch_size, rng, out);
        let t1 = rec.now();
        let mut fwd = Vec::with_capacity(16);
        let mut rows = 0u64;
        {
            let wf: &Made = wf;
            let mut eval = |b: &SpinBatch, dst: &mut Vector| {
                let a = rec.now();
                wf.log_psi_into(b, ws, dst);
                fwd.push(rec.push(span("nn.log_psi_into", a, rec.now())));
                rows += b.batch_size() as u64;
            };
            local_energies_into(
                h,
                &out.batch,
                &out.log_psi,
                &mut eval,
                cfg.local_energy,
                le,
                local,
            );
        }
        let t2 = rec.now();
        let stats = EnergyStats::from_local_energies(local);
        let t3 = rec.now();
        energy_gradient_into(&*wf, &out.batch, local, stats.mean, ws, weights, grad);
        let t4 = rec.now();
        wf.params_into(params);
        opt.step(params, grad);
        wf.set_params(params);
        let t5 = rec.now();
        let root = rec.push(span("core.step", t0, t5));
        let le_idx = rec.push(Span {
            parent: Some(root),
            ..span("hamiltonian.local_energies_into", t1, t2)
        });
        for i in fwd {
            rec.set_parent(i, le_idx);
        }
        for (name, a, b) in [
            ("sampler.sample_into", t0, t1),
            ("nn.energy_gradient_into", t3, t4),
            ("optim.update", t4, t5),
        ] {
            rec.push(Span {
                parent: Some(root),
                ..span(name, a, b)
            });
        }
        (stats.mean, rows)
    }
}

/// Per-iteration sums of each span name, over root spans named `root`.
struct IterSplit {
    /// Root span duration per iteration.
    step: Vec<f64>,
    /// name → per-iteration total duration, aligned with `step`.
    busy: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// name → per-iteration total self time, aligned with `step`.
    selft: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

fn split_by_iteration(spans: &[Span], root: &str) -> IterSplit {
    let selfs = self_secs(spans);
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == root)
        .collect();
    let slot_of: std::collections::HashMap<usize, usize> = roots
        .iter()
        .enumerate()
        .map(|(slot, &i)| (i, slot))
        .collect();
    let mut split = IterSplit {
        step: roots.iter().map(|&i| spans[i].secs()).collect(),
        busy: Default::default(),
        selft: Default::default(),
    };
    for (i, s) in spans.iter().enumerate() {
        // Walk up to the root span this one belongs to.
        let mut top = i;
        while let Some(p) = spans[top].parent {
            top = p;
        }
        let Some(&slot) = slot_of.get(&top) else {
            continue;
        };
        let n = roots.len();
        split.busy.entry(s.name).or_insert_with(|| vec![0.0; n])[slot] += s.secs();
        split.selft.entry(s.name).or_insert_with(|| vec![0.0; n])[slot] += selfs[i];
    }
    split
}

impl IterSplit {
    fn busy(&self, name: &str) -> Vec<f64> {
        self.busy
            .get(name)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.step.len()])
    }

    fn median_busy(&self, name: &str) -> f64 {
        median(&self.busy(name))
    }

    fn median_self(&self, name: &str) -> f64 {
        median(
            &self
                .selft
                .get(name)
                .cloned()
                .unwrap_or_else(|| vec![0.0; self.step.len()]),
        )
    }

    fn share(&self, name: &str) -> f64 {
        self.busy(name).iter().sum::<f64>() / self.step.iter().sum::<f64>()
    }
}

fn training_e2e(out: &mut Outcome, setup: &[f64], iter_s: &[f64], rows_per_iter: usize) {
    let t = tail(iter_s);
    let p50 = median(iter_s);
    out.metric("setup_s", median(setup), "s");
    out.metric("p50_ms", p50 * 1e3, "ms");
    out.metric(
        "rows_per_s",
        (rows_per_iter * iter_s.len()) as f64 / iter_s.iter().sum::<f64>(),
        "1/s",
    );
    out.note("iter_s_p50", p50);
    out.note("iter_s_tail", t.value);
    out.note("iter_s_tail_percentile", t.percentile);
    out.note("iter_s_samples", t.samples as f64);
    out.note("setup_reps", setup.len() as f64);
}

/// `tim_le`: TIM training bound by the local energy.
pub fn tim_le(cfg: &RunCfg, shape: &TimShape, pinned: Option<Vec<f64>>) -> Outcome {
    par::with_threads(shape.threads, || tim_le_at_width(cfg, shape, pinned))
}

fn tim_le_at_width(cfg: &RunCfg, shape: &TimShape, pinned: Option<Vec<f64>>) -> Outcome {
    let mut out = Outcome::default();
    out.note("pool_width", shape.threads as f64);
    out.note_str(
        "shape",
        format!(
            "TIM n={} MADE hidden={:?} batch={} Adam lr={ADAM_LR} IncrementalAutoSampler",
            shape.n, shape.hidden, shape.batch
        ),
    );

    // Set-up, repeated: instance, model, trainer, one warm-up iteration.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_reps {
        drop(built.take());
        let t0 = Instant::now();
        let (h, wf, tcfg) = tim_instance(cfg.seed, shape);
        let manual = cfg.trace.then(|| ManualStep::new(wf.clone(), &tcfg));
        let mut trainer = Trainer::new(wf, IncrementalAutoSampler::new(), tcfg);
        let mut opt = trainer.make_optimizer();
        let first = trainer.step(&h, opt.as_mut()).energy;
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((h, tcfg, trainer, opt, manual, first));
    }
    let (h, tcfg, mut trainer, mut opt, manual, first) = built.expect("at least one set-up");
    let budget = Duration::from_secs_f64(cfg.seconds);

    let mut energies = vec![first];
    let mut iter_s = Vec::new();
    if let Some(mut m) = manual {
        // Traced: the manual loop, its warm-up untraced as in the
        // trainer's set-up, then iterations alternating with untraced
        // `Trainer::step` ones — same host conditions for the overhead
        // ratio, and the same iterations for the fidelity check.
        let rec = Recorder::new(true);
        let idle = Recorder::new(false);
        let mut manual_e = vec![m.step(&h, &tcfg, &idle, 0).0];
        let mut rows = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || manual_e.len() < 3 {
            let (e, r) = m.step(&h, &tcfg, &rec, manual_e.len() as u64);
            manual_e.push(e);
            rows.push(r as f64);
            let t = Instant::now();
            let r = trainer.step(&h, opt.as_mut());
            iter_s.push(t.elapsed().as_secs_f64());
            energies.push(r.energy);
        }
        let spans = rec.take();
        let split = split_by_iteration(&spans, "core.step");
        let fwd_rows: f64 = rows.iter().sum();
        let fwd_busy: f64 = split.busy("nn.log_psi_into").iter().sum();
        out.metric(
            "sampler.busy_s",
            split.median_busy("sampler.sample_into"),
            "s",
        );
        out.metric("sampler.share", split.share("sampler.sample_into"), "ratio");
        out.metric(
            "sampler.rows_per_s",
            (shape.batch * split.step.len()) as f64
                / split.busy("sampler.sample_into").iter().sum::<f64>(),
            "1/s",
        );
        out.metric(
            "hamiltonian.le_busy_s",
            split.median_busy("hamiltonian.local_energies_into"),
            "s",
        );
        out.metric(
            "hamiltonian.le_self_s",
            split.median_self("hamiltonian.local_energies_into"),
            "s",
        );
        out.metric(
            "hamiltonian.le_share",
            split.share("hamiltonian.local_energies_into"),
            "ratio",
        );
        out.metric("hamiltonian.neighbour_rows", median(&rows), "count");
        out.metric("nn.fwd_busy_s", split.median_busy("nn.log_psi_into"), "s");
        out.metric("nn.fwd_rows", median(&rows), "count");
        out.metric(
            "nn.fwd_gflop_per_s",
            fwd_rows * forward_flops_per_row(&m.wf) / fwd_busy / 1e9,
            "GFLOP/s",
        );
        out.metric(
            "nn.grad_busy_s",
            split.median_busy("nn.energy_gradient_into"),
            "s",
        );
        out.metric(
            "optim.update_busy_s",
            split.median_busy("optim.update"),
            "s",
        );
        out.metric("core.unattributed_s", split.median_self("core.step"), "s");
        let traced_p50 = median(&split.step);
        out.metric(
            "bench.trace_overhead",
            traced_p50 / median(&iter_s) - 1.0,
            "ratio",
        );
        out.note("traced_iter_s_p50", traced_p50);
        let want = if cfg.corrupt {
            corrupt(energies.clone())
        } else {
            energies.clone()
        };
        let fidelity = bits_equal(&manual_e, &want);
        out.gate(
            "trace_fidelity",
            fidelity,
            format!("{} traced energies vs Trainer::step", manual_e.len()),
        );
        write_spans(&cfg.span_path("tim_le"), &spans);
    } else {
        let start = Instant::now();
        while start.elapsed() < budget || iter_s.len() < 3 {
            let t = Instant::now();
            let r = trainer.step(&h, opt.as_mut());
            iter_s.push(t.elapsed().as_secs_f64());
            energies.push(r.energy);
        }
    }

    // Output gate: pinned energies, or a fresh `Trainer::run` at seeds
    // the pin table does not cover.
    let (expected, source) = match pinned {
        Some(p) => (p, "pins.json"),
        None => (reference_energies(cfg.seed, shape), "replay"),
    };
    let expected = if cfg.corrupt {
        corrupt(expected)
    } else {
        expected
    };
    match energy_gate(&energies, &expected) {
        Ok(d) => out.gate("energy_trace", true, format!("{d} ({source})")),
        Err(d) => out.gate("energy_trace", false, format!("{d} ({source})")),
    }

    out.attempted = energies.len() as u64;
    out.failed = energies.iter().filter(|e| !e.is_finite()).count() as u64;
    out.note("energy_first", energies[0]);
    out.note("energy_last", *energies.last().expect("nonempty"));
    training_e2e(&mut out, &setup, &iter_s, shape.batch);
    out
}

/// A sampler that records a span around each `sample_into` call.
#[derive(Clone)]
struct TimedSampler {
    inner: IncrementalAutoSampler,
    rec: Arc<Recorder>,
    lane: u32,
}

impl Sampler<Made> for TimedSampler {
    fn sample_into(
        &mut self,
        wf: &Made,
        batch_size: usize,
        rng: &mut StdRng,
        out: &mut SampleOutput,
    ) {
        if !self.rec.is_on() {
            return self.inner.sample_into(wf, batch_size, rng, out);
        }
        let start = self.rec.now();
        self.inner.sample_into(wf, batch_size, rng, out);
        let end = self.rec.now();
        self.rec.push(Span {
            name: "sampler.sample_into",
            start,
            end,
            parent: None,
            id: 0,
            lane: self.lane,
        });
    }
}

/// A collective that records a span and the payload bytes of each call.
struct TimedCollective {
    inner: Box<dyn Collective>,
    rec: Arc<Recorder>,
    bytes: Arc<AtomicU64>,
}

impl TimedCollective {
    fn timed<T>(
        &mut self,
        name: &'static str,
        len: usize,
        f: impl FnOnce(&mut dyn Collective) -> T,
    ) -> T {
        if !self.rec.is_on() {
            return f(self.inner.as_mut());
        }
        self.bytes.fetch_add(8 * len as u64, Ordering::Relaxed);
        let start = self.rec.now();
        let r = f(self.inner.as_mut());
        let end = self.rec.now();
        let lane = self.inner.rank() as u32;
        self.rec.push(Span {
            name,
            start,
            end,
            parent: None,
            id: 0,
            lane,
        });
        r
    }
}

impl Collective for TimedCollective {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn allreduce_mean(&mut self, v: Vector) -> Result<Vector, CollectiveError> {
        let len = v.len();
        self.timed("dist.allreduce_mean", len, |c| c.allreduce_mean(v))
    }

    fn allgather(&mut self, v: &Vector) -> Result<Vec<Vector>, CollectiveError> {
        self.timed("dist.allgather", v.len(), |c| c.allgather(v))
    }
}

/// A Hamiltonian that counts the off-diagonal rows it hands out and
/// stamps the first and last call of each local-energy pass.
struct CountingHamiltonian<H> {
    inner: H,
    rec: Arc<Recorder>,
    first: AtomicU64,
    last: AtomicU64,
    rows: AtomicU64,
}

impl<H> CountingHamiltonian<H> {
    fn new(inner: H, rec: Arc<Recorder>) -> Self {
        CountingHamiltonian {
            inner,
            rec,
            first: AtomicU64::new(u64::MAX),
            last: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        }
    }

    fn stamp(&self) {
        if self.rec.is_on() {
            self.last.store(self.rec.now(), Ordering::Relaxed);
        }
    }

    /// The interval since the last call, and the rows counted; resets.
    fn take(&self) -> Option<(u64, u64, u64)> {
        let first = self.first.swap(u64::MAX, Ordering::Relaxed);
        let last = self.last.swap(0, Ordering::Relaxed);
        let rows = self.rows.swap(0, Ordering::Relaxed);
        (first != u64::MAX).then_some((first, last.max(first), rows))
    }
}

impl<H: SparseRowHamiltonian> SparseRowHamiltonian for CountingHamiltonian<H> {
    fn num_spins(&self) -> usize {
        self.inner.num_spins()
    }

    fn diagonal(&self, x: &[u8]) -> f64 {
        self.inner.diagonal(x)
    }

    fn for_each_offdiag(&self, x: &[u8], visit: &mut dyn FnMut(usize, f64)) {
        let mut rows = 0u64;
        self.inner.for_each_offdiag(x, &mut |i, v| {
            rows += 1;
            visit(i, v)
        });
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.stamp();
    }

    fn sparsity(&self) -> usize {
        self.inner.sparsity()
    }

    fn diagonal_batch_into(&self, batch: &SpinBatch, ws: &mut Workspace, out: &mut Vector) {
        if self.rec.is_on() {
            let _ = self.first.compare_exchange(
                u64::MAX,
                self.rec.now(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        self.inner.diagonal_batch_into(batch, ws, out);
        self.stamp();
    }

    fn num_offdiag(&self, x: &[u8]) -> usize {
        self.inner.num_offdiag(x)
    }
}

/// Reserves `k` loopback listen addresses for a mesh.
fn loopback_peers(k: usize) -> std::io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..k)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect()
}

/// Forms a `k`-rank loopback mesh, one connecting thread per rank.
fn loopback_mesh(k: usize) -> Result<Vec<Mesh>, String> {
    let peers = loopback_peers(k).map_err(|e| format!("reserve ports: {e}"))?;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|r| {
                let mut mc = MeshConfig::new(r, peers.clone());
                mc.collective_timeout = Duration::from_secs(20);
                s.spawn(move || Mesh::connect(mc))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("mesh thread panicked")
                    .map_err(|e| e.to_string())
            })
            .collect()
    })
}

/// Interleaved rounds per measurement (see `maxcut_dp`).
const ROUNDS: usize = 3;

/// One rank's measured iteration.
#[derive(Clone)]
struct RankIter {
    secs: f64,
    energy: f64,
    ok: bool,
    /// Off-diagonal rows the Hamiltonian handed out (traced only).
    rows: u64,
}

/// Steps every rank on its own thread (pool width 1) until the leader
/// sees the budget spent; all ranks stop after the same iteration.  A
/// failed step is recorded and ends the phase on every rank.  While
/// `rec` is on, each rank records its `try_step` span and the
/// local-energy interval its Hamiltonian stamped, under iteration ids
/// counted from `first_id`.
fn run_ranks<S>(
    trainers: &mut [DistributedTrainer<Made, S>],
    hs: &[CountingHamiltonian<MaxCut>],
    rec: &Recorder,
    budget: Duration,
    min_iters: usize,
    first_id: u64,
) -> Vec<Vec<RankIter>>
where
    S: Sampler<Made> + Clone,
{
    let ranks = trainers.len();
    let barrier = Barrier::new(ranks);
    let stop = AtomicBool::new(false);
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = trainers
            .iter_mut()
            .zip(hs)
            .enumerate()
            .map(|(r, (tr, h))| {
                let (barrier, stop, failed) = (&barrier, &stop, &failed);
                s.spawn(move || {
                    // One CPU per rank, as separate hosts would have.
                    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                    pin_current_thread(&[r % cpus]);
                    par::with_threads(1, || {
                        let mut iters: Vec<RankIter> = Vec::new();
                        loop {
                            let id = first_id + iters.len() as u64;
                            let lane = r as u32;
                            let (t, t0) = (Instant::now(), rec.now());
                            let res = tr.try_step(h);
                            let secs = t.elapsed().as_secs_f64();
                            let mut rows = 0;
                            if rec.is_on() {
                                let t1 = rec.now();
                                rec.push(Span {
                                    name: "core.try_step",
                                    start: t0,
                                    end: t1,
                                    parent: None,
                                    id,
                                    lane,
                                });
                                if let Some((a, b, n)) = h.take() {
                                    rec.push(Span {
                                        name: "hamiltonian.local_energies",
                                        start: a,
                                        end: b,
                                        parent: None,
                                        id,
                                        lane,
                                    });
                                    rows = n;
                                }
                            }
                            match res {
                                Ok(it) => iters.push(RankIter {
                                    secs,
                                    energy: it.energy,
                                    ok: true,
                                    rows,
                                }),
                                Err(e) => {
                                    eprintln!("perfbench: rank {r}: {e}");
                                    failed.store(true, Ordering::SeqCst);
                                    iters.push(RankIter {
                                        secs,
                                        energy: f64::NAN,
                                        ok: false,
                                        rows,
                                    });
                                }
                            }
                            barrier.wait();
                            if r == 0 {
                                let done = iters.len() >= min_iters && start.elapsed() >= budget;
                                stop.store(done || failed.load(Ordering::SeqCst), Ordering::SeqCst);
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                return iters;
                            }
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// Per-iteration time of the slowest rank.
fn slowest(per_rank: &[Vec<RankIter>]) -> Vec<f64> {
    (0..per_rank[0].len())
        .map(|i| per_rank.iter().map(|r| r[i].secs).fold(0.0, f64::max))
        .collect()
}

/// Counts attempted and failed steps (collective errors, non-finite
/// energies) over every rank.
fn tally(per_rank: &[Vec<RankIter>]) -> (u64, u64) {
    let its = per_rank.iter().flatten();
    let failed = its
        .clone()
        .filter(|it| !it.ok || !it.energy.is_finite())
        .count();
    (its.count() as u64, failed as u64)
}

fn dp_config(seed: u64, shape: &DpShape) -> DistributedConfig {
    DistributedConfig {
        iterations: 0,
        minibatch_per_device: shape.per_rank,
        optimizer: OptimizerChoice::Adam { lr: ADAM_LR },
        local_energy: LocalEnergyConfig::default(),
        seed: sub_seed(seed, 3),
        cost_hidden: shape.hidden[0],
        cost_offdiag: 0,
    }
}

type DpRank = DistributedTrainer<Made, TimedSampler>;

/// `maxcut_deep_dp2`: sampling-bound data-parallel training on a
/// loopback mesh, with the one-worker baseline at the same minibatch.
pub fn maxcut_dp(cfg: &RunCfg, shape: &DpShape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("pool_width", 1.0);
    out.note("ranks", shape.ranks as f64);
    out.note_str(
        "shape",
        format!(
            "Max-Cut n={} MADE hidden={:?} {} samples/rank Adam lr={ADAM_LR} IncrementalAutoSampler, {} loopback ranks",
            shape.n, shape.hidden, shape.per_rank, shape.ranks
        ),
    );
    let rec = Arc::new(Recorder::new(false));

    // Set-up, repeated: instance, model, baseline trainer, mesh, rank
    // trainers, two warm-up iterations of each.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setup_reps {
        drop(built.take());
        let t0 = Instant::now();
        let h = MaxCut::random(shape.n, sub_seed(cfg.seed, 1));
        let wf = Made::with_hidden(shape.n, &shape.hidden, sub_seed(cfg.seed, 2));
        let dcfg = dp_config(cfg.seed, shape);
        let base_cfg = TrainerConfig {
            iterations: 0,
            batch_size: shape.per_rank,
            optimizer: dcfg.optimizer,
            local_energy: dcfg.local_energy,
            seed: dcfg.seed,
        };
        let mut base = Trainer::new(wf.clone(), IncrementalAutoSampler::new(), base_cfg);
        let mut base_opt = base.make_optimizer();
        let meshes =
            loopback_mesh(shape.ranks).map_err(|e| format!("mesh formation failed: {e}"))?;
        let bytes = Arc::new(AtomicU64::new(0));
        let mut ranks: Vec<DpRank> = meshes
            .into_iter()
            .enumerate()
            .map(|(r, m)| {
                let coll = TimedCollective {
                    inner: Box::new(m),
                    rec: rec.clone(),
                    bytes: bytes.clone(),
                };
                let sampler = TimedSampler {
                    inner: IncrementalAutoSampler::new(),
                    rec: rec.clone(),
                    lane: r as u32,
                };
                DistributedTrainer::over_mesh(Box::new(coll), wf.clone(), sampler, dcfg)
            })
            .collect();
        let hs: Vec<CountingHamiltonian<MaxCut>> = (0..shape.ranks)
            .map(|_| CountingHamiltonian::new(h.clone(), rec.clone()))
            .collect();
        par::with_threads(1, || {
            for _ in 0..2 {
                base.step(&h, base_opt.as_mut());
            }
        });
        let warm = run_ranks(&mut ranks, &hs, &rec, Duration::ZERO, 2, 0);
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((h, base, base_opt, ranks, hs, bytes, warm));
    }
    let (h, mut base, mut base_opt, mut ranks, hs, bytes, warm) =
        built.expect("at least one set-up");
    let budget = cfg.seconds;
    let (mut attempted, mut failed) = tally(&warm);

    if !cfg.trace {
        // Baseline (the same per-rank minibatch on one plain worker) and
        // the mesh in interleaved rounds, so both see the host alike.
        let mut base_s = Vec::new();
        let mut per_rank: Vec<Vec<RankIter>> = (0..shape.ranks).map(|_| Vec::new()).collect();
        for _ in 0..ROUNDS {
            par::with_threads(1, || {
                let start = Instant::now();
                while start.elapsed().as_secs_f64() < budget * 0.3 / ROUNDS as f64 {
                    let t = Instant::now();
                    let r = base.step(&h, base_opt.as_mut());
                    base_s.push(t.elapsed().as_secs_f64());
                    attempted += 1;
                    failed += u64::from(!r.energy.is_finite());
                }
            });
            let round = run_ranks(
                &mut ranks,
                &hs,
                &rec,
                Duration::from_secs_f64(budget * 0.7 / ROUNDS as f64),
                1,
                0,
            );
            for (all, r) in per_rank.iter_mut().zip(round) {
                all.extend(r);
            }
        }
        let (a, f) = tally(&per_rank);
        attempted += a;
        failed += f;
        let iter_s = slowest(&per_rank);
        let base_p50 = median(&base_s);
        out.note("baseline_iter_s_p50", base_p50);
        out.note("weak_eff", base_p50 / median(&iter_s));
        out.note(
            "energy_last",
            per_rank[0].last().map_or(f64::NAN, |i| i.energy),
        );
        training_e2e(&mut out, &setup, &iter_s, shape.per_rank * shape.ranks);
    } else {
        // Traced: rounds alternating spans on and off.
        bytes.store(0, Ordering::Relaxed);
        let mut traced: Vec<Vec<RankIter>> = (0..shape.ranks).map(|_| Vec::new()).collect();
        let mut untraced = traced.clone();
        let round = Duration::from_secs_f64(budget * 0.5 / ROUNDS as f64);
        for _ in 0..ROUNDS {
            rec.set_on(true);
            let first_id = traced[0].len() as u64;
            for (all, r) in traced
                .iter_mut()
                .zip(run_ranks(&mut ranks, &hs, &rec, round, 1, first_id))
            {
                all.extend(r);
            }
            rec.set_on(false);
            for (all, r) in untraced
                .iter_mut()
                .zip(run_ranks(&mut ranks, &hs, &rec, round, 1, 0))
            {
                all.extend(r);
            }
        }
        let calls_bytes = bytes.load(Ordering::Relaxed);
        for p in [&traced, &untraced] {
            let (a, f) = tally(p);
            attempted += a;
            failed += f;
        }
        let mut spans = rec.take();
        let steps = (traced.len() * traced[0].len()) as f64;
        for (k, v, unit) in dp_layers(&mut spans, steps, shape.per_rank) {
            out.metric(k, v, unit);
        }
        let rows: Vec<f64> = traced.iter().flatten().map(|it| it.rows as f64).collect();
        out.metric("hamiltonian.neighbour_rows", median(&rows), "count");
        // A diagonal Hamiltonian hands no rows to the `log_psi`
        // callback, so the forward pass it would time never runs.
        out.metric("nn.fwd_busy_s", 0.0, "s");
        out.metric("nn.fwd_rows", 0.0, "count");
        out.metric("nn.fwd_gflop_per_s", 0.0, "GFLOP/s");
        out.metric("dist.bytes_per_iter", calls_bytes as f64 / steps, "B");
        let t_p50 = median(&slowest(&traced));
        let u_p50 = median(&slowest(&untraced));
        out.metric("bench.trace_overhead", t_p50 / u_p50 - 1.0, "ratio");
        out.note("traced_iter_s_p50", t_p50);
        out.note("iter_s_p50", u_p50);
        write_spans(&cfg.span_path("maxcut_deep_dp2"), &spans);
        out.metric("setup_s", median(&setup), "s");
    }

    // Output gate: every rank ends with the same parameters.
    let mut params: Vec<Vec<f64>> = ranks
        .iter()
        .map(|t| t.params().as_slice().to_vec())
        .collect();
    if cfg.corrupt {
        let last = params.len() - 1;
        params[last] = corrupt(std::mem::take(&mut params[last]));
    }
    match replica_gate(&params) {
        Ok(d) => out.gate("replicas_equal", true, d),
        Err(d) => out.gate("replicas_equal", false, d),
    }
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

/// Per-layer split of the traced data-parallel steps.
///
/// Each rank's spans nest under the `try_step` span that contains them.
/// Inside `try_step` the order is: sample, local energies, allgather of
/// the energy statistics, gradient, allreduce of the gradient, update.
/// The gradient and update run inside the trainer with nothing to wrap,
/// so they are taken from the gaps: the gradient from the allgather's
/// return to the allreduce's entry, the update from the allreduce's
/// return to `try_step`'s return.
fn dp_layers(
    spans: &mut Vec<Span>,
    steps: f64,
    per_rank: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "core.try_step")
        .collect();
    let mut kids: Vec<[Option<usize>; 4]> = vec![[None; 4]; roots.len()];
    let names = [
        "sampler.sample_into",
        "hamiltonian.local_energies",
        "dist.allgather",
        "dist.allreduce_mean",
    ];
    for i in 0..spans.len() {
        let Some(k) = names.iter().position(|n| *n == spans[i].name) else {
            continue;
        };
        let s = &spans[i];
        if let Some(slot) = roots.iter().position(|&r| {
            let p = &spans[r];
            p.lane == s.lane && p.start <= s.start && s.end <= p.end
        }) {
            kids[slot][k] = Some(i);
            spans[i].parent = Some(roots[slot]);
            spans[i].id = spans[roots[slot]].id;
        }
    }
    let mut skew = std::collections::BTreeMap::<u64, Vec<u64>>::new();
    for (slot, k) in kids.iter().enumerate() {
        let root = &spans[roots[slot]];
        let (id, lane, end) = (root.id, root.lane, root.end);
        if let (Some(g), Some(a)) = (k[2], k[3]) {
            let (g_start, g_end, a_start, a_end) =
                (spans[g].start, spans[g].end, spans[a].start, spans[a].end);
            skew.entry(id).or_default().push(g_start);
            let gap = |name, start, end| Span {
                name,
                start,
                end,
                parent: Some(roots[slot]),
                id,
                lane,
            };
            spans.push(gap("nn.gradient (gap)", g_end, a_start));
            spans.push(gap("optim.update (gap)", a_end, end));
        }
    }
    let calls = spans.iter().filter(|s| s.name.starts_with("dist.")).count() as f64;
    let split = split_by_iteration(spans, "core.try_step");
    let rank_skew: Vec<f64> = skew
        .values()
        .filter(|v| v.len() > 1)
        .map(|v| {
            (v.iter().max().expect("nonempty") - v.iter().min().expect("nonempty")) as f64 * 1e-9
        })
        .collect();
    let sampled = (per_rank * split.step.len()) as f64;
    vec![
        (
            "sampler.busy_s",
            split.median_busy("sampler.sample_into"),
            "s",
        ),
        ("sampler.share", split.share("sampler.sample_into"), "ratio"),
        (
            "sampler.rows_per_s",
            sampled / split.busy("sampler.sample_into").iter().sum::<f64>(),
            "1/s",
        ),
        (
            "hamiltonian.le_busy_s",
            split.median_busy("hamiltonian.local_energies"),
            "s",
        ),
        (
            "hamiltonian.le_self_s",
            split.median_self("hamiltonian.local_energies"),
            "s",
        ),
        (
            "hamiltonian.le_share",
            split.share("hamiltonian.local_energies"),
            "ratio",
        ),
        (
            "nn.grad_busy_s",
            split.median_busy("nn.gradient (gap)"),
            "s",
        ),
        (
            "optim.update_busy_s",
            split.median_busy("optim.update (gap)"),
            "s",
        ),
        (
            "core.unattributed_s",
            split.median_self("core.try_step"),
            "s",
        ),
        (
            "dist.allreduce_busy_s",
            split.median_busy("dist.allreduce_mean"),
            "s",
        ),
        (
            "dist.allgather_busy_s",
            split.median_busy("dist.allgather"),
            "s",
        ),
        ("dist.calls_per_iter", calls / steps, "count"),
        (
            "dist.rank_skew_s",
            if rank_skew.is_empty() {
                0.0
            } else {
                median(&rank_skew)
            },
            "s",
        ),
    ]
}
