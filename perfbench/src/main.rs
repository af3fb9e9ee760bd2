//! `vqmc-perfbench` — the repository benchmark.
//!
//! Runs one workload, checks its outputs, and prints a provenance
//! record followed, as the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  Untraced runs
//! report the end-to-end metrics, traced runs the per-layer split.
//! Normally started through `run.py`, which builds the program first.
//!
//! ```text
//! vqmc-perfbench --workload tim_le|maxcut_deep_dp2|serve_mix --seed N
//!                --seconds S --trace 0|1 --cli PATH --mkckpt PATH
//!                --work-dir DIR [--pins FILE] [--rev R] [--rustc V]
//! vqmc-perfbench --self-test ...      tiny shapes: metrics and gates
//! vqmc-perfbench --pin-seeds A..B     print tim_le pins for pins.json
//! ```

mod serve;
mod train;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use util::{peak_rss_mib, Json, Outcome};

/// End-to-end metrics (untraced runs), reported by every workload.
/// Tail percentiles are in the record, not here: on a small shared host
/// their run-to-run spread is wider than any bound worth gating on.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("rows_per_s", "1/s"),
];

/// Per-layer metrics (traced runs).  A layer a workload does not
/// exercise reads 0 and is listed under `not_exercised` in the record.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampler.busy_s", "s"),
    ("sampler.share", "ratio"),
    ("sampler.rows_per_s", "1/s"),
    ("hamiltonian.le_busy_s", "s"),
    ("hamiltonian.le_self_s", "s"),
    ("hamiltonian.le_share", "ratio"),
    ("hamiltonian.neighbour_rows", "count"),
    ("nn.fwd_busy_s", "s"),
    ("nn.fwd_rows", "count"),
    ("nn.fwd_gflop_per_s", "GFLOP/s"),
    ("nn.grad_busy_s", "s"),
    ("optim.update_busy_s", "s"),
    ("core.unattributed_s", "s"),
    ("dist.allreduce_busy_s", "s"),
    ("dist.allgather_busy_s", "s"),
    ("dist.calls_per_iter", "count"),
    ("dist.bytes_per_iter", "B"),
    ("dist.rank_skew_s", "s"),
    ("serve.server_mean_ms_sample", "ms"),
    ("serve.server_mean_ms_logpsi", "ms"),
    ("serve.server_mean_ms_localenergy", "ms"),
    ("serve.batch_rows_mean", "count"),
    ("serve.shed", "count"),
    ("serve.refused", "count"),
    ("engine.sample_ms", "ms"),
    ("engine.logpsi_ms", "ms"),
    ("engine.localenergy_ms", "ms"),
    ("net.overhead_ms_mean", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["tim_le", "maxcut_deep_dp2", "serve_mix"];

/// Settings shared by every workload run.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Workload seed: instance, model init and payloads derive from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer split) instead of the end-to-end one.
    pub trace: bool,
    /// How many times set-up runs (the median is reported).
    pub setup_reps: usize,
    /// Feed every output gate a wrong expected value (self-test).
    pub corrupt: bool,
    /// The `vqmc-cli` binary (serving).
    pub cli: PathBuf,
    /// The `vqmc-mkckpt` binary (serving).
    pub mkckpt: PathBuf,
    /// Scratch directory for checkpoints.
    pub work_dir: PathBuf,
    /// Self-test shapes.
    pub tiny: bool,
}

impl RunCfg {
    /// Where a traced run of `workload` writes its spans.
    pub fn span_path(&self, workload: &str) -> PathBuf {
        self.work_dir
            .join("spans")
            .join(format!("{workload}-seed{}.jsonl", self.seed))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> BTreeMap<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            fail(&format!("expected a --flag, found {:?}", args[i]));
        };
        if name == "self-test" {
            flags.insert(name.to_string(), "1".to_string());
            i += 1;
            continue;
        }
        let Some(v) = args.get(i + 1) else {
            fail(&format!("--{name} needs a value"))
        };
        flags.insert(name.to_string(), v.clone());
        i += 2;
    }
    flags
}

/// Reads the `tim_le` energies pinned for `seed`, if the table has it.
/// Each line of the table reads `"<seed>": ["<hex bits>", ...],`.
fn pinned_energies(pins: &str, seed: u64) -> Option<Vec<f64>> {
    let key = format!("\"{seed}\":");
    let line = pins.lines().map(str::trim).find(|l| l.starts_with(&key))?;
    let list = line[key.len()..].trim().trim_end_matches(',');
    let list = list.strip_prefix('[')?.strip_suffix(']')?;
    list.split(',')
        .map(|t| {
            u64::from_str_radix(t.trim().trim_matches('"'), 16)
                .ok()
                .map(f64::from_bits)
        })
        .collect()
}

fn run(workload: &str, cfg: &RunCfg, pins: &str) -> Result<Outcome, String> {
    match workload {
        "tim_le" => {
            let shape = if cfg.tiny {
                train::TimShape::tiny()
            } else {
                train::TimShape::full()
            };
            let pinned = if cfg.tiny {
                None
            } else {
                pinned_energies(pins, cfg.seed)
            };
            let mut out = train::tim_le(cfg, &shape, pinned);
            out.metric("peak_rss_mb", peak_rss_mib(None), "MiB");
            Ok(out)
        }
        "maxcut_deep_dp2" => {
            let shape = if cfg.tiny {
                train::DpShape::tiny()
            } else {
                train::DpShape::full()
            };
            let mut out = train::maxcut_dp(cfg, &shape)?;
            out.metric("peak_rss_mb", peak_rss_mib(None), "MiB");
            Ok(out)
        }
        "serve_mix" => {
            let shape = if cfg.tiny {
                serve::ServeShape::tiny()
            } else {
                serve::ServeShape::full()
            };
            serve::serve_mix(cfg, &shape)
        }
        other => fail(&format!(
            "unknown workload {other:?} (one of {WORKLOADS:?})"
        )),
    }
}

/// Keeps the metrics of the requested kind (filling layers the
/// workload does not exercise with 0) and moves the rest to the record.
fn finish(out: &mut Outcome, trace: bool) {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut all = std::mem::take(&mut out.metrics);
    let mut absent = Vec::new();
    for &(name, unit) in wanted {
        match all.remove(name) {
            Some((v, u)) => {
                assert_eq!(u, unit, "metric {name} reported in {u}, declared in {unit}");
                out.metrics.insert(name.to_string(), (v, unit));
            }
            None => {
                absent.push(name);
                out.metrics.insert(name.to_string(), (0.0, unit));
            }
        }
    }
    if !absent.is_empty() {
        out.note_str("not_exercised", absent.join(","));
    }
    for (name, (v, _)) in all {
        out.note(&name, v);
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: BTreeMap<String, Json> = out
        .metrics
        .iter()
        .map(|(k, &(v, unit))| {
            let m = BTreeMap::from([
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]);
            (k.clone(), Json::Obj(m))
        })
        .collect();
    let correct = out.gate_failures.is_empty() && out.metrics.values().all(|(v, _)| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        Json::Obj(metrics).render()
    )
}

fn provenance(
    flags: &BTreeMap<String, String>,
    workload: &str,
    cfg: &RunCfg,
) -> BTreeMap<String, Json> {
    let s = |v: &str| Json::Str(v.to_string());
    BTreeMap::from([
        ("workload".to_string(), s(workload)),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        (
            "git_rev".to_string(),
            s(flags.get("rev").map_or("unknown", String::as_str)),
        ),
        (
            "rustc".to_string(),
            s(flags.get("rustc").map_or("unknown", String::as_str)),
        ),
        (
            "nproc".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "simd_arm".to_string(),
            s(&format!("{:?}", vqmc_tensor::simd::backend())),
        ),
    ])
}

fn cfg_from(flags: &BTreeMap<String, String>) -> RunCfg {
    let num = |k: &str| -> f64 {
        flags
            .get(k)
            .map(|v| {
                v.parse::<f64>()
                    .unwrap_or_else(|_| fail(&format!("--{k} wants a number")))
            })
            .unwrap_or_else(|| fail(&format!("--{k} is required")))
    };
    let path = |k: &str| {
        PathBuf::from(
            flags
                .get(k)
                .unwrap_or_else(|| fail(&format!("--{k} is required"))),
        )
    };
    let work_dir = path("work-dir");
    RunCfg {
        seed: num("seed") as u64,
        seconds: num("seconds"),
        trace: num("trace") != 0.0,
        setup_reps: 3,
        corrupt: false,
        cli: path("cli"),
        mkckpt: path("mkckpt"),
        work_dir,
        tiny: false,
    }
}

/// Tiny-shape runs of every workload: each emits every metric with its
/// declared unit and passes its gates, and each gate fails when fed a
/// wrong expected value.
fn self_test(base: &RunCfg) -> bool {
    let mut ok = true;
    for &w in WORKLOADS {
        for trace in [false, true] {
            for corrupt in [false, true] {
                let cfg = RunCfg {
                    trace,
                    corrupt,
                    tiny: true,
                    setup_reps: 2,
                    seconds: 3.0,
                    ..base.clone()
                };
                let label = format!("{w} trace={} wrong-expected={}", trace as u8, corrupt as u8);
                let mut out = match run(w, &cfg, "") {
                    Ok(out) => out,
                    Err(e) => {
                        ok = false;
                        println!("self-test FAIL  {label}: run failed: {e}");
                        continue;
                    }
                };
                finish(&mut out, trace);
                let gates: Vec<&String> = out
                    .record
                    .keys()
                    .filter(|k| k.starts_with("gate."))
                    .collect();
                let problem = if corrupt {
                    let failing = out.gate_failures.len();
                    (failing == 0 || failing != gates.len()).then(|| {
                        format!(
                            "{failing} of {} gates failed on wrong expected values",
                            gates.len()
                        )
                    })
                } else if !out.gate_failures.is_empty() {
                    Some(format!("gates failed: {:?}", out.gate_failures))
                } else if out.failed > 0 {
                    Some(format!(
                        "{} of {} operations failed",
                        out.failed, out.attempted
                    ))
                } else {
                    let declared = if trace { PER_LAYER } else { END_TO_END };
                    let missing: Vec<&str> = declared
                        .iter()
                        .filter(|(n, u)| out.metrics.get(*n).map(|m| m.1) != Some(*u))
                        .map(|(n, _)| *n)
                        .collect();
                    (!missing.is_empty() || out.metrics.len() != declared.len())
                        .then(|| format!("metrics missing or mislabelled: {missing:?}"))
                };
                match problem {
                    None => println!("self-test ok    {label} ({} gates)", gates.len()),
                    Some(p) => {
                        ok = false;
                        println!("self-test FAIL  {label}: {p}");
                    }
                }
            }
        }
    }
    ok
}

fn main() {
    let flags = parse_args();
    if let Some(range) = flags.get("pin-seeds") {
        let (a, b) = range
            .split_once("..")
            .unwrap_or_else(|| fail("--pin-seeds wants A..B"));
        let (a, b): (u64, u64) = (a.parse().expect("seed"), b.parse().expect("seed"));
        for seed in a..b {
            let e = train::reference_energies(seed, &train::TimShape::full());
            let hex: Vec<String> = e
                .iter()
                .map(|x| format!("\"{:016x}\"", x.to_bits()))
                .collect();
            println!("    \"{seed}\": [{}],", hex.join(", "));
        }
        return;
    }
    if flags.contains_key("self-test") {
        let mut flags = flags;
        for (k, v) in [("seed", "7"), ("seconds", "1"), ("trace", "0")] {
            flags.entry(k.to_string()).or_insert_with(|| v.to_string());
        }
        let cfg = cfg_from(&flags);
        let ok = self_test(&cfg);
        println!("self-test {}", if ok { "passed" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let workload = flags
        .get("workload")
        .cloned()
        .unwrap_or_else(|| fail("--workload is required"));
    let cfg = cfg_from(&flags);
    let pins = match flags.get("pins") {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("{p}: {e}"))),
        None => String::new(),
    };
    let mut out = run(&workload, &cfg, &pins).unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1)
    });
    finish(&mut out, cfg.trace);
    let mut record = provenance(&flags, &workload, &cfg);
    record.insert(
        "fail_frac".to_string(),
        Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    record.extend(std::mem::take(&mut out.record));
    println!(
        "{}",
        Json::Obj(BTreeMap::from([("record".to_string(), Json::Obj(record))])).render()
    );
    println!("{}", result_line(&out));
}
