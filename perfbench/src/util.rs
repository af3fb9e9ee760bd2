//! Shared pieces: order statistics, the in-memory span recorder, the
//! result record and its JSON rendering, and process probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Which percentile it is (`100·(N−10)/N`; 100 when `N ≤ 10`).
    pub percentile: f64,
    /// Sample count `N`.
    pub samples: usize,
}

/// See [`Tail`]: the value with exactly ten samples above it in sorted
/// order, or the maximum when the sample has ten values or fewer.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A splitmix64 step: turns the workload seed into independent
/// sub-seeds (instance, model, sampling, payloads).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One traced interval: a call into a layer, made from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `sampler.sample_into`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration or request id the span belongs to.
    pub id: u64,
    /// Rank (training) or connection (serving) the span ran on.
    pub lane: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Spans kept in memory and written out when the run ends.  Shared by
/// the wrappers handed to the program, hence the mutex; `on` lets one
/// run compare traced and untraced iterations of the same objects.
pub struct Recorder {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new(on: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            on: AtomicBool::new(on),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Stores a finished span and returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("recorder mutex poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Sets the parent of an already stored span.
    pub fn set_parent(&self, child: usize, parent: usize) {
        self.spans.lock().expect("recorder mutex poisoned")[child].parent = Some(parent);
    }

    /// Takes every stored span out of the recorder.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("recorder mutex poisoned"))
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| (s.end - s.start).saturating_sub(c) as f64 * 1e-9)
        .collect()
}

/// Writes spans as JSON lines (name, start, end, parent, id, lane).  A
/// failed write is reported and otherwise ignored: the spans are a
/// by-product, the metrics are already derived.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"lane\":{}}}",
            s.name, s.start, s.end, parent, s.id, s.lane
        )
        .expect("string write");
    }
    let res = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, out));
    if let Err(e) = res {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// A JSON value for the provenance record.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("string write"),
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("string write"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("string write")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics reported to the caller: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Everything else worth keeping: the issue-level metrics that only
    /// some workloads have, sample counts, percentiles, gate details.
    pub record: BTreeMap<String, Json>,
    /// Operations attempted (iterations or requests).
    pub attempted: u64,
    /// Operations that failed (collective errors, non-finite energies,
    /// error/shed/refused replies, lost requests).
    pub failed: u64,
    /// Output gates that failed, with the reason.
    pub gate_failures: Vec<String>,
}

impl Outcome {
    /// Sets a reported metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets a record field to a number.
    pub fn note(&mut self, name: &str, value: f64) {
        self.record.insert(name.to_string(), Json::Num(value));
    }

    /// Sets a record field to a string.
    pub fn note_str(&mut self, name: &str, value: impl Into<String>) {
        self.record
            .insert(name.to_string(), Json::Str(value.into()));
    }

    /// Records an output gate's result.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.record.insert(
            format!("gate.{name}"),
            Json::Str(if ok {
                format!("pass: {detail}")
            } else {
                format!("FAIL: {detail}")
            }),
        );
        if !ok {
            self.gate_failures.push(format!("{name}: {detail}"));
        }
    }
}

extern "C" {
    /// glibc `sched_setaffinity(2)`; `mask` is a `cpu_set_t`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and threads it spawns later) to the
/// given CPUs.  Returns false when the kernel refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 names the calling thread; `mask` is a live,
    // correctly sized `cpu_set_t` the kernel only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPU seconds (user + system) a process has used, from
/// `/proc/<pid>/stat` at the usual 100 ticks per second.
pub fn cpu_secs(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    // `rest` starts at field 3 (the state letter).
    let f: Vec<&str> = rest.split_whitespace().collect();
    match (
        f.get(11).and_then(|t| t.parse::<f64>().ok()),
        f.get(12).and_then(|t| t.parse::<f64>().ok()),
    ) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}
