//! `serve_mix`: open-loop serving against `vqmc-cli serve`.
//!
//! One generator thread sends on a fixed schedule over two
//! connections; one reader thread per connection stamps each reply as
//! it arrives.  Latency is charged from the scheduled send time, so a
//! stall also delays every request due behind it.  A third connection
//! polls `Stats` during each phase to see whether the queue grows.
//!
//! A run is set-up, then rounds spread over the run — the low fixed
//! rate, the high fixed rate and a closed-loop saturation window — and
//! (untraced runs) a rate ladder against the p99 limit.  A fixed-rate
//! round whose queue grows or whose generator ran later than one
//! inter-arrival gap (p99) is invalid: it is run once more, and left out
//! of the pooled latencies if it is invalid again.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqmc_hamiltonian::{LocalEnergyConfig, SparseRowHamiltonian, TransverseFieldIsing};
use vqmc_nn::checkpoint::load_any;
use vqmc_serve::protocol::{decode_response, encode_request, read_frame};
use vqmc_serve::{
    Engine, ErrorCode, ReplySink, Request, Response, SampleRequest, StatsSnapshot, WorkItem,
};
use vqmc_tensor::{Precision, SpinBatch, Vector};

use crate::util::{
    cpu_secs, median, peak_rss_mib, percentile, pin_current_thread, sub_seed, Outcome,
};
use crate::RunCfg;

/// Shape and schedule of the workload.
#[derive(Clone, Debug)]
pub struct ServeShape {
    /// Spins of the served MADE.
    pub n: usize,
    /// Hidden widths of the served MADE.
    pub hidden: Vec<usize>,
    /// Rows per request.
    pub rows: usize,
    /// Low fixed rate, requests per second.
    pub low_rate: f64,
    /// High fixed rate, requests per second.
    pub high_rate: f64,
    /// Every `check_every`-th `Sample`/`LogPsi` reply is kept for the
    /// output gate.
    pub check_every: u64,
}

impl ServeShape {
    /// The measured shape.
    pub fn full() -> Self {
        ServeShape {
            n: 128,
            hidden: vec![128],
            rows: 16,
            low_rate: 300.0,
            high_rate: 1200.0,
            check_every: 16,
        }
    }

    /// The self-test shape.
    pub fn tiny() -> Self {
        ServeShape {
            n: 16,
            hidden: vec![16],
            rows: 4,
            low_rate: 200.0,
            high_rate: 400.0,
            check_every: 2,
        }
    }
}

/// Rate factor between rate-ladder steps.
const LADDER_FACTOR: f64 = 1.25;

/// p99 latency limit a ladder step must meet, ms.
const P99_LIMIT_MS: f64 = 100.0;

/// Requests in flight per load connection in the saturation phase.
const SATURATION_DEPTH: usize = 32;

/// Bisection steps of the rate ladder once it brackets the limit.
const BISECTIONS: usize = 2;

/// Measurement rounds spread over a run (see `serve_mix`).
const ROUNDS: usize = 4;

/// Latency charged to a failed or lost request: the server's request
/// deadline, so a failure always misses the limit.
const FAILED_MS: f64 = 2000.0;

/// Request mix per block of 50: one `LocalEnergy` (2%) at the block's
/// middle, around it 35 `Sample` f32 (70%) and 14 `LogPsi` f64 (28%)
/// shuffled by the workload seed.  The mix is exact over every block
/// and the expensive `LocalEnergy` requests are evenly spaced, so the
/// tail does not hinge on how a seed happens to cluster them.
const BLOCK: usize = 50;
const BLOCK_SAMPLES: usize = 35;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Sample = 0,
    LogPsi = 1,
    LocalEnergy = 2,
    Stats = 3,
}

/// A request in flight on one connection (replies come back in order).
struct Pending {
    k: u64,
    op: Op,
    sched_ns: u64,
}

/// A reply as the reader thread saw it.
struct Done {
    p: Pending,
    /// Connection the reply came in on.
    conn: usize,
    recv_ns: u64,
    /// `Ok(())` for a data reply, the error code otherwise.
    status: Result<(), Option<ErrorCode>>,
    /// Kept for the output gate and for `Stats` replies.
    kept: Option<Response>,
}

/// Generated request payloads.
struct Payloads {
    batches: Vec<SpinBatch>,
    seed: u64,
}

impl Payloads {
    fn new(seed: u64, shape: &ServeShape) -> Self {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
        let batches = (0..64)
            .map(|_| SpinBatch::from_fn(shape.rows, shape.n, |_, _| (rng.gen::<u32>() & 1) as u8))
            .collect();
        Payloads { batches, seed }
    }

    fn sample_seed(&self, k: u64) -> u64 {
        sub_seed(self.seed, 1_000_000 + k)
    }

    fn batch(&self, k: u64) -> &SpinBatch {
        &self.batches[(k % self.batches.len() as u64) as usize]
    }

    fn request(&self, op: Op, k: u64, rows: usize) -> Request {
        match op {
            Op::Sample => Request::Sample {
                count: rows as u32,
                seed: Some(self.sample_seed(k)),
                precision: Some(Precision::F32),
            },
            Op::LogPsi => Request::LogPsi {
                batch: self.batch(k).clone(),
                precision: Some(Precision::F64),
            },
            Op::LocalEnergy => Request::LocalEnergy {
                batch: self.batch(k).clone(),
                precision: Some(Precision::F64),
            },
            Op::Stats => Request::Stats,
        }
    }
}

/// The server child process.
struct ServerProc {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts the server, on `server_cpu` when given (through
    /// `taskset`), so the generator's core stays its own.
    fn start(
        cfg: &RunCfg,
        ckpt: &Path,
        inst_seed: u64,
        server_cpu: Option<usize>,
    ) -> Result<ServerProc, String> {
        let child = match server_cpu {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &cpu.to_string()]).arg(&cfg.cli);
                Self::spawn(cmd, ckpt, inst_seed)
            }
            None => Self::spawn(Command::new(&cfg.cli), ckpt, inst_seed),
        };
        let mut child = child.map_err(|e| format!("spawn {}: {e}", cfg.cli.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = channel();
        // Keeps draining the server's stdout so it never blocks on it.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(_) => Err("server did not report its address".to_string()),
        }
    }

    fn spawn(mut cmd: Command, ckpt: &Path, inst_seed: u64) -> std::io::Result<Child> {
        cmd.args(["serve", "--checkpoint"])
            .arg(ckpt)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--problem",
                "tim",
                "--instance-seed",
            ])
            .arg(inst_seed.to_string())
            .args(["--runtime", "epoll", "--workers", "1", "--event-loops", "1"])
            .args(["--max-batch", "64", "--max-wait-us", "200"])
            .env("VQMC_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
    }

    /// Graceful drain, then waits for the process (killing it after
    /// 20 s) and its stdout reader.
    fn stop(mut self) -> Result<(), String> {
        let res = vqmc_serve::Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        res
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// The load generator's connections and reader threads.
struct Session {
    origin: Instant,
    /// Two load connections, then the stats connection.
    writers: Vec<TcpStream>,
    pending: Vec<Arc<Mutex<VecDeque<Pending>>>>,
    rx: Receiver<Done>,
    readers: Vec<JoinHandle<()>>,
    next_k: u64,
    mix: StdRng,
    /// What is left of the current shuffled mix block.
    block: Vec<Op>,
    /// Spin rather than sleep between sends (see [`wait_until`]).
    spin: bool,
    /// The server process, for its CPU time.
    server_pid: Option<u32>,
}

fn reader_loop(
    mut stream: TcpStream,
    pending: Arc<Mutex<VecDeque<Pending>>>,
    tx: Sender<Done>,
    origin: Instant,
    check_every: u64,
    conn: usize,
) {
    let mut buf = Vec::new();
    while let Ok(true) = read_frame(&mut stream, &mut buf) {
        let recv_ns = origin.elapsed().as_nanos() as u64;
        let Some(p) = pending.lock().expect("pending mutex poisoned").pop_front() else {
            break;
        };
        let resp = decode_response(&buf);
        let (status, keep) = match &resp {
            Ok(Response::Error { code, .. }) => (Err(Some(*code)), false),
            Ok(_) => (
                Ok(()),
                p.op == Op::Stats || (p.op != Op::LocalEnergy && p.k % check_every == 0),
            ),
            Err(_) => (Err(None), false),
        };
        let kept = if keep { resp.ok() } else { None };
        if tx
            .send(Done {
                p,
                conn,
                recv_ns,
                status,
                kept,
            })
            .is_err()
        {
            break;
        }
    }
}

impl Session {
    fn open(addr: &str, seed: u64, check_every: u64, spin: bool) -> Result<Session, String> {
        let origin = Instant::now();
        let (tx, rx) = channel();
        let mut s = Session {
            origin,
            writers: Vec::new(),
            pending: Vec::new(),
            rx,
            readers: Vec::new(),
            next_k: 0,
            mix: StdRng::seed_from_u64(sub_seed(seed, 6)),
            block: Vec::new(),
            spin,
            server_pid: None,
        };
        for conn in 0..3 {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let pending = Arc::new(Mutex::new(VecDeque::new()));
            let read_half = stream.try_clone().map_err(|e| e.to_string())?;
            let (p, tx) = (pending.clone(), tx.clone());
            s.readers.push(std::thread::spawn(move || {
                reader_loop(read_half, p, tx, origin, check_every, conn)
            }));
            s.writers.push(stream);
            s.pending.push(pending);
        }
        Ok(s)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn send(&mut self, conn: usize, p: Pending, req: &Request) -> Result<(), String> {
        let payload = encode_request(req);
        let mut frame = Vec::with_capacity(payload.len() + 4);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.pending[conn]
            .lock()
            .expect("pending mutex poisoned")
            .push_back(p);
        self.writers[conn]
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))
    }

    fn draw_op(&mut self) -> Op {
        if self.block.is_empty() {
            let mut rest: Vec<Op> = (0..BLOCK - 1)
                .map(|i| {
                    if i < BLOCK_SAMPLES {
                        Op::Sample
                    } else {
                        Op::LogPsi
                    }
                })
                .collect();
            for i in (1..rest.len()).rev() {
                let j = (self.mix.gen::<u64>() % (i as u64 + 1)) as usize;
                rest.swap(i, j);
            }
            rest.insert(BLOCK / 2, Op::LocalEnergy);
            self.block = rest;
        }
        self.block.pop().expect("refilled above")
    }

    /// A `Stats` snapshot, waiting for it (nothing else is in flight).
    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        let p = Pending {
            k: 0,
            op: Op::Stats,
            sched_ns: self.now_ns(),
        };
        self.send(2, p, &Request::Stats)?;
        loop {
            match self.rx.recv_timeout(Duration::from_secs(20)) {
                Ok(Done {
                    kept: Some(Response::StatsReport(s)),
                    ..
                }) => return Ok(*s),
                Ok(_) => continue,
                Err(_) => return Err("no Stats reply".to_string()),
            }
        }
    }

    /// One open-loop phase at `rate` for `secs`.
    fn phase(
        &mut self,
        rate: f64,
        secs: f64,
        payloads: &Payloads,
        rows: usize,
    ) -> Result<Phase, String> {
        let before = self.stats()?;
        let cpu0 = self.server_pid.map_or(0.0, cpu_secs);
        let start_ns = self.now_ns();
        let total = (rate * secs).round().max(1.0) as u64;
        let gap_ns = 1e9 / rate;
        let t0 = self.now_ns() + 1_000_000;
        let poll_ns = 250_000_000u64;
        let mut next_poll = t0 + poll_ns;
        let mut lag_ms = Vec::with_capacity(total as usize);
        let mut polls = 0u64;
        for i in 0..total {
            let sched_ns = t0 + (i as f64 * gap_ns) as u64;
            wait_until(self.origin, sched_ns, self.spin);
            let now = self.now_ns();
            lag_ms.push(now.saturating_sub(sched_ns) as f64 * 1e-6);
            let k = self.next_k;
            self.next_k += 1;
            let op = self.draw_op();
            let req = payloads.request(op, k, rows);
            self.send((i % 2) as usize, Pending { k, op, sched_ns }, &req)?;
            if now >= next_poll {
                next_poll += poll_ns;
                polls += 1;
                self.send(
                    2,
                    Pending {
                        k: 0,
                        op: Op::Stats,
                        sched_ns: now,
                    },
                    &Request::Stats,
                )?;
            }
        }
        let end = self.now_ns();
        let mut ph = Phase {
            rate,
            sent: total,
            lag_ms,
            ..Phase::default()
        };
        let mut got = 0u64;
        let mut polls_got = 0u64;
        while got < total || polls_got < polls {
            let left = Duration::from_nanos((end + 10_000_000_000).saturating_sub(self.now_ns()));
            let d = match self.rx.recv_timeout(left) {
                Ok(d) => d,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("reader threads ended".to_string())
                }
            };
            if d.p.op == Op::Stats {
                polls_got += 1;
                if let Some(Response::StatsReport(s)) = d.kept {
                    ph.depths.push(s.queue_depth);
                }
                continue;
            }
            got += 1;
            let ms = (d.recv_ns.saturating_sub(d.p.sched_ns)) as f64 * 1e-6;
            match d.status {
                Ok(()) => {
                    ph.ok += 1;
                    ph.lat_ms.push(ms);
                    ph.lat_by_op[d.p.op as usize].push(ms);
                }
                Err(code) => {
                    ph.failed += 1;
                    ph.lat_ms.push(FAILED_MS);
                    *ph.errors.entry(format!("{code:?}")).or_insert(0) += 1;
                }
            }
            if let Some(r) = d.kept {
                ph.kept.push((d.p.op, d.p.k, r));
            }
        }
        ph.lost = total - got;
        if ph.lost > 0 {
            return Err(format!("{} requests got no reply", ph.lost));
        }
        ph.server = ServerDelta::between(&before, &self.stats()?);
        if let Some(pid) = self.server_pid {
            ph.server_cpu_s = cpu_secs(pid) - cpu0;
        }
        ph.wall_s = (self.now_ns() - start_ns) as f64 * 1e-9;
        Ok(ph)
    }

    /// Closed loop at saturation: `depth` requests in flight on each
    /// load connection, each reply answered by the next request.  The
    /// admission queue never exceeds `2·depth`, below the shedding
    /// threshold.  Returns successful replies per second over the last
    /// `secs − warm` seconds, and the requests sent and failed.
    fn saturate(
        &mut self,
        depth: usize,
        secs: f64,
        warm: f64,
        payloads: &Payloads,
        rows: usize,
    ) -> Result<(f64, u64, u64), String> {
        let (mut sent, mut failed) = (0u64, 0u64);
        let mut issue = |s: &mut Session, conn: usize| -> Result<(), String> {
            let (k, op) = (s.next_k, s.draw_op());
            s.next_k += 1;
            sent += 1;
            let sched_ns = s.now_ns();
            s.send(
                conn,
                Pending { k, op, sched_ns },
                &payloads.request(op, k, rows),
            )
        };
        for _ in 0..depth {
            for conn in 0..2 {
                issue(self, conn)?;
            }
        }
        let start = self.now_ns();
        let (warm_ns, end_ns) = (start + (warm * 1e9) as u64, start + (secs * 1e9) as u64);
        let (mut counted, mut outstanding) = (0u64, 2 * depth);
        while outstanding > 0 {
            let d = self
                .rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "saturation: no reply".to_string())?;
            if d.p.op == Op::Stats {
                continue;
            }
            outstanding -= 1;
            if d.status.is_err() {
                failed += 1;
            } else if d.recv_ns >= warm_ns && d.recv_ns < end_ns {
                counted += 1;
            }
            if d.recv_ns < end_ns {
                // Same connection as the reply: its queue keeps `depth`.
                issue(self, d.conn)?;
                outstanding += 1;
            }
        }
        Ok((counted as f64 / (secs - warm), sent, failed))
    }

    fn close(self) {
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers {
            let _ = h.join();
        }
    }
}

/// Waits until `due_ns` (since `origin`).  With a CPU of its own the
/// generator spins: a small virtual machine can take milliseconds to
/// wake an idle CPU, longer than the gap between sends, and spinning
/// keeps the CPU awake while yielding lets the reader threads in.
/// Sharing the server's CPUs, it sleeps instead.
fn wait_until(origin: Instant, due_ns: u64, spin: bool) {
    let due = origin + Duration::from_nanos(due_ns);
    if !spin {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        return;
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The `Stats` counters a phase moved (admission→reply latency of the
/// arm each op uses: `Sample` f32, the others f64).
#[derive(Clone, Copy, Debug, Default)]
struct ServerDelta {
    count: [u64; 3],
    sum_us: [u64; 3],
    batches: u64,
    accepted: u64,
    shed: u64,
    refused: u64,
}

impl ServerDelta {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        let mut d = ServerDelta {
            batches: b
                .occupancy
                .iter()
                .zip(&a.occupancy)
                .map(|(y, x)| y - x)
                .sum(),
            accepted: b.accepted - a.accepted,
            shed: b.shed - a.shed,
            refused: b.refused - a.refused,
            ..ServerDelta::default()
        };
        for op in [Op::Sample, Op::LogPsi, Op::LocalEnergy] {
            let arm = usize::from(op == Op::Sample);
            let (x, y) = (&a.latency[op as usize][arm], &b.latency[op as usize][arm]);
            d.count[op as usize] = y.count - x.count;
            d.sum_us[op as usize] = y.sum_us - x.sum_us;
        }
        d
    }

    fn add(&mut self, o: &ServerDelta) {
        for i in 0..3 {
            self.count[i] += o.count[i];
            self.sum_us[i] += o.sum_us[i];
        }
        self.batches += o.batches;
        self.accepted += o.accepted;
        self.shed += o.shed;
        self.refused += o.refused;
    }
}

/// What one phase (or several rounds of one rate, pooled) measured.
#[derive(Default)]
struct Phase {
    rate: f64,
    sent: u64,
    ok: u64,
    failed: u64,
    lost: u64,
    /// Per request, from scheduled send; failures charged [`FAILED_MS`].
    lat_ms: Vec<f64>,
    /// Successful requests only, per op.
    lat_by_op: [Vec<f64>; 3],
    lag_ms: Vec<f64>,
    depths: Vec<u32>,
    errors: std::collections::BTreeMap<String, u64>,
    kept: Vec<(Op, u64, Response)>,
    server: ServerDelta,
    /// Server CPU seconds over the phase.
    server_cpu_s: f64,
    wall_s: f64,
}

impl Phase {
    fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    fn p99(&self) -> f64 {
        percentile(&self.lat_ms, 99.0)
    }

    fn lag_p99(&self) -> f64 {
        percentile(&self.lag_ms, 99.0)
    }

    /// Pools another round at the same rate into this one.
    fn absorb(&mut self, o: Phase) {
        self.rate = o.rate;
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.lost += o.lost;
        self.lat_ms.extend(o.lat_ms);
        for (a, b) in self.lat_by_op.iter_mut().zip(o.lat_by_op) {
            a.extend(b);
        }
        self.lag_ms.extend(o.lag_ms);
        self.depths.extend(o.depths);
        for (k, v) in o.errors {
            *self.errors.entry(k).or_insert(0) += v;
        }
        self.kept.extend(o.kept);
        self.server.add(&o.server);
        self.server_cpu_s += o.server_cpu_s;
        self.wall_s += o.wall_s;
    }

    /// The queue grew across the phase's `Stats` polls: the last two
    /// polls both exceed every poll of the first half and 32 items.
    fn backlog_grows(&self) -> bool {
        let d = &self.depths;
        if d.len() < 4 {
            return false;
        }
        let first_half = d[..d.len() / 2].iter().copied().max().unwrap_or(0);
        d[d.len() - 2..].iter().all(|&x| x > first_half && x > 32)
    }

    /// Why a fixed-rate phase cannot be reported, if it cannot.
    fn invalid(&self) -> Option<String> {
        let budget_ms = 1e3 / self.rate;
        if self.lag_p99() > budget_ms {
            return Some(format!(
                "generator lag p99 {:.3} ms > inter-arrival {budget_ms:.3} ms",
                self.lag_p99()
            ));
        }
        self.backlog_grows()
            .then(|| format!("queue grew across polls: {:?}", self.depths))
    }

    fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.lost == 0 && self.p99() <= limit_ms && !self.backlog_grows()
    }

    /// Admission→reply mean for one op, ms.
    fn server_mean_ms(&self, op: Op) -> f64 {
        let i = op as usize;
        if self.server.count[i] == 0 {
            return 0.0;
        }
        self.server.sum_us[i] as f64 / self.server.count[i] as f64 * 1e-3
    }

    /// Mean requests per drained batch.
    fn items_per_batch(&self) -> f64 {
        self.server.accepted as f64 / self.server.batches.max(1) as f64
    }
}

/// Runs one round of a fixed rate, once more if it is invalid.  Returns
/// the valid round, or `Err` with the second invalid round and why.
fn fixed_round(
    s: &mut Session,
    rate: f64,
    secs: f64,
    payloads: &Payloads,
    rows: usize,
) -> Result<Result<Phase, (Phase, String)>, String> {
    let first = s.phase(rate, secs, payloads, rows)?;
    let Some(why) = first.invalid() else {
        return Ok(Ok(first));
    };
    eprintln!("perfbench: round at {rate} req/s invalid ({why}); running it again");
    let second = s.phase(rate, secs, payloads, rows)?;
    Ok(match second.invalid() {
        None => Ok(second),
        Some(why) => Err((second, why)),
    })
}

/// The `serve_mix` output gate: every kept `Sample`/`LogPsi` reply is
/// bit-identical to a solo in-process `Engine` answer.
fn reply_gate(
    engine: &mut Engine,
    payloads: &Payloads,
    kept: &[(Op, u64, Response)],
    rows: usize,
    corrupt: bool,
) -> Result<String, String> {
    let flip = |v: &Vector| -> Vec<u64> {
        let mut bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        if corrupt {
            if let Some(b) = bits.last_mut() {
                *b ^= 1;
            }
        }
        bits
    };
    let bits = |v: &Vector| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let mut checked = [0usize; 2];
    for (op, k, resp) in kept {
        let ok = match (op, resp) {
            (Op::Sample, Response::Samples { batch, log_psi }) => {
                let solo = engine.run_samples_with(
                    Precision::F32,
                    &[SampleRequest {
                        count: rows,
                        seed: payloads.sample_seed(*k),
                    }],
                );
                matches!(&solo[0], Response::Samples { batch: b, log_psi: l }
                    if b.as_bytes() == batch.as_bytes() && flip(l) == bits(log_psi))
            }
            (Op::LogPsi, Response::Values(v)) => {
                flip(&engine.run_log_psi_with(payloads.batch(*k), Precision::F64)) == bits(v)
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                "{op:?} reply to request {k} differs from the solo engine answer"
            ));
        }
        checked[(*op == Op::LogPsi) as usize] += 1;
    }
    if checked[0] == 0 || checked[1] == 0 {
        return Err(format!(
            "too few replies checked ({} Sample, {} LogPsi)",
            checked[0], checked[1]
        ));
    }
    Ok(format!(
        "{} Sample and {} LogPsi replies bit-identical to solo Engine",
        checked[0], checked[1]
    ))
}

/// Median ms of `Engine::execute` on `k` requests of one op.
fn replay(engine: &mut Engine, make: &dyn Fn(u64) -> Request, k: usize) -> f64 {
    let mut times = Vec::new();
    for rep in 0..23u64 {
        let items: Vec<WorkItem> = (0..k as u64)
            .map(|i| WorkItem {
                request: make(rep * 1000 + i),
                reply: ReplySink::new(|_| {}),
                deadline: Instant::now() + Duration::from_secs(60),
            })
            .collect();
        let t = Instant::now();
        engine.execute(items);
        if rep >= 3 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&times)
}

/// Highest rate whose step passes (p99 ≤ limit, no failures, no
/// growing queue; a failing step is run twice).  Walks from the high phase by `ladder_factor` — up
/// while steps pass, down while they fail — until the outcome flips,
/// then bisects the bracket (in log rate) [`BISECTIONS`] times.
fn ladder(
    s: &mut Session,
    shape: &ServeShape,
    high: &Phase,
    step_secs: f64,
    deadline: Instant,
    payloads: &Payloads,
    out: &mut Outcome,
) -> Result<f64, String> {
    let up = high.passes(P99_LIMIT_MS);
    // (highest passing rate, lowest failing rate) seen so far.
    let (mut lo, mut hi) = if up {
        (Some(high.rate), None)
    } else {
        (None, Some(high.rate))
    };
    let mut steps = 0;
    let (mut attempted, mut failed) = (0, 0);
    let mut step = |s: &mut Session, rate: f64, out: &mut Outcome| -> Result<bool, String> {
        steps += 1;
        // At least 1000 requests, so the p99 has ten samples beyond it.
        // A failing step runs once more and fails only if that fails
        // too: one host stall must not end the walk.
        let mut ph = s.phase(rate, step_secs.max(1000.0 / rate), payloads, shape.rows)?;
        attempted += ph.sent;
        failed += ph.failed + ph.lost;
        if !ph.passes(P99_LIMIT_MS) {
            ph = s.phase(rate, step_secs.max(1000.0 / rate), payloads, shape.rows)?;
            attempted += ph.sent;
            failed += ph.failed + ph.lost;
        }
        let pass = ph.passes(P99_LIMIT_MS);
        for (k, v) in [
            ("rate", rate),
            ("p99_ms", ph.p99()),
            ("pass", f64::from(u8::from(pass))),
            ("failed", (ph.failed + ph.lost) as f64),
            ("backlog_grows", f64::from(u8::from(ph.backlog_grows()))),
            ("lag_ms_p99", ph.lag_p99()),
        ] {
            out.note(&format!("ladder.{steps}.{k}"), v);
        }
        Ok(pass)
    };
    while lo.is_none() || hi.is_none() {
        if Instant::now() >= deadline {
            break;
        }
        let rate = match (lo, hi) {
            (Some(l), _) => l * LADDER_FACTOR,
            (_, Some(h)) => h / LADDER_FACTOR,
            _ => unreachable!("one side is always known"),
        };
        if step(s, rate, out)? {
            lo = Some(rate)
        } else {
            hi = Some(rate)
        }
    }
    for _ in 0..BISECTIONS {
        let (Some(l), Some(h)) = (lo, hi) else { break };
        if Instant::now() >= deadline {
            break;
        }
        let mid = (l * h).sqrt();
        if step(s, mid, out)? {
            lo = Some(mid)
        } else {
            hi = Some(mid)
        }
    }
    out.note("ladder.attempted", attempted as f64);
    out.note("ladder.failed", failed as f64);
    // Nothing passed inside the budget: the step below the lowest fail.
    Ok(lo.unwrap_or_else(|| hi.expect("one side is always known") / LADDER_FACTOR))
}

/// `serve_mix`: see the module docs.
pub fn serve_mix(cfg: &RunCfg, shape: &ServeShape) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("pool_width", 1.0);
    out.note_str(
        "shape",
        format!(
            "MADE n={} hidden={:?}; {} rows/request; mix 70% Sample f32, 28% LogPsi f64, 2% LocalEnergy TIM; epoll, 1 worker, 1 event loop, 2 connections",
            shape.n, shape.hidden, shape.rows
        ),
    );
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let ckpt = cfg
        .work_dir
        .join(format!("serve_mix-{}-seed{}.ckpt", shape.n, cfg.seed));
    let inst_seed = sub_seed(cfg.seed, 1);
    let payloads = Payloads::new(cfg.seed, shape);
    let hidden: Vec<String> = shape.hidden.iter().map(|h| h.to_string()).collect();
    // With two or more CPUs the server gets the last one and the
    // generator with its readers the rest, so neither queues behind the
    // other.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server_cpu =
        (cpus > 1 && pin_current_thread(&(0..cpus - 1).collect::<Vec<_>>())).then_some(cpus - 1);
    out.note_str(
        "server_cpu",
        server_cpu.map_or("shared".to_string(), |c| c.to_string()),
    );

    // Set-up, repeated: write the checkpoint, start the server, connect,
    // and warm up.
    let mut setup = Vec::new();
    let mut live = None;
    // Set-up is short here, so it is repeated more often.
    for _ in 0..cfg.setup_reps + 2 {
        if let Some((server, session)) = live.take() {
            Session::close(session);
            ServerProc::stop(server)?;
        }
        let t0 = Instant::now();
        let status = Command::new(&cfg.mkckpt)
            .args(["--n", &shape.n.to_string(), "--hidden", &hidden.join(",")])
            .args(["--seed", &sub_seed(cfg.seed, 2).to_string(), "--out"])
            .arg(&ckpt)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", cfg.mkckpt.display()))?;
        if !status.success() {
            return Err(format!("vqmc-mkckpt failed: {status}"));
        }
        let server = ServerProc::start(cfg, &ckpt, inst_seed, server_cpu)?;
        let mut session = Session::open(
            &server.addr,
            cfg.seed,
            shape.check_every,
            server_cpu.is_some(),
        )?;
        // Warm-up: 48 requests of the mix sent at once, all answered.
        session.phase(1e6, 48e-6, &payloads, shape.rows)?;
        setup.push(t0.elapsed().as_secs_f64());
        live = Some((server, session));
    }
    let (server, mut session) = live.expect("at least one set-up");

    // Rounds spread over the run: the low rate, the high rate and (in
    // untraced runs) a short saturation window, each pooled over the
    // rounds, so a slow stretch of the host lands on all three alike.
    session.server_pid = Some(server.child.id());
    let share = if cfg.trace { 1.0 } else { 0.4 };
    let round_secs = cfg.seconds * share / (2 * ROUNDS) as f64;
    let sat_secs = cfg.seconds * 0.15 / ROUNDS as f64;
    // A round still invalid after its rerun is left out of the pooled
    // figures (its requests still count as attempted and are checked);
    // a rate with no valid round fails the run.
    let (mut low, mut high, mut discarded) = (Phase::default(), Phase::default(), Phase::default());
    let (mut invalid, mut sat_rps) = (Vec::new(), Vec::new());
    let (mut sat_sent, mut sat_failed) = (0, 0);
    for _ in 0..ROUNDS {
        for (rate, pooled) in [(shape.low_rate, &mut low), (shape.high_rate, &mut high)] {
            match fixed_round(&mut session, rate, round_secs, &payloads, shape.rows)? {
                Ok(ph) => pooled.absorb(ph),
                Err((ph, why)) => {
                    invalid.push(format!("{rate} req/s: {why}"));
                    discarded.absorb(ph);
                }
            }
        }
        if !cfg.trace {
            let (rps, sent, failed) = session.saturate(
                SATURATION_DEPTH,
                sat_secs,
                sat_secs * 0.2,
                &payloads,
                shape.rows,
            )?;
            sat_rps.push(rps);
            sat_sent += sent;
            sat_failed += failed;
        }
    }
    if low.sent == 0 || high.sent == 0 {
        return Err(format!(
            "no valid round at one of the fixed rates: {invalid:?}"
        ));
    }
    out.note("invalid_rounds", invalid.len() as f64);
    if !invalid.is_empty() {
        out.note_str("invalid_rounds_why", invalid.join("; "));
    }
    out.note("server_cpu_util_low", low.server_cpu_s / low.wall_s);
    out.note("server_cpu_util_high", high.server_cpu_s / high.wall_s);
    // The ladder overloads on purpose: its requests are recorded under
    // `ladder.*`, not counted against the run.
    let attempted = low.sent + high.sent + discarded.sent + sat_sent;
    let failed = [&low, &high, &discarded]
        .iter()
        .map(|p| p.failed + p.lost)
        .sum::<u64>()
        + sat_failed;
    let mut kept = Vec::new();
    for ph in [&low, &high, &discarded] {
        kept.extend(ph.kept.iter().map(|(o, k, r)| (*o, *k, r.clone())));
        for (code, n) in &ph.errors {
            out.note(&format!("errors.{}_rps.{code}", ph.rate), *n as f64);
        }
    }
    out.note("p50_ms_low", low.p50());
    out.note("p99_ms_low", low.p99());
    for (name, ph) in [("low", &low), ("high", &high)] {
        out.note(&format!("p90_ms_{name}"), percentile(&ph.lat_ms, 90.0));
        out.note(&format!("p95_ms_{name}"), percentile(&ph.lat_ms, 95.0));
        out.note(
            &format!("server_ms_sample_{name}"),
            ph.server_mean_ms(Op::Sample),
        );
        out.note(
            &format!("server_ms_localenergy_{name}"),
            ph.server_mean_ms(Op::LocalEnergy),
        );
    }
    out.note("p50_ms_high", high.p50());
    out.note("p99_ms_high", high.p99());
    out.note("requests_low", low.sent as f64);
    out.note("requests_high", high.sent as f64);
    out.note("loadgen.lag_ms_p99_low", low.lag_p99());
    out.note("loadgen.lag_ms_p99_high", high.lag_p99());
    out.note("low_rate", shape.low_rate);
    out.note("high_rate", shape.high_rate);
    out.note("p99_limit_ms", P99_LIMIT_MS);

    // Peak resident set over set-up and the rounds; the ladder
    // overloads the server on purpose.
    out.metric("peak_rss_mb", peak_rss_mib(Some(server.child.id())), "MiB");
    if !cfg.trace {
        // Equal windows, so the mean of the rounds is the pooled rate.
        let rps = sat_rps.iter().sum::<f64>() / sat_rps.len() as f64;
        out.note("saturation_rps", rps);
        out.metric("rows_per_s", rps * shape.rows as f64, "1/s");
        out.metric("p50_ms", low.p50(), "ms");
        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds * 0.45);
        let step_secs = (cfg.seconds / 20.0).clamp(0.25, 1.5);
        let max_rps = ladder(
            &mut session,
            shape,
            &high,
            step_secs,
            deadline,
            &payloads,
            &mut out,
        )?;
        out.note("max_rps", max_rps);
    }
    out.metric("setup_s", median(&setup), "s");

    if cfg.trace {
        out.metric(
            "serve.server_mean_ms_sample",
            high.server_mean_ms(Op::Sample),
            "ms",
        );
        out.metric(
            "serve.server_mean_ms_logpsi",
            high.server_mean_ms(Op::LogPsi),
            "ms",
        );
        out.metric(
            "serve.server_mean_ms_localenergy",
            high.server_mean_ms(Op::LocalEnergy),
            "ms",
        );
        out.metric(
            "serve.batch_rows_mean",
            high.items_per_batch() * shape.rows as f64,
            "count",
        );
        out.metric(
            "serve.shed",
            (low.server.shed + high.server.shed) as f64,
            "count",
        );
        out.metric(
            "serve.refused",
            (low.server.refused + high.server.refused) as f64,
            "count",
        );
        out.metric(
            "loadgen.lag_ms_p99",
            low.lag_p99().max(high.lag_p99()),
            "ms",
        );
        // Client mean minus the server's admission→reply mean, per op,
        // weighted by the op's share of the low rate: decode, event
        // loop, flush and loopback.  Means on both sides, since the
        // server reports no per-phase median and a median minus a mean
        // goes negative under this mix's skew.
        let mut overhead = 0.0;
        for op in [Op::Sample, Op::LogPsi, Op::LocalEnergy] {
            let lat = &low.lat_by_op[op as usize];
            if !lat.is_empty() {
                let mean = lat.iter().sum::<f64>() / lat.len() as f64;
                overhead += (mean - low.server_mean_ms(op)) * lat.len() as f64 / low.ok as f64;
            }
        }
        out.metric("net.overhead_ms_mean", overhead, "ms");
        // No spans sit on the request path: a traced run differs from an
        // untraced one only after its phases end.
        out.metric("bench.trace_overhead", 0.0, "ratio");
        out.note("items_per_batch_low", low.items_per_batch());
    }
    out.note(
        "server_peak_rss_mb_after_ladder",
        peak_rss_mib(Some(server.child.id())),
    );
    Session::close(session);
    ServerProc::stop(server)?;

    // In-process engine over the same checkpoint and Hamiltonian.
    let (model, _) = load_any(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let h: Arc<dyn SparseRowHamiltonian> =
        Arc::new(TransverseFieldIsing::random(shape.n, inst_seed));
    let mut engine = Engine::new(Arc::new(model), Some(h), LocalEnergyConfig::default());
    match reply_gate(&mut engine, &payloads, &kept, shape.rows, cfg.corrupt) {
        Ok(d) => out.gate("replies_match_engine", true, d),
        Err(d) => out.gate("replies_match_engine", false, d),
    }
    if cfg.trace {
        let k = low.items_per_batch().round().max(1.0) as usize;
        for (name, op) in [
            ("engine.sample_ms", Op::Sample),
            ("engine.logpsi_ms", Op::LogPsi),
            ("engine.localenergy_ms", Op::LocalEnergy),
        ] {
            let ms = replay(&mut engine, &|i| payloads.request(op, i, shape.rows), k);
            out.metric(name, ms, "ms");
        }
        out.note("engine.replay_batch_items", k as f64);
    }
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}
