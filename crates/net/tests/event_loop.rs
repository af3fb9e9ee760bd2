//! End-to-end tests for the readiness event loop with toy handlers:
//! echo (immediate replies), a worker-thread handler (deferred
//! completions posted out of order), and drain semantics (queued
//! replies — including partial writes — must flush before close).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use vqmc_net::{
    Completions, EventLoop, EventLoopConfig, FrameHandler, FrameOutcome, Ticket,
};

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(4 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn read_reply(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("reply payload");
    payload
}

/// Frames deferred to the completion worker, with their tickets.
type Deferred = Arc<Mutex<Vec<(Ticket, Vec<u8>)>>>;

/// Echoes every frame back, optionally via a worker thread that delays
/// and reorders completions.
struct TestHandler {
    stop: Arc<AtomicBool>,
    accepts: Arc<AtomicUsize>,
    closes: Arc<AtomicUsize>,
    /// `Some` → defer every frame to this worker-feeding queue.
    defer: Option<Deferred>,
}

impl FrameHandler for TestHandler {
    fn on_frame(&mut self, ticket: Ticket, payload: Vec<u8>) -> FrameOutcome {
        if payload == b"quit" {
            self.stop.store(true, Ordering::SeqCst);
            return FrameOutcome::Reply(b"bye".to_vec());
        }
        match &self.defer {
            Some(q) => {
                q.lock().unwrap().push((ticket, payload));
                FrameOutcome::Pending
            }
            None => FrameOutcome::Reply(payload),
        }
    }

    fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn on_accept(&mut self) {
        self.accepts.fetch_add(1, Ordering::SeqCst);
    }

    fn on_close(&mut self) {
        self.closes.fetch_add(1, Ordering::SeqCst);
    }
}

struct Fixture {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accepts: Arc<AtomicUsize>,
    closes: Arc<AtomicUsize>,
    completions: Arc<Completions>,
    deferred: Option<Deferred>,
    loop_thread: thread::JoinHandle<std::io::Result<()>>,
}

fn start(defer: bool, config: EventLoopConfig) -> Fixture {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let ev = EventLoop::new(Some(listener), config).expect("event loop");
    let completions = ev.completions();
    let stop = Arc::new(AtomicBool::new(false));
    let accepts = Arc::new(AtomicUsize::new(0));
    let closes = Arc::new(AtomicUsize::new(0));
    let deferred = defer.then(|| Arc::new(Mutex::new(Vec::new())));
    let mut handler = TestHandler {
        stop: Arc::clone(&stop),
        accepts: Arc::clone(&accepts),
        closes: Arc::clone(&closes),
        defer: deferred.clone(),
    };
    let loop_thread = thread::spawn(move || {
        let r = ev.run(&mut handler);
        drop(handler);
        r
    });
    Fixture {
        addr,
        stop,
        accepts,
        closes,
        completions,
        deferred,
        loop_thread,
    }
}

#[test]
fn echo_round_trips_across_many_connections() {
    let fx = start(false, EventLoopConfig::default());
    let mut streams: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(fx.addr).expect("connect"))
        .collect();
    for (i, s) in streams.iter_mut().enumerate() {
        let msg = format!("conn-{i}");
        s.write_all(&frame(msg.as_bytes())).expect("send");
        assert_eq!(read_reply(s), msg.as_bytes());
    }
    // Pipelined frames on one connection come back in order.
    let s = &mut streams[0];
    let mut burst = Vec::new();
    for i in 0..32 {
        burst.extend_from_slice(&frame(format!("p{i}").as_bytes()));
    }
    s.write_all(&burst).expect("pipelined send");
    for i in 0..32 {
        assert_eq!(read_reply(s), format!("p{i}").as_bytes());
    }
    fx.stop.store(true, Ordering::SeqCst);
    drop(streams);
    fx.loop_thread.join().expect("join").expect("loop ok");
    assert_eq!(fx.accepts.load(Ordering::SeqCst), 8);
    assert_eq!(fx.closes.load(Ordering::SeqCst), 8);
}

#[test]
fn deferred_completions_reorder_back_to_request_order() {
    let fx = start(true, EventLoopConfig::default());
    let queue = fx.deferred.clone().expect("defer queue");
    let completions = Arc::clone(&fx.completions);

    // Worker that completes frames in REVERSE arrival order once a
    // batch of 8 has accumulated — the loop must still reply in
    // request order.
    let worker = thread::spawn(move || {
        let mut served = 0usize;
        while served < 8 {
            let batch: Vec<(Ticket, Vec<u8>)> = {
                let mut q = queue.lock().unwrap();
                if q.len() < 8 {
                    drop(q);
                    thread::sleep(Duration::from_millis(1));
                    continue;
                }
                q.drain(..).collect()
            };
            for (ticket, payload) in batch.into_iter().rev() {
                completions.post(ticket, payload);
                served += 1;
            }
        }
    });

    let mut s = TcpStream::connect(fx.addr).expect("connect");
    let mut burst = Vec::new();
    for i in 0..8 {
        burst.extend_from_slice(&frame(format!("req-{i}").as_bytes()));
    }
    s.write_all(&burst).expect("send");
    for i in 0..8 {
        assert_eq!(read_reply(&mut s), format!("req-{i}").as_bytes());
    }
    worker.join().expect("worker");
    fx.stop.store(true, Ordering::SeqCst);
    drop(s);
    fx.loop_thread.join().expect("join").expect("loop ok");
}

#[test]
fn drain_flushes_inflight_replies_before_closing() {
    let fx = start(true, EventLoopConfig::default());
    let queue = fx.deferred.clone().expect("defer queue");
    let completions = Arc::clone(&fx.completions);

    let mut s = TcpStream::connect(fx.addr).expect("connect");
    // A large reply (1 MiB) that cannot flush in one nonblocking write
    // against default socket buffers, followed by the drain trigger.
    s.write_all(&frame(b"big")).expect("send");
    // Wait until the frame reached the handler queue.
    let (ticket, _) = loop {
        if let Some(item) = queue.lock().unwrap().pop() {
            break item;
        }
        thread::sleep(Duration::from_millis(1));
    };
    let big = vec![0xabu8; 1 << 20];
    completions.post(ticket, big.clone());
    // Trigger drain immediately — while the 1 MiB reply is (at best)
    // partially written.  The drain phase must finish the write.
    fx.stop.store(true, Ordering::SeqCst);
    let reply = read_reply(&mut s);
    assert_eq!(reply.len(), big.len());
    assert!(reply == big, "drained reply must be byte-identical");
    fx.loop_thread.join().expect("join").expect("loop ok");
    assert_eq!(fx.closes.load(Ordering::SeqCst), 1);
}

#[test]
fn reply_close_flushes_then_disconnects() {
    // A handler that replies-and-closes on a specific payload.
    struct CloseHandler {
        stop: Arc<AtomicBool>,
    }
    impl FrameHandler for CloseHandler {
        fn on_frame(&mut self, _t: Ticket, payload: Vec<u8>) -> FrameOutcome {
            if payload == b"done" {
                FrameOutcome::ReplyClose(b"farewell".to_vec())
            } else {
                FrameOutcome::Reply(payload)
            }
        }
        fn draining(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let ev = EventLoop::new(Some(listener), EventLoopConfig::default()).expect("loop");
    let stop = Arc::new(AtomicBool::new(false));
    let mut handler = CloseHandler { stop: Arc::clone(&stop) };
    let jh = thread::spawn(move || ev.run(&mut handler));

    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&frame(b"hello")).expect("send");
    s.write_all(&frame(b"done")).expect("send");
    assert_eq!(read_reply(&mut s), b"hello");
    assert_eq!(read_reply(&mut s), b"farewell");
    // Server closes: next read yields EOF.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());

    stop.store(true, Ordering::SeqCst);
    jh.join().expect("join").expect("loop ok");
}

#[test]
fn non_reading_pipeliner_stalls_on_outbound_backpressure() {
    // Regression for two review findings: replayed stale readiness
    // events (the loop must clear the event buffer each iteration) and
    // missing outbound flow control.  A client that pipelines requests
    // without reading replies must eventually stall against TCP flow
    // control — the loop stops reading once the connection's unflushed
    // reply bytes pass `max_out_bytes` — rather than the server
    // consuming every request and queueing amplified replies forever.
    const REPLY_LEN: usize = 64 * 1024;

    // Pin kernel socket buffers small (tcp_rmem autotunes to tens of
    // MB on this box, which would absorb the whole request budget and
    // mask the stall).  Accepted sockets inherit the listener's
    // SO_RCVBUF.
    fn shrink_buf(fd: std::os::fd::RawFd, optname: i32) {
        const SOL_SOCKET: i32 = 1;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32)
                -> i32;
        }
        let val: i32 = 64 * 1024;
        let r = unsafe {
            setsockopt(fd, SOL_SOCKET, optname, (&val as *const i32).cast(), 4)
        };
        assert_eq!(r, 0, "setsockopt failed");
    }
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    struct AmpHandler {
        stop: Arc<AtomicBool>,
    }
    impl FrameHandler for AmpHandler {
        fn on_frame(&mut self, _t: Ticket, payload: Vec<u8>) -> FrameOutcome {
            FrameOutcome::Reply(vec![payload[0]; REPLY_LEN])
        }
        fn draining(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    shrink_buf(listener.as_raw_fd(), SO_RCVBUF);
    let addr = listener.local_addr().expect("addr");
    let config = EventLoopConfig {
        max_out_bytes: 256 * 1024,
        ..EventLoopConfig::default()
    };
    let ev = EventLoop::new(Some(listener), config).expect("loop");
    let stop = Arc::new(AtomicBool::new(false));
    let mut handler = AmpHandler { stop: Arc::clone(&stop) };
    let jh = thread::spawn(move || ev.run(&mut handler));

    let mut s = TcpStream::connect(addr).expect("connect");
    shrink_buf(s.as_raw_fd(), SO_SNDBUF);
    s.set_nonblocking(true).expect("nonblocking");
    let req = frame(&[0x5au8; 4096]);
    // Far more request bytes than the pinned socket buffers hold: an
    // unthrottled server would consume the lot.
    let budget = 2000usize;
    let mut sent = 0usize;
    let mut pos = 0usize;
    let mut stall_start: Option<std::time::Instant> = None;
    let mut stalled = false;
    while sent < budget {
        match s.write(&req[pos..]) {
            Ok(0) => panic!("zero-byte write"),
            Ok(n) => {
                stall_start = None;
                pos += n;
                if pos == req.len() {
                    pos = 0;
                    sent += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let t0 = *stall_start.get_or_insert_with(std::time::Instant::now);
                if t0.elapsed() > Duration::from_secs(2) {
                    stalled = true;
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => panic!("send: {e}"),
        }
    }
    assert!(
        stalled,
        "server consumed {sent} frames from a non-reading client without stalling it"
    );

    // Backpressure must stall, not corrupt: drain the replies, finish
    // the partial frame, half-close, and check every fully-sent
    // request produced exactly one intact reply.
    let reader = {
        let mut rd = s.try_clone().expect("clone");
        thread::spawn(move || {
            // NB: blocking mode is shared with the writer via the
            // duplicated fd — the writer switches modes below too.
            rd.set_nonblocking(false).expect("blocking reader");
            let mut count = 0usize;
            loop {
                let mut len = [0u8; 4];
                match rd.read_exact(&mut len) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    Err(e) => panic!("reply length: {e}"),
                }
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                rd.read_exact(&mut payload).expect("reply payload");
                assert_eq!(payload.len(), REPLY_LEN, "truncated reply");
                assert!(payload.iter().all(|&b| b == 0x5a), "corrupted reply");
                count += 1;
            }
            count
        })
    };
    s.set_nonblocking(false).expect("blocking");
    if pos > 0 {
        s.write_all(&req[pos..]).expect("finish partial frame");
        sent += 1;
    }
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let replies = reader.join().expect("reader");
    assert_eq!(replies, sent, "every fully-sent request gets exactly one reply");

    stop.store(true, Ordering::SeqCst);
    jh.join().expect("join").expect("loop ok");
}

#[test]
fn oversized_frame_poisons_only_that_connection() {
    let fx = start(
        false,
        EventLoopConfig {
            max_payload: 1024,
            ..EventLoopConfig::default()
        },
    );

    let mut bad = TcpStream::connect(fx.addr).expect("connect");
    let mut good = TcpStream::connect(fx.addr).expect("connect");
    bad.write_all(&(4096u32).to_le_bytes()).expect("bad prefix");
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).expect("poisoned conn closed");
    assert!(rest.is_empty());

    good.write_all(&frame(b"still alive")).expect("send");
    assert_eq!(read_reply(&mut good), b"still alive");

    fx.stop.store(true, Ordering::SeqCst);
    drop(good);
    fx.loop_thread.join().expect("join").expect("loop ok");
}
