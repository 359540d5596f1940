//! B16 — the event-loop server under connection-scale load.
//!
//! The driver is itself a readiness-driven multiplexer (the vendored
//! `mio` shim, the same poller the server uses): it holds *all* sessions
//! open concurrently with at most one request in flight per session, so
//! a thousand connections cost the driver one poller — no thousand
//! client threads polluting the measurement. A *wave* pushes a fixed
//! request total through however many sessions exist; sessions beyond
//! the request count stay connected but idle, which is exactly the
//! saturation axis. The event loop parks an idle session as one
//! registered fd — no thread, no timer, no syscall until bytes arrive.
//!
//! Criterion reports wave latency at the low and high ends.
//! `BENCH_B16_CURVE=1` skips criterion and emits one JSON line per
//! sessions point — throughput and p50/p99 per-request latency — the
//! saturation curve `BENCH_B16.json` records. (That file also holds rows
//! for a thread-per-session server that no longer exists.)
//!
//! Requests are `Ping` frames: B15 already prices evaluation over the
//! wire; B16 isolates what the *serving architecture* adds per request
//! when most sessions are idle.

use criterion::{criterion_group, BenchmarkId, Criterion};
use idl::Engine;
use idl_server::{protocol, serve, ServerConfig, ServerHandle};
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Requests per measured wave (spread round-robin over the sessions).
const WAVE_OPS: usize = 2048;

fn start_server() -> ServerHandle {
    let cfg = ServerConfig {
        max_sessions: 2048,
        request_timeout: Duration::ZERO,
        ..ServerConfig::default()
    };
    let mut engine = Engine::new();
    engine.add_rules(".v.all(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;").expect("seed rules");
    serve(Box::new(engine), cfg).expect("server starts")
}

/// One multiplexed client session: nonblocking socket, one request in
/// flight, a budget of requests still to issue.
struct Session {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    in_buf: Vec<u8>,
    sent_at: Option<Instant>,
    remaining: usize,
}

/// All sessions behind one poller. Connections persist across waves.
struct Driver {
    poll: Poll,
    sessions: Vec<Session>,
    ping: Vec<u8>,
}

impl Driver {
    /// Opens `n` concurrent sessions (blocking handshake each, then
    /// flipped nonblocking and registered).
    fn connect(addr: SocketAddr, n: usize) -> Driver {
        let poll = Poll::new().expect("poll");
        let mut ping = Vec::new();
        protocol::write_frame(&mut ping, b"\"Ping\"", 4096).unwrap();
        let mut sessions = Vec::with_capacity(n);
        for i in 0..n {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.write_all(protocol::MAGIC).expect("client magic");
            let mut magic = [0u8; 8];
            stream.read_exact(&mut magic).expect("server magic");
            assert_eq!(&magic, protocol::MAGIC);
            protocol::read_frame(&mut stream, 4096, &mut |_| None).expect("greeting");
            stream.set_nonblocking(true).expect("nonblocking");
            let fd = stream.as_raw_fd();
            poll.registry()
                .register(&mut SourceFd(&fd), Token(i), Interest::READABLE)
                .expect("register");
            sessions.push(Session {
                stream,
                out: Vec::new(),
                out_at: 0,
                in_buf: Vec::new(),
                sent_at: None,
                remaining: 0,
            });
        }
        Driver { poll, sessions, ping }
    }

    fn send(&mut self, idx: usize) {
        let ping = &self.ping;
        let s = &mut self.sessions[idx];
        s.out.extend_from_slice(ping);
        s.sent_at = Some(Instant::now());
        s.remaining -= 1;
        // write inline; anything the socket refuses waits for WRITABLE
        while s.out_at < s.out.len() {
            match s.stream.write(&s.out[s.out_at..]) {
                Ok(n) => s.out_at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("session {idx} write: {e}"),
            }
        }
        if s.out_at >= s.out.len() {
            s.out.clear();
            s.out_at = 0;
        } else {
            let fd = s.stream.as_raw_fd();
            self.poll
                .registry()
                .reregister(&mut SourceFd(&fd), Token(idx), Interest::READABLE | Interest::WRITABLE)
                .expect("reregister rw");
        }
    }

    /// Pushes `ops` requests through the open sessions, round-robin, one
    /// in flight per session. Returns per-request latencies.
    fn wave(&mut self, ops: usize) -> Vec<Duration> {
        let n = self.sessions.len();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            s.remaining = ops / n + usize::from(i < ops % n);
        }
        let mut latencies = Vec::with_capacity(ops);
        for i in 0..n {
            if self.sessions[i].remaining > 0 {
                self.send(i);
            }
        }
        let mut events = Events::with_capacity(1024);
        let mut chunk = [0u8; 64 * 1024];
        while latencies.len() < ops {
            self.poll.poll(&mut events, Some(Duration::from_secs(10))).expect("poll");
            assert!(!events.is_empty(), "wave stalled: no readiness within 10s");
            let fired: Vec<(usize, bool)> =
                events.iter().map(|e| (e.token().0, e.is_writable())).collect();
            for (idx, writable) in fired {
                if writable {
                    let s = &mut self.sessions[idx];
                    while s.out_at < s.out.len() {
                        match s.stream.write(&s.out[s.out_at..]) {
                            Ok(n) => s.out_at += n,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) => panic!("session {idx} write: {e}"),
                        }
                    }
                    if s.out_at >= s.out.len() {
                        s.out.clear();
                        s.out_at = 0;
                        let fd = s.stream.as_raw_fd();
                        self.poll
                            .registry()
                            .reregister(&mut SourceFd(&fd), Token(idx), Interest::READABLE)
                            .expect("reregister r");
                    }
                }
                loop {
                    let s = &mut self.sessions[idx];
                    match s.stream.read(&mut chunk) {
                        Ok(0) => panic!("session {idx}: server hung up mid-wave"),
                        Ok(got) => s.in_buf.extend_from_slice(&chunk[..got]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => panic!("session {idx} read: {e}"),
                    }
                }
                // consume complete reply frames
                loop {
                    let s = &mut self.sessions[idx];
                    if s.in_buf.len() < protocol::FRAME_HEADER {
                        break;
                    }
                    let declared = u32::from_le_bytes(s.in_buf[..4].try_into().unwrap()) as usize;
                    let total = protocol::FRAME_HEADER + declared;
                    if s.in_buf.len() < total {
                        break;
                    }
                    s.in_buf.drain(..total);
                    let sent = s.sent_at.take().expect("reply without a request");
                    latencies.push(sent.elapsed());
                    if s.remaining > 0 {
                        self.send(idx);
                    }
                }
            }
        }
        latencies
    }
}

/// (throughput req/s, p50, p99) of one wave.
fn measure(driver: &mut Driver, ops: usize) -> (f64, Duration, Duration) {
    let t0 = Instant::now();
    let mut lat = driver.wave(ops);
    let elapsed = t0.elapsed();
    lat.sort_unstable();
    let pick = |p: f64| lat[((lat.len() - 1) as f64 * p).floor() as usize];
    (ops as f64 / elapsed.as_secs_f64(), pick(0.50), pick(0.99))
}

fn bench_eventloop(c: &mut Criterion) {
    let mut group = c.benchmark_group("B16_eventloop");
    for sessions in [64usize, 1024] {
        let handle = start_server();
        let mut driver = Driver::connect(handle.local_addr(), sessions);
        driver.wave(WAVE_OPS); // warm every session once
        group.bench_function(BenchmarkId::new("event", format!("s{sessions}")), |b| {
            b.iter(|| black_box(driver.wave(WAVE_OPS).len()))
        });
        drop(driver);
        let stats = handle.shutdown();
        assert_eq!(stats.errors, 0, "bench load must be error-free");
    }
    group.finish();
}

/// The saturation curve behind `BENCH_B16.json`: one JSON line per
/// sessions point, throughput and per-request percentiles.
fn run_curve() {
    println!("[");
    for (i, sessions) in [8usize, 64, 256, 512, 1024].into_iter().enumerate() {
        let handle = start_server();
        let mut driver = Driver::connect(handle.local_addr(), sessions);
        driver.wave(WAVE_OPS); // warm-up wave
        let (rps, p50, p99) = measure(&mut driver, WAVE_OPS);
        if i > 0 {
            println!(",");
        }
        print!(
            "  {{\"mode\": \"event\", \"sessions\": {sessions}, \"wave_ops\": {WAVE_OPS}, \
             \"throughput_rps\": {rps:.0}, \"p50_us\": {}, \"p99_us\": {}}}",
            p50.as_micros(),
            p99.as_micros()
        );
        drop(driver);
        let stats = handle.shutdown();
        assert_eq!(stats.errors, 0, "curve load must be error-free");
    }
    println!("\n]");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500));
    targets = bench_eventloop
}

fn main() {
    if std::env::var("BENCH_B16_CURVE").is_ok() {
        run_curve();
        return;
    }
    benches();
}
