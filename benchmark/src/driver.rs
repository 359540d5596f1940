//! The load generator: one thread multiplexing nonblocking sessions over
//! one poller, closed loop.
//!
//! Each session keeps a fixed number of requests in flight (its depth)
//! and sends the next request of its stream only when a reply has
//! arrived, been decoded and been checked — as a caller that waits for
//! each answer does. Latency runs from just before the request's first
//! byte is written to the arrival of the reply's last byte; decoding and
//! checking come after and are not in it (they are in the throughput,
//! because the loop waits for them).

use crate::config::{DEEP_CHECK_EVERY, REQUEST_TIMEOUT};
use crate::gen::{Expect, Request, Stream, FEED_LAG};
use crate::system::{ctx, BenchResult};
use idl::{AnswerSet, Outcome};
use idl_server::protocol::{self, WireRequest, WireResponse};
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One session of the load: which request stream it draws from (sessions
/// may share one, each taking the stream's next request in turn) and how
/// many requests it keeps in flight.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    pub stream: usize,
    pub depth: usize,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub lane: usize,
    pub class: usize,
    /// Completion time since the run started.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub ok: bool,
}

/// A query reply kept for the answer-by-answer comparison.
pub struct Sampled {
    pub text: String,
    pub expect: Expect,
    pub answers: AnswerSet,
}

/// Everything one run of the generator observed.
#[derive(Default)]
pub struct Observed {
    pub records: Vec<Record>,
    pub sampled: Vec<Sampled>,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
    pub failed: u64,
}

/// When a run stops issuing requests (in-flight ones are then drained).
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    /// After this many completed requests, summed over lanes.
    Completed(u64),
}

struct InFlight {
    req: Request,
    /// Position in its stream.
    seq: u64,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    lane: Lane,
    out: Vec<u8>,
    out_at: usize,
    inb: Vec<u8>,
    in_flight: VecDeque<InFlight>,
    want_write: bool,
}

pub struct LoadGen {
    poll: Poll,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    /// Row counts of the `Expect::Oracle` requests, by text.
    oracle_rows: HashMap<String, usize>,
    max_frame: u32,
}

impl LoadGen {
    /// Opens one session per lane (blocking v2 handshake, then
    /// nonblocking and registered with the poller).
    pub fn connect(
        addr: SocketAddr,
        streams: Vec<Stream>,
        lanes: Vec<Lane>,
        oracle_rows: HashMap<String, usize>,
    ) -> BenchResult<LoadGen> {
        let poll = Poll::new().map_err(ctx("create poller"))?;
        let max_frame = protocol::DEFAULT_MAX_FRAME;
        let mut conns = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.into_iter().enumerate() {
            let mut stream = TcpStream::connect(addr).map_err(ctx("connect"))?;
            stream.set_nodelay(true).map_err(ctx("set nodelay"))?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(ctx("set timeout"))?;
            stream.write_all(protocol::MAGIC_V2).map_err(ctx("send magic"))?;
            let mut magic = [0u8; 8];
            stream.read_exact(&mut magic).map_err(ctx("read magic"))?;
            if &magic != protocol::MAGIC_V2 {
                return Err(format!("server answered the handshake with {magic:02x?}"));
            }
            protocol::read_frame(&mut stream, max_frame, &mut |_| None)
                .map_err(ctx("read greeting"))?;
            stream.set_nonblocking(true).map_err(ctx("set nonblocking"))?;
            let fd = stream.as_raw_fd();
            poll.registry()
                .register(&mut SourceFd(&fd), Token(i), Interest::READABLE)
                .map_err(ctx("register session"))?;
            conns.push(Conn {
                stream,
                lane,
                out: Vec::new(),
                out_at: 0,
                inb: Vec::new(),
                in_flight: VecDeque::new(),
                want_write: false,
            });
        }
        Ok(LoadGen { poll, conns, streams, oracle_rows, max_frame })
    }

    /// Queues the lane's next request and writes as much as the socket
    /// takes.
    fn send_next(&mut self, idx: usize) -> BenchResult<()> {
        let max_frame = self.max_frame;
        let c = &mut self.conns[idx];
        let stream = &mut self.streams[c.lane.stream];
        let seq = stream.position();
        let req = stream.next_request();
        let wire = if req.is_update {
            WireRequest::Update { src: req.text.clone() }
        } else {
            WireRequest::Query { src: req.text.clone() }
        };
        protocol::send(&mut c.out, &wire, max_frame).map_err(ctx("encode request"))?;
        c.in_flight.push_back(InFlight { req, seq, sent: Instant::now() });
        self.flush(idx)
    }

    fn flush(&mut self, idx: usize) -> BenchResult<()> {
        let c = &mut self.conns[idx];
        while c.out_at < c.out.len() {
            match c.stream.write(&c.out[c.out_at..]) {
                Ok(n) => c.out_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("session {idx} write: {e}")),
            }
        }
        let blocked = c.out_at < c.out.len();
        if !blocked {
            c.out.clear();
            c.out_at = 0;
        }
        if blocked != c.want_write {
            c.want_write = blocked;
            let interest =
                if blocked { Interest::READABLE | Interest::WRITABLE } else { Interest::READABLE };
            let fd = c.stream.as_raw_fd();
            self.poll
                .registry()
                .reregister(&mut SourceFd(&fd), Token(idx), interest)
                .map_err(ctx("reregister session"))?;
        }
        Ok(())
    }

    /// Checks one decoded reply against what its request expects.
    fn check(&self, req: &Request, resp: &WireResponse) -> Result<(), String> {
        match (resp, req.expect) {
            (WireResponse::Error { code, message }, _) => Err(format!("{code}: {message}")),
            (WireResponse::Answers(a), Expect::Rows(n)) if a.len() == n => Ok(()),
            (WireResponse::Answers(a), Expect::RowsAtLeast(n))
                if (n..=n + FEED_LAG + 1).contains(&a.len()) =>
            {
                Ok(())
            }
            (WireResponse::Answers(a), Expect::Oracle)
                if self.oracle_rows.get(&req.text) == Some(&a.len()) =>
            {
                Ok(())
            }
            (WireResponse::Answers(a), expect) => {
                Err(format!("{} answers where {expect:?} was expected", a.len()))
            }
            (WireResponse::Outcomes(o), Expect::Mutations(n)) => match o.as_slice() {
                [Outcome::Answers { stats, .. }] if stats.total() == n => Ok(()),
                other => Err(format!("update outcome {other:?}, expected {n} mutations")),
            },
            (other, expect) => Err(format!("reply {other:?} where {expect:?} was expected")),
        }
    }

    /// Runs the closed loop until `stop`, then drains what is in flight.
    pub fn run(&mut self, stop: Stop) -> BenchResult<Observed> {
        let started = Instant::now();
        let mut seen = Observed::default();
        let mut completed = 0u64;
        let stopped = |completed: u64| match stop {
            Stop::After(d) => started.elapsed() >= d,
            Stop::Completed(n) => completed >= n,
        };
        for idx in 0..self.conns.len() {
            for _ in 0..self.conns[idx].lane.depth {
                self.send_next(idx)?;
            }
        }
        let mut events = Events::with_capacity(64);
        let mut chunk = vec![0u8; 256 * 1024];
        while self.conns.iter().any(|c| !c.in_flight.is_empty()) {
            self.poll.poll(&mut events, Some(Duration::from_secs(1))).map_err(ctx("poll"))?;
            let oldest = self.conns.iter().filter_map(|c| c.in_flight.front()).map(|f| f.sent);
            if oldest.min().is_some_and(|t| t.elapsed() > REQUEST_TIMEOUT) {
                return Err(format!("a request went unanswered for {REQUEST_TIMEOUT:?}"));
            }
            let fired: Vec<(usize, bool)> =
                events.iter().map(|e| (e.token().0, e.is_writable())).collect();
            for (idx, writable) in fired {
                if writable {
                    self.flush(idx)?;
                }
                loop {
                    let c = &mut self.conns[idx];
                    match c.stream.read(&mut chunk) {
                        Ok(0) => return Err(format!("session {idx}: server hung up")),
                        Ok(n) => c.inb.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("session {idx} read: {e}")),
                    }
                }
                let arrived = Instant::now();
                // Every complete frame in the buffer arrived by now.
                let mut at = 0;
                loop {
                    let c = &mut self.conns[idx];
                    let rest = &c.inb[at..];
                    if rest.len() < protocol::FRAME_HEADER {
                        break;
                    }
                    let declared =
                        u32::from_le_bytes(rest[..4].try_into().expect("four bytes")) as usize;
                    let total = protocol::FRAME_HEADER + declared;
                    if rest.len() < total {
                        break;
                    }
                    let payload =
                        protocol::read_frame(&mut &rest[..total], self.max_frame, &mut |_| None)
                            .map_err(ctx("reply frame"))?;
                    at += total;
                    let flight = c
                        .in_flight
                        .pop_front()
                        .ok_or_else(|| format!("session {idx}: reply without a request"))?;
                    let latency_ns = arrived.duration_since(flight.sent).as_nanos() as u64;
                    let done_ns = arrived.duration_since(started).as_nanos() as u64;
                    let resp = std::str::from_utf8(&payload)
                        .map_err(|e| e.to_string())
                        .and_then(|s| {
                            serde_json::from_str::<WireResponse>(s).map_err(|e| e.to_string())
                        })
                        .map_err(ctx("decode reply"))?;
                    let verdict = self.check(&flight.req, &resp);
                    let ok = verdict.is_ok();
                    if let Err(why) = verdict {
                        seen.failed += 1;
                        if seen.failures.len() < 8 {
                            seen.failures.push(format!("{} -> {why}", flight.req.text));
                        }
                    }
                    seen.records.push(Record {
                        lane: idx,
                        class: flight.req.class,
                        done_ns,
                        latency_ns,
                        ok,
                    });
                    if let (true, WireResponse::Answers(answers)) = (ok, resp) {
                        if flight.seq % DEEP_CHECK_EVERY == 0 {
                            seen.sampled.push(Sampled {
                                text: flight.req.text,
                                expect: flight.req.expect,
                                answers,
                            });
                        }
                    }
                    completed += 1;
                    if !stopped(completed) {
                        self.send_next(idx)?;
                    }
                }
                self.conns[idx].inb.drain(..at);
            }
        }
        Ok(seen)
    }

    /// Discards the next `n` requests of a stream (someone else sent them).
    pub fn skip(&mut self, stream: usize, n: u64) {
        for _ in 0..n {
            self.streams[stream].next_request();
        }
    }

    /// Requests drawn so far from a stream.
    pub fn issued(&self, stream: usize) -> u64 {
        self.streams[stream].position()
    }
}
