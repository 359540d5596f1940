//! The readiness-driven event-loop server.
//!
//! # Architecture
//!
//! One **reactor** thread owns every socket behind a level-triggered
//! poller (the vendored `mio` shim: `epoll` on Linux, `poll(2)`
//! elsewhere). Sockets are nonblocking; per-session state machines
//! assemble frames incrementally, so a peer trickling one byte at a time
//! occupies a buffer, not a thread. Parsed requests dispatch to:
//!
//! * a **read pool** of `cfg.workers` threads evaluating `Query` /
//!   `DumpUniverse` against the published snapshot (lock-free vs. the
//!   writer), and
//! * one **write thread** owning the group-commit path: it drains its
//!   queue, coalesces up to `cfg.group_commit` `Update`s — one session's
//!   pipelined run, several sessions' concurrent ones — into a single
//!   [`idl::Backend::update_group`] call — one log append, one fsync —
//!   and republishes the read snapshot, which repairs the views once for
//!   the whole group, *before* posting completions, so a session's next
//!   pipelined query observes its own writes.
//!
//! Completions return to the reactor through a mailbox + [`mio::Waker`]
//! and are written strictly in each session's request order.
//!
//! # Pipelining and ordering
//!
//! Each session keeps a FIFO of outstanding requests, and at most one
//! *dispatch* of it is in flight at a time: the head request, or — when
//! the head is an `Update` — the run of consecutive `Update`s at the
//! head, up to `cfg.group_commit` of them, which the writer executes in
//! order as one group. A request behind the dispatch waits until every
//! member has completed, so response order and read-your-writes stay
//! trivial; parallelism across requests comes from many sessions. Locally
//! answered entries (`Ping`, `Stats`, protocol errors, load-shed and
//! timeout frames) still travel through the FIFO, so replies never
//! overtake each other.
//!
//! # Admission control
//!
//! Three layers past the `E-BUSY` connect cap:
//!
//! * **per-session queue cap** (`cfg.session_queue`): a session with too
//!   many outstanding requests stops being *read* — backpressure
//!   propagates to the peer through TCP flow control, no frame is
//!   dropped;
//! * **global pending cap** (`cfg.pending_queue`): past it, new requests
//!   are answered with in-order `E-OVERLOAD` load-shed frames instead of
//!   queueing unboundedly;
//! * **queued-request deadline**: a request still waiting for dispatch
//!   after `cfg.request_timeout` is answered `E-TIMEOUT` in place (it
//!   never started executing, so the answer is safe).
//!
//! A fault on one session — mid-frame disconnect, checksum failure,
//! oversized frame, abrupt reset — closes that session only; the reactor
//! and every other session keep running (`tests/netfault_battery.rs`).

use crate::protocol::{
    self, SessionStatsWire, StatsReply, WireRequest, WireResponse, E_FRAME, E_OVERLOAD, E_PROTO,
    E_TIMEOUT, E_TOO_LARGE, MAGIC, MAGIC_V2,
};
use crate::server::{self, Reply, ServerError, Shared};
use crate::stats::ServerStats;
use idl::{Backend, EngineError};
use idl_storage::crc::crc32c;
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor poll tick: bounds idle-reap / request-timeout / drain latency.
const TICK: Duration = Duration::from_millis(25);

/// Socket read chunk size.
const READ_CHUNK: usize = 64 * 1024;

/// Poller token of the listener.
const LISTENER: Token = Token(0);
/// Poller token of the completion-mailbox waker.
const WAKER: Token = Token(1);
/// First session token; token = slab index + BASE.
const BASE: usize = 2;

/// One request dispatched to a worker.
struct Job {
    token: usize,
    generation: u64,
    req: WireRequest,
}

/// One finished request travelling back to the reactor.
struct Completion {
    token: usize,
    generation: u64,
    resp: Reply,
}

/// Worker → reactor channel: a locked vector plus a poller waker.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Mailbox {
    fn post(&self, batch: Vec<Completion>) {
        if batch.is_empty() {
            return;
        }
        self.completions.lock().unwrap_or_else(|p| p.into_inner()).extend(batch);
        let _ = self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// One entry of a session's pipelined-request FIFO.
enum Entry {
    /// Parsed, waiting for its turn (only the head, or the run of
    /// updates at the head, dispatches).
    Pending {
        req: WireRequest,
        /// Arrival time, for the queued-request deadline.
        at: Instant,
    },
    /// Dispatched to a worker; the completion will replace this.
    /// Completions arrive in request order, so each replaces the first.
    Running { started: Instant },
    /// Answered; waiting for earlier entries to flush first. The
    /// response is boxed so a queue of mostly-`Pending` entries does not
    /// pay the largest variant's footprint per slot.
    Ready {
        resp: Box<Reply>,
        /// Whether this answers a parsed request (counts toward the
        /// request counters) or a framing-level error (counts only as a
        /// rejected frame).
        is_request: bool,
    },
}

/// Per-session state machine.
struct Session {
    stream: TcpStream,
    id: u64,
    /// Slab-reuse guard: completions carry the generation they were
    /// dispatched under and are dropped when the slot was recycled.
    generation: u64,
    /// Whether the peer has presented the 8-byte protocol magic.
    handshaken: bool,
    /// Whether the peer negotiated the v2 handshake (binary universes).
    binary: bool,
    /// Unparsed inbound bytes (partial frames accumulate here).
    in_buf: Vec<u8>,
    /// Serialized outbound frames not yet accepted by the socket.
    out_buf: Vec<u8>,
    /// Bytes of `out_buf` already written.
    out_at: usize,
    /// Pipelined requests, in arrival order.
    queue: VecDeque<Entry>,
    /// Interest currently registered with the poller (`None` = not
    /// registered); diffed against the desired interest after every step
    /// so a level-triggered poller never spins on idle readiness.
    registered: Option<Interest>,
    /// No further reads: peer EOF, unrecoverable frame error, `Shutdown`
    /// acknowledged, or server drain. The session closes once the queue
    /// empties and `out_buf` flushes.
    read_closed: bool,
    last_activity: Instant,
    requests: u64,
    errors: u64,
    bytes_in: u64,
    bytes_out: u64,
}

impl Session {
    fn flushed(&self) -> bool {
        self.out_at >= self.out_buf.len()
    }
}

/// Spawns the reactor, read pool and write thread; returns their join
/// handles (reactor first, so joining in order tears down cleanly).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
    backend: Box<dyn Backend + Send>,
) -> Result<Vec<JoinHandle<()>>, ServerError> {
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    let lfd = listener.as_raw_fd();
    poll.registry().register(&mut SourceFd(&lfd), LISTENER, Interest::READABLE)?;
    let mail = Arc::new(Mailbox {
        completions: Mutex::new(Vec::new()),
        waker: Waker::new(poll.registry(), WAKER)?,
    });

    let workers = match shared.cfg.workers {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2),
        n => n,
    };
    let (read_tx, read_rx) = mpsc::channel::<Job>();
    let read_rx = Arc::new(Mutex::new(read_rx));
    let (write_tx, write_rx) = mpsc::channel::<Vec<Job>>();

    let mut threads = Vec::with_capacity(workers + 2);
    let reactor = Reactor {
        shared: Arc::clone(&shared),
        poll,
        listener,
        slots: Vec::new(),
        free: Vec::new(),
        generation: 0,
        session_seq: 0,
        pending_total: 0,
        read_tx,
        write_tx,
        mail: Arc::clone(&mail),
    };
    threads
        .push(std::thread::Builder::new().name("idl-reactor".into()).spawn(move || reactor.run())?);
    for k in 0..workers {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&read_rx);
        let mail = Arc::clone(&mail);
        threads.push(
            std::thread::Builder::new()
                .name(format!("idl-worker-{k}"))
                .spawn(move || read_worker(shared, rx, mail))?,
        );
    }
    threads.push(
        std::thread::Builder::new()
            .name("idl-writer".into())
            .spawn(move || write_worker(shared, write_rx, mail, backend))?,
    );
    Ok(threads)
}

/// Read-pool worker: snapshot queries and universe dumps, evaluated
/// against the published snapshot without waiting on the writer.
fn read_worker(shared: Arc<Shared>, rx: Arc<Mutex<mpsc::Receiver<Job>>>, mail: Arc<Mailbox>) {
    loop {
        // Holding the lock while blocked in recv() is the standard
        // shared-receiver pool: hand-off is serial, execution parallel.
        let job = {
            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
            rx.recv()
        };
        let Ok(job) = job else { break };
        let resp = match &job.req {
            WireRequest::Query { src } => {
                Reply::Wire(match shared.published().query_cached(src, Some(&shared.plan_cache)) {
                    Ok(a) => WireResponse::Answers(a),
                    Err(e) => WireResponse::from_error(&e),
                })
            }
            WireRequest::DumpUniverse => {
                // O(1) copy-on-write handle clone; the reactor encodes
                // it in the codec the session negotiated.
                let snap = shared.published();
                Reply::Universe(snap.store().universe().clone())
            }
            _ => Reply::Wire(WireResponse::server_error(E_PROTO, "not a read request")),
        };
        mail.post(vec![Completion { token: job.token, generation: job.generation, resp }]);
    }
}

/// The single write thread: owns the backend, drains its queue of
/// session dispatches, group-commits their updates, republishes, then
/// posts the whole batch's completions.
fn write_worker(
    shared: Arc<Shared>,
    rx: mpsc::Receiver<Vec<Job>>,
    mail: Arc<Mailbox>,
    mut backend: Box<dyn Backend + Send>,
) {
    let cap = shared.cfg.group_commit.max(1);
    // A session's dispatch that would have pushed the last batch past
    // the cap.
    let mut held: Option<Vec<Job>> = None;
    while let Some(first) = held.take().or_else(|| rx.recv().ok()) {
        let mut batch = first;
        while batch.len() < cap {
            match rx.try_recv() {
                Ok(jobs) if batch.len() + jobs.len() <= cap => batch.extend(jobs),
                Ok(jobs) => {
                    held = Some(jobs);
                    break;
                }
                Err(_) => break,
            }
        }
        let mut out: Vec<Completion> = Vec::with_capacity(batch.len());
        // Coalesce every Update in the batch into one group commit, in
        // batch order. Each session has at most one dispatch in the batch,
        // and a dispatch is either a run of one session's updates, in
        // request order, or a single other request, so running the
        // updates before the other members reorders only requests of
        // distinct sessions: unobservable.
        let update_idx: Vec<usize> =
            batch.iter().enumerate().filter(|(_, j)| is_update(&j.req)).map(|(i, _)| i).collect();
        if !update_idx.is_empty() {
            let srcs: Vec<String> = update_idx
                .iter()
                .map(|&i| match &batch[i].req {
                    WireRequest::Update { src } => src.clone(),
                    _ => unreachable!("filtered to updates"),
                })
                .collect();
            let results = backend.update_group(&srcs);
            ServerStats::bump(&shared.stats.group_commits, 1);
            ServerStats::bump(&shared.stats.group_commit_records, srcs.len() as u64);
            for (&i, result) in update_idx.iter().zip(results) {
                let resp = Reply::Wire(match result {
                    Ok(o) => WireResponse::Outcomes(vec![o]),
                    Err(e) => WireResponse::from_error(&e),
                });
                out.push(Completion {
                    token: batch[i].token,
                    generation: batch[i].generation,
                    resp,
                });
            }
        }
        for job in &batch {
            let resp = Reply::Wire(match &job.req {
                WireRequest::Update { .. } => continue, // group-committed above
                WireRequest::Execute { src } => match backend.execute(src) {
                    Ok(o) => WireResponse::Outcomes(o),
                    Err(e) => WireResponse::from_error(&e),
                },
                WireRequest::RefreshViews => match backend.refresh_views() {
                    Ok(s) => WireResponse::Refreshed(protocol::EngineStatsWire::from(&s)),
                    Err(e) => WireResponse::from_error(&e),
                },
                _ => WireResponse::server_error(E_PROTO, "not a write request"),
            });
            out.push(Completion { token: job.token, generation: job.generation, resp });
        }
        // Republish before any ack leaves: a session's next pipelined
        // query dispatches only after its completion, so it evaluates
        // against a snapshot containing its write (read-your-writes). A
        // failed republish (a poisoned durable backend refusing to
        // snapshot) keeps the previous snapshot published.
        let _ = shared.republish(backend.as_mut());
        mail.post(out);
    }
}

/// The reactor: owns the poller, the listener and every session.
struct Reactor {
    shared: Arc<Shared>,
    poll: Poll,
    listener: TcpListener,
    slots: Vec<Option<Session>>,
    free: Vec<usize>,
    generation: u64,
    session_seq: u64,
    /// `Pending` entries across all sessions (the global admission gauge).
    pending_total: usize,
    read_tx: mpsc::Sender<Job>,
    write_tx: mpsc::Sender<Vec<Job>>,
    mail: Arc<Mailbox>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + self.shared.cfg.drain_timeout);
                self.begin_session_drain();
            }
            if let Some(deadline) = drain_deadline {
                let open = self.slots.iter().filter(|s| s.is_some()).count();
                if open == 0 || Instant::now() >= deadline {
                    break;
                }
            }
            if self.poll.poll(&mut events, Some(TICK)).is_err() {
                // EBADF and friends would spin; bail out via drain.
                self.shared.begin_drain();
            }
            let fired: Vec<(usize, bool, bool)> =
                events.iter().map(|e| (e.token().0, e.is_readable(), e.is_writable())).collect();
            for (token, readable, writable) in fired {
                match token {
                    t if t == LISTENER.0 => self.accept_ready(),
                    t if t == WAKER.0 => {} // mailbox drained below
                    t => {
                        let idx = t - BASE;
                        if readable {
                            self.readable(idx);
                        }
                        if writable {
                            self.writable(idx);
                        }
                    }
                }
            }
            self.deliver_completions();
            self.tick();
        }
        // Force-close whatever the drain deadline left behind.
        for idx in 0..self.slots.len() {
            self.close(idx);
        }
    }

    // ---------------------------------------------------------- accept

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        drop(stream); // draining: refuse quietly
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let active = self.shared.stats.sessions_active.load(Ordering::SeqCst);
        if active as usize >= self.shared.cfg.max_sessions {
            ServerStats::bump(&self.shared.stats.sessions_rejected, 1);
            server::reject_busy(stream, &self.shared);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        self.session_seq += 1;
        self.generation += 1;
        ServerStats::bump(&self.shared.stats.sessions_opened, 1);
        self.shared.stats.sessions_active.fetch_add(1, Ordering::SeqCst);
        // The greeting waits for the client's magic (parsed in
        // `parse_frames`), so it can match the negotiated version.
        let session = Session {
            stream,
            id: self.session_seq,
            generation: self.generation,
            handshaken: false,
            binary: false,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            out_at: 0,
            queue: VecDeque::new(),
            registered: None,
            read_closed: false,
            last_activity: Instant::now(),
            requests: 0,
            errors: 0,
            bytes_in: 0,
            bytes_out: 0,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(session);
                idx
            }
            None => {
                self.slots.push(Some(session));
                self.slots.len() - 1
            }
        };
        self.progress(idx);
    }

    // ----------------------------------------------------------- I/O

    fn readable(&mut self, idx: usize) {
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else { return };
        if session.read_closed {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut saw_eof = false;
        loop {
            // Respect backpressure inside the read loop too: once the
            // session is at its queue cap, leave bytes in the kernel
            // buffer so TCP flow control reaches the peer.
            if session.queue.len() >= self.shared.cfg.session_queue
                && session.in_buf.len() >= protocol::FRAME_HEADER
            {
                break;
            }
            match session.stream.read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => session.in_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Abrupt reset (ECONNRESET): the fault stays local
                    // to this session.
                    self.close(idx);
                    return;
                }
            }
        }
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else { return };
        session.last_activity = Instant::now();
        if saw_eof {
            session.read_closed = true;
        }
        self.progress(idx);
    }

    fn writable(&mut self, idx: usize) {
        self.progress(idx);
    }

    /// Drives one session's state machine to quiescence: parse frames
    /// while there is queue room, dispatch/answer from the queue head,
    /// flush the out buffer, then re-diff poller interest (or close).
    fn progress(&mut self, idx: usize) {
        loop {
            let parsed = self.parse_frames(idx);
            let pumped = self.pump(idx);
            if !parsed && !pumped {
                break;
            }
        }
        self.flush(idx);
        self.finish(idx);
    }

    /// Parses as many complete frames from `in_buf` as admission allows.
    /// Returns whether anything was consumed.
    fn parse_frames(&mut self, idx: usize) -> bool {
        let max_frame = self.shared.cfg.max_frame;
        let session_cap = self.shared.cfg.session_queue;
        let pending_cap = self.shared.cfg.pending_queue;
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return false;
        };
        let mut at = 0usize;
        let mut progressed = false;
        let mut new_pending = 0usize;
        loop {
            let buf = &session.in_buf[at..];
            if !session.handshaken {
                if buf.len() < MAGIC.len() {
                    break;
                }
                let head = &buf[..MAGIC.len()];
                if head != MAGIC && head != MAGIC_V2 {
                    // Not a protocol peer: hang up silently.
                    session.read_closed = true;
                    session.queue.clear();
                    session.out_buf.clear();
                    session.out_at = 0;
                    at = session.in_buf.len();
                    progressed = true;
                    break;
                }
                session.binary = head == MAGIC_V2;
                // Greeting: echo the negotiated magic plus one frame —
                // Pong for v1 peers (byte-identical to pre-codec
                // releases), Hello advertising codecs for v2 peers.
                // Greeting bytes are not counted.
                let (echo, greeting): (&[u8], WireResponse) = if session.binary {
                    (MAGIC_V2, server::hello())
                } else {
                    (MAGIC, WireResponse::Pong)
                };
                session.out_buf.extend_from_slice(echo);
                if let Ok(json) = serde_json::to_string(&greeting) {
                    push_frame(&mut session.out_buf, json.as_bytes());
                }
                at += MAGIC.len();
                session.handshaken = true;
                progressed = true;
                continue;
            }
            if session.queue.len() >= session_cap {
                break; // backpressure: stop consuming, reads pause
            }
            if buf.len() < protocol::FRAME_HEADER {
                break;
            }
            let declared = u32::from_le_bytes(buf[..4].try_into().unwrap());
            let want = u32::from_le_bytes(buf[4..8].try_into().unwrap());
            if declared > max_frame {
                ServerStats::bump(&self.shared.stats.frames_rejected, 1);
                session.queue.push_back(Entry::Ready {
                    resp: Box::new(Reply::Wire(WireResponse::server_error(
                        E_TOO_LARGE,
                        format!("frame of {declared} bytes exceeds the {max_frame}-byte cap"),
                    ))),
                    is_request: false,
                });
                // The oversized payload was never read; resync is
                // impossible — answer, then close.
                session.read_closed = true;
                at = session.in_buf.len();
                progressed = true;
                break;
            }
            let total = protocol::FRAME_HEADER + declared as usize;
            if buf.len() < total {
                break; // partial frame: wait for more bytes
            }
            let payload = &buf[protocol::FRAME_HEADER..total];
            session.bytes_in += total as u64;
            ServerStats::bump(&self.shared.stats.bytes_in, total as u64);
            let got = crc32c(payload);
            if got != want {
                ServerStats::bump(&self.shared.stats.frames_rejected, 1);
                session.queue.push_back(Entry::Ready {
                    resp: Box::new(Reply::Wire(WireResponse::server_error(
                        E_FRAME,
                        format!(
                            "frame checksum mismatch (header {want:#010x}, payload {got:#010x})"
                        ),
                    ))),
                    is_request: false,
                });
                session.read_closed = true;
                at = session.in_buf.len();
                progressed = true;
                break;
            }
            let req = std::str::from_utf8(payload)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<WireRequest>(s).map_err(|e| e.to_string()));
            at += total;
            progressed = true;
            match req {
                Err(why) => {
                    // The frame boundary is intact; the session survives.
                    ServerStats::bump(&self.shared.stats.frames_rejected, 1);
                    session.queue.push_back(Entry::Ready {
                        resp: Box::new(Reply::Wire(WireResponse::server_error(
                            E_PROTO,
                            format!("unreadable request: {why}"),
                        ))),
                        is_request: false,
                    });
                }
                Ok(req) => {
                    if self.pending_total + new_pending >= pending_cap {
                        ServerStats::bump(&self.shared.stats.load_shed, 1);
                        session.queue.push_back(Entry::Ready {
                            resp: Box::new(Reply::Wire(WireResponse::server_error(
                                E_OVERLOAD,
                                format!(
                                    "server overloaded ({pending_cap} requests pending); retry"
                                ),
                            ))),
                            is_request: true,
                        });
                    } else {
                        new_pending += 1;
                        session.queue.push_back(Entry::Pending { req, at: Instant::now() });
                    }
                }
            }
        }
        if at > 0 {
            session.in_buf.drain(..at);
        }
        if new_pending > 0 {
            self.pending_total += new_pending;
            ServerStats::raise_peak(&self.shared.stats.queue_depth_peak, self.pending_total as u64);
        }
        progressed
    }

    /// Pops ready answers and dispatches the head request. Returns
    /// whether anything moved.
    fn pump(&mut self, idx: usize) -> bool {
        let mut progressed = false;
        loop {
            let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                return progressed;
            };
            match session.queue.front() {
                Some(Entry::Ready { .. }) => {
                    let Some(Entry::Ready { resp, is_request }) = session.queue.pop_front() else {
                        unreachable!("front() said Ready");
                    };
                    if is_request {
                        session.requests += 1;
                        ServerStats::bump(&self.shared.stats.requests, 1);
                    }
                    self.write_reply(idx, &resp);
                    progressed = true;
                }
                Some(Entry::Pending { req, .. }) => {
                    let token = idx + BASE;
                    let generation = session.generation;
                    match classify(req) {
                        Kind::Inline => {
                            let Some(Entry::Pending { req, at }) = session.queue.pop_front() else {
                                unreachable!("front() said Pending");
                            };
                            self.pending_total -= 1;
                            ServerStats::bump(&self.shared.stats.reads, 1);
                            let resp = self.answer_inline(idx, req);
                            let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut)
                            else {
                                return progressed;
                            };
                            session.requests += 1;
                            ServerStats::bump(&self.shared.stats.requests, 1);
                            self.shared.stats.latency.record(at.elapsed().as_micros() as u64);
                            self.write_response(idx, &resp);
                            progressed = true;
                        }
                        Kind::Read => {
                            let Some(Entry::Pending { req, .. }) = session.queue.pop_front() else {
                                unreachable!("front() said Pending");
                            };
                            self.pending_total -= 1;
                            session.queue.push_front(Entry::Running { started: Instant::now() });
                            ServerStats::bump(&self.shared.stats.reads, 1);
                            if self.read_tx.send(Job { token, generation, req }).is_err() {
                                // Workers are gone (tear-down): close.
                                self.close(idx);
                            }
                            return true;
                        }
                        Kind::Write => {
                            // The run of updates at the head goes to the
                            // writer as one dispatch, so it commits and
                            // repairs the views as one group.
                            let run = dispatch_len(&session.queue, self.shared.cfg.group_commit);
                            let started = Instant::now();
                            let mut jobs = Vec::with_capacity(run);
                            for entry in session.queue.iter_mut().take(run) {
                                let Entry::Pending { req, .. } =
                                    std::mem::replace(entry, Entry::Running { started })
                                else {
                                    unreachable!("the run is Pending entries");
                                };
                                jobs.push(Job { token, generation, req });
                            }
                            self.pending_total -= run;
                            ServerStats::bump(&self.shared.stats.writes, run as u64);
                            if self.write_tx.send(jobs).is_err() {
                                // The writer is gone (tear-down): close.
                                self.close(idx);
                            }
                            return true;
                        }
                    }
                }
                Some(Entry::Running { .. }) | None => return progressed,
            }
        }
    }

    /// Answers a request the reactor can serve without a worker.
    fn answer_inline(&mut self, idx: usize, req: WireRequest) -> WireResponse {
        match req {
            WireRequest::Ping => WireResponse::Pong,
            WireRequest::Stats => {
                let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                    return WireResponse::Pong;
                };
                WireResponse::Stats(Box::new(StatsReply {
                    server: self.shared.server_stats(),
                    session: SessionStatsWire {
                        session_id: session.id,
                        requests: session.requests,
                        errors: session.errors,
                        bytes_in: session.bytes_in,
                        bytes_out: session.bytes_out,
                    },
                    engine: self
                        .shared
                        .engine_stats
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .clone(),
                    storage: self.shared.storage_stats(),
                }))
            }
            WireRequest::Shutdown => {
                if self.shared.cfg.allow_remote_shutdown {
                    if let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) {
                        // Anything pipelined after Shutdown is dropped.
                        self.pending_total -= session
                            .queue
                            .iter()
                            .filter(|e| matches!(e, Entry::Pending { .. }))
                            .count();
                        session.queue.clear();
                        session.read_closed = true;
                    }
                    self.shared.begin_drain();
                    WireResponse::ShuttingDown
                } else {
                    WireResponse::from_error(&EngineError::Usage(
                        "remote shutdown is disabled on this server".into(),
                    ))
                }
            }
            other => {
                debug_assert!(false, "not inline: {other:?}");
                WireResponse::server_error(E_PROTO, "not an inline request")
            }
        }
    }

    /// Writes one answered request, encoding `Universe` replies in the
    /// session's negotiated codec (binary sessions retry the compact
    /// codec before any `E-TOO-LARGE` degradation).
    fn write_reply(&mut self, idx: usize, reply: &Reply) {
        match reply {
            Reply::Wire(resp) => self.write_response(idx, resp),
            Reply::Universe(value) => {
                let max_frame = self.shared.cfg.max_frame;
                let binary = self.slots.get(idx).and_then(Option::as_ref).is_some_and(|s| s.binary);
                match server::encode_universe(value, binary, max_frame) {
                    Ok(payload) => {
                        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                            return;
                        };
                        let sent = protocol::FRAME_HEADER + payload.len();
                        push_frame(&mut session.out_buf, &payload);
                        session.bytes_out += sent as u64;
                        ServerStats::bump(&self.shared.stats.bytes_out, sent as u64);
                    }
                    Err(resp) => self.write_response(idx, &resp),
                }
            }
        }
    }

    /// Serializes one response into the session's out buffer, degrading
    /// an oversized response to an `E-TOO-LARGE` error frame.
    fn write_response(&mut self, idx: usize, resp: &WireResponse) {
        let max_frame = self.shared.cfg.max_frame;
        let mut count_error = matches!(resp, WireResponse::Error { .. });
        if matches!(resp, WireResponse::Error { code, .. } if code == E_TIMEOUT) {
            ServerStats::bump(&self.shared.stats.timeouts, 1);
        }
        let json = serde_json::to_string(resp).unwrap_or_else(|e| {
            format!("{{\"Error\":{{\"code\":\"E-PROTO\",\"message\":\"unserializable: {e}\"}}}}")
        });
        let json = if json.len() as u64 > max_frame as u64 {
            count_error = true;
            let fallback = WireResponse::server_error(
                E_TOO_LARGE,
                format!("response of {} bytes exceeds the {max_frame}-byte cap", json.len()),
            );
            serde_json::to_string(&fallback).unwrap_or_default()
        } else {
            json
        };
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else { return };
        if count_error {
            session.errors += 1;
            ServerStats::bump(&self.shared.stats.errors, 1);
        }
        let sent = protocol::FRAME_HEADER + json.len();
        push_frame(&mut session.out_buf, json.as_bytes());
        session.bytes_out += sent as u64;
        ServerStats::bump(&self.shared.stats.bytes_out, sent as u64);
    }

    /// Writes as much buffered output as the socket accepts.
    fn flush(&mut self, idx: usize) {
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else { return };
        while session.out_at < session.out_buf.len() {
            match session.stream.write(&session.out_buf[session.out_at..]) {
                Ok(0) => break,
                Ok(n) => session.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        if session.flushed() {
            session.out_buf.clear();
            session.out_at = 0;
        } else if session.out_at > READ_CHUNK {
            session.out_buf.drain(..session.out_at);
            session.out_at = 0;
        }
    }

    /// Closes a finished session or re-diffs its poller interest.
    fn finish(&mut self, idx: usize) {
        let session_cap = self.shared.cfg.session_queue;
        let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else { return };
        if session.read_closed && session.queue.is_empty() && session.flushed() {
            self.close(idx);
            return;
        }
        let wants_read = !session.read_closed && session.queue.len() < session_cap;
        let wants_write = !session.flushed();
        let desired = match (wants_read, wants_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired != session.registered {
            let fd = session.stream.as_raw_fd();
            let token = Token(idx + BASE);
            let registry = self.poll.registry();
            let ok = match (session.registered, desired) {
                (None, Some(i)) => registry.register(&mut SourceFd(&fd), token, i).is_ok(),
                (Some(_), Some(i)) => registry.reregister(&mut SourceFd(&fd), token, i).is_ok(),
                (Some(_), None) => registry.deregister(&mut SourceFd(&fd)).is_ok(),
                (None, None) => true,
            };
            if ok {
                session.registered = desired;
            } else {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx) else { return };
        let Some(session) = slot.take() else { return };
        if session.registered.is_some() {
            let fd = session.stream.as_raw_fd();
            let _ = self.poll.registry().deregister(&mut SourceFd(&fd));
        }
        self.pending_total -=
            session.queue.iter().filter(|e| matches!(e, Entry::Pending { .. })).count();
        self.shared.stats.sessions_active.fetch_sub(1, Ordering::SeqCst);
        self.free.push(idx);
        // session drops here: the socket closes (with unread inbound
        // data this raises an RST at the peer — the abrupt-reset path)
    }

    // ----------------------------------------------------- completions

    fn deliver_completions(&mut self) {
        for done in self.mail.drain() {
            let idx = done.token - BASE;
            let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                continue; // session closed while the request ran
            };
            if session.generation != done.generation {
                continue; // slot recycled: a stale completion
            }
            let Some(Entry::Running { started }) = session.queue.front() else {
                debug_assert!(false, "completion without a running head");
                continue;
            };
            self.shared.stats.latency.record(started.elapsed().as_micros() as u64);
            session.requests += 1;
            ServerStats::bump(&self.shared.stats.requests, 1);
            session.queue.pop_front();
            session.queue.push_front(Entry::Ready { resp: Box::new(done.resp), is_request: false });
            // (the boxed reply may be a still-unencoded Universe handle;
            // write_reply encodes it when it reaches the queue head)
            session.last_activity = Instant::now();
            self.progress(idx);
        }
    }

    // ----------------------------------------------------------- ticks

    /// Idle reaping and queued-request deadlines, on the poll tick.
    fn tick(&mut self) {
        let idle_timeout = self.shared.cfg.idle_timeout;
        let request_timeout = self.shared.cfg.request_timeout;
        for idx in 0..self.slots.len() {
            let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if session.queue.is_empty()
                && session.flushed()
                && !session.read_closed
                && session.last_activity.elapsed() > idle_timeout
            {
                // Idle: close quietly.
                ServerStats::bump(&self.shared.stats.sessions_reaped, 1);
                self.close(idx);
                continue;
            }
            if !request_timeout.is_zero() {
                let mut timed_out = 0usize;
                for entry in session.queue.iter_mut() {
                    if let Entry::Pending { at, .. } = entry {
                        if at.elapsed() > request_timeout {
                            // Never dispatched, so an error answer is
                            // safe — nothing executed.
                            *entry = Entry::Ready {
                                resp: Box::new(Reply::Wire(WireResponse::server_error(
                                    E_TIMEOUT,
                                    format!("request queued for over {request_timeout:?}"),
                                ))),
                                is_request: true,
                            };
                            timed_out += 1;
                        }
                    }
                }
                if timed_out > 0 {
                    self.pending_total -= timed_out;
                    self.progress(idx);
                }
            }
        }
    }

    /// Drain: stop reading everywhere; finished sessions get a
    /// `ShuttingDown` frame once their pipeline empties.
    fn begin_session_drain(&mut self) {
        for idx in 0..self.slots.len() {
            let Some(session) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if session.read_closed {
                continue;
            }
            session.read_closed = true;
            session.queue.push_back(Entry::Ready {
                resp: Box::new(Reply::Wire(WireResponse::ShuttingDown)),
                is_request: false,
            });
            self.progress(idx);
        }
    }
}

/// Where a request executes.
enum Kind {
    /// Answered by the reactor itself (cheap, never blocks).
    Inline,
    /// Read pool: published-snapshot evaluation.
    Read,
    /// Write thread: serialized through the single writer.
    Write,
}

fn classify(req: &WireRequest) -> Kind {
    match req {
        WireRequest::Ping | WireRequest::Stats | WireRequest::Shutdown => Kind::Inline,
        WireRequest::Query { .. } | WireRequest::DumpUniverse => Kind::Read,
        WireRequest::Execute { .. } | WireRequest::Update { .. } | WireRequest::RefreshViews => {
            Kind::Write
        }
    }
}

fn is_update(req: &WireRequest) -> bool {
    matches!(req, WireRequest::Update { .. })
}

/// How many entries the write dispatch at the head of `queue` takes: the
/// run of pending updates there, at most `cap` of them, or else the head
/// request alone.
fn dispatch_len(queue: &VecDeque<Entry>, cap: usize) -> usize {
    let pending_update = |e: &&Entry| matches!(e, Entry::Pending { req, .. } if is_update(req));
    queue.iter().take(cap.max(1)).take_while(pending_update).count().max(1)
}

/// Appends one `[len][crc][payload]` frame to a byte buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
}
