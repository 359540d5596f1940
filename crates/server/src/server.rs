//! Server configuration, lifecycle and the published-snapshot
//! concurrency discipline. The sockets themselves are driven by the
//! event loop in `event`.
//!
//! # Concurrency model
//!
//! One engine, many sessions:
//!
//! * **Reads are snapshot-isolated and lock-free against the writer.**
//!   The server keeps a *published* [`EngineSnapshot`] behind an
//!   [`RwLock`]`<`[`Arc`]`<…>>`. A `Query` briefly clones the `Arc` and
//!   evaluates against its own handle — outside every lock — so read
//!   throughput scales with sessions and a slow view refresh never
//!   stalls a read. Snapshots are O(1) copy-on-write handle clones of
//!   the universe, so publishing is cheap no matter the data size.
//! * **Writes serialize through a single writer.** One write thread owns
//!   the backend: `Execute`, `Update` and `RefreshViews` apply the
//!   mutation there (through the durability layer when the backend is a
//!   `DurableEngine`), refresh views, and publish a fresh snapshot.
//!
//! A session that sends a corrupt or oversized frame is closed with an
//! error frame; other sessions — and the engine — are unaffected. A
//! poisoned durable backend keeps answering: reads serve the last
//! published (fully acknowledged) snapshot and writes return clean
//! `E-POISONED` error frames.

use crate::protocol::{
    self, EngineStatsWire, StorageStatsWire, WireResponse, E_BUSY, E_PROTO, E_TOO_LARGE, MAGIC,
};
use crate::stats::{ServerStats, ServerStatsSnapshot};
use idl::{Backend, EngineError, EngineSnapshot, PlanCache, Value};
use idl_storage::codec;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Write deadline for the over-capacity greeting (a peer that stops
/// draining its receive buffer cannot pin the reactor).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Which serving architecture [`serve`] runs. The event loop is the
/// only one; the enum stays so configurations and reports can name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// A readiness-driven event loop (reactor + worker pool): thousands
    /// of idle sessions cost one poller, requests pipeline per session,
    /// and concurrent updates coalesce into group commits.
    Event,
}

impl std::fmt::Display for ServeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeMode::Event => "event",
        })
    }
}

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Serving architecture (always [`ServeMode::Event`]).
    pub mode: ServeMode,
    /// Concurrent-session cap; further connects get `E-BUSY`.
    pub max_sessions: usize,
    /// Per-frame payload cap in bytes, both directions.
    pub max_frame: u32,
    /// Close a session after this long without a request.
    pub idle_timeout: Duration,
    /// How long a request may wait in its session's queue before it is
    /// dispatched; one still queued past it is answered `E-TIMEOUT`
    /// without running. A dispatched request runs to completion. Zero
    /// disables the deadline.
    pub request_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for sessions to finish.
    pub drain_timeout: Duration,
    /// Whether a client `Shutdown` frame may stop the server.
    pub allow_remote_shutdown: bool,
    /// Read-worker threads executing snapshot queries
    /// (0 = one per available core, at least 2).
    pub workers: usize,
    /// Pipelined requests one session may have outstanding
    /// before the server stops reading its socket (TCP backpressure).
    pub session_queue: usize,
    /// Queued-request cap across all sessions; past it new
    /// requests are answered with in-order `E-OVERLOAD` load-shed frames.
    pub pending_queue: usize,
    /// Most updates coalesced into one group commit (one
    /// log append + one fsync acknowledging the whole batch).
    pub group_commit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            mode: ServeMode::Event,
            max_sessions: 64,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(300),
            request_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            allow_remote_shutdown: true,
            workers: 0,
            session_queue: 32,
            pending_queue: 1024,
            group_commit: 64,
        }
    }
}

/// Why the server could not start (or a handle operation failed).
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, accept).
    Io(std::io::Error),
    /// The backend could not produce its initial snapshot.
    Engine(EngineError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server I/O error: {e}"),
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

/// State shared between the reactor, the worker threads and the handle.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    /// The read snapshot sessions evaluate against; swapped (never
    /// mutated in place) by the writer after each acknowledged change.
    pub(crate) published: RwLock<Arc<EngineSnapshot>>,
    /// Summary of the engine's last materialisation, captured at publish
    /// time so `Stats` never waits on the writer.
    pub(crate) engine_stats: Mutex<EngineStatsWire>,
    /// Storage-backend telemetry of a durable backend (`None` without
    /// durability), captured at publish time like `engine_stats`.
    pub(crate) storage_stats: Mutex<Option<StorageStatsWire>>,
    /// Compiled plans shared by all snapshot reads (locked only around
    /// plan lookup, never during evaluation).
    pub(crate) plan_cache: Mutex<PlanCache>,
    pub(crate) stats: ServerStats,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    fn plan_cache_counters(&self) -> (u64, u64) {
        let cache = self.plan_cache.lock().unwrap_or_else(|p| p.into_inner());
        (cache.hits(), cache.misses())
    }

    pub(crate) fn server_stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot(self.plan_cache_counters())
    }

    /// Swaps in a fresh snapshot + engine-stats summary from the writer.
    pub(crate) fn republish(&self, backend: &mut dyn Backend) -> Result<(), EngineError> {
        let snap = backend.snapshot()?;
        *self.engine_stats.lock().unwrap_or_else(|p| p.into_inner()) =
            EngineStatsWire::from(backend.stats());
        *self.storage_stats.lock().unwrap_or_else(|p| p.into_inner()) = storage_stats_wire(backend);
        *self.published.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(snap);
        Ok(())
    }

    pub(crate) fn storage_stats(&self) -> Option<StorageStatsWire> {
        self.storage_stats.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    pub(crate) fn published(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.published.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Starts a drain; the reactor notices on its next poll tick.
    pub(crate) fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Snapshots a durable backend's storage telemetry for the `Stats`
/// frame (`None` without durability).
pub(crate) fn storage_stats_wire(backend: &dyn Backend) -> Option<StorageStatsWire> {
    let stats = backend.durability_stats()?;
    let spec = backend.storage_spec().unwrap_or_default();
    Some(StorageStatsWire::from_stats(spec.to_string(), &stats))
}

/// A running server. Dropping the handle initiates a drain; call
/// [`ServerHandle::shutdown`] for a synchronous drain with final stats.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time global counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.server_stats()
    }

    /// Whether a drain has begun (locally or via a remote `Shutdown`).
    pub fn is_draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Stops accepting connections, lets in-flight sessions finish
    /// (bounded by `drain_timeout`), and returns the final counters.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.drain_and_join();
        self.shared.server_stats()
    }

    /// Blocks until a drain is initiated elsewhere (a remote `Shutdown`
    /// frame), then finishes it. Used by `idl serve`.
    pub fn wait(mut self) -> ServerStatsSnapshot {
        while !self.is_draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.drain_and_join();
        self.shared.server_stats()
    }

    /// The reactor closes every session before it exits, so once the
    /// threads are joined no session is left.
    fn drain_and_join(&mut self) {
        self.shared.begin_drain();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Starts serving `backend` on `cfg.addr`. The write thread takes
/// ownership of the backend.
///
/// Takes the initial snapshot (materialising views) before accepting
/// connections, so the first read never waits on the writer.
pub fn serve(
    mut backend: Box<dyn Backend + Send>,
    cfg: ServerConfig,
) -> Result<ServerHandle, ServerError> {
    let initial = backend.snapshot()?;
    let engine_stats = EngineStatsWire::from(backend.stats());
    let storage_stats = storage_stats_wire(backend.as_mut());
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cfg,
        published: RwLock::new(Arc::new(initial)),
        engine_stats: Mutex::new(engine_stats),
        storage_stats: Mutex::new(storage_stats),
        plan_cache: Mutex::new(PlanCache::new()),
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
    });
    let threads = crate::event::spawn(listener, Arc::clone(&shared), backend)?;
    Ok(ServerHandle { shared, threads, local_addr })
}

/// Over-capacity connection: complete the handshake, explain, hang up.
pub(crate) fn reject_busy(mut stream: TcpStream, shared: &Shared) {
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    if stream.write_all(MAGIC).is_err() {
        return;
    }
    let resp = WireResponse::server_error(
        E_BUSY,
        format!("session limit ({}) reached", shared.cfg.max_sessions),
    );
    let _ = protocol::send(&mut stream, &resp, shared.cfg.max_frame);
}

/// The v2 greeting frame: which universe codecs this server speaks.
pub(crate) fn hello() -> WireResponse {
    WireResponse::Hello { codecs: vec!["json".into(), "binary".into()] }
}

/// An answered request on its way to the session's write site.
///
/// `DumpUniverse` does not serialize at dispatch time: the reply carries
/// the snapshot's universe as an O(1) copy-on-write handle, and the
/// write site encodes it in the codec *that session* negotiated.
// One short-lived Reply per answered request; boxing the response to
// even out the variant sizes would buy nothing but an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Reply {
    /// Any ordinary response, serialized as one JSON frame.
    Wire(WireResponse),
    /// A `DumpUniverse` answer awaiting per-session encoding.
    Universe(Value),
}

/// Encodes a universe reply for one session's negotiated codec,
/// returning the ready frame payload or the error frame to degrade to.
///
/// Binary (v2) sessions get a [`protocol::BINARY_UNIVERSE_MARKER`] byte
/// followed by the `idl_storage::codec` value blob; JSON sessions get
/// the classic [`WireResponse::Universe`] frame. An encoding that
/// exceeds the frame cap degrades to `E-TOO-LARGE` — binary sessions
/// retry the compact codec before degrading, and the JSON-side error
/// notes when the binary codec would have fit.
// The Err arm is the error frame itself, written to the socket right
// where it is returned — not a propagated error worth boxing.
#[allow(clippy::result_large_err)]
pub(crate) fn encode_universe(
    value: &Value,
    binary: bool,
    max_frame: u32,
) -> Result<Vec<u8>, WireResponse> {
    if binary {
        let blob = codec::encode_value(value);
        let mut payload = Vec::with_capacity(1 + blob.len());
        payload.push(protocol::BINARY_UNIVERSE_MARKER);
        payload.extend_from_slice(&blob);
        if payload.len() as u64 > max_frame as u64 {
            return Err(WireResponse::server_error(
                E_TOO_LARGE,
                format!(
                    "universe of {} bytes exceeds the {max_frame}-byte cap \
                     even with the binary codec",
                    payload.len()
                ),
            ));
        }
        return Ok(payload);
    }
    let json = match serde_json::to_string(value) {
        Ok(j) => j,
        Err(e) => {
            return Err(WireResponse::server_error(
                E_PROTO,
                format!("unserializable universe: {e}"),
            ))
        }
    };
    let resp = WireResponse::Universe { json };
    let text = match serde_json::to_string(&resp) {
        Ok(t) => t,
        Err(e) => {
            return Err(WireResponse::server_error(
                E_PROTO,
                format!("unserializable universe: {e}"),
            ))
        }
    };
    if text.len() as u64 > max_frame as u64 {
        let binary_len = 1 + codec::encode_value(value).len();
        let hint = if binary_len as u64 <= max_frame as u64 {
            format!("; the binary codec needs only {binary_len} bytes — reconnect with a v2 client")
        } else {
            String::new()
        };
        return Err(WireResponse::server_error(
            E_TOO_LARGE,
            format!("response of {} bytes exceeds the {max_frame}-byte cap{hint}", text.len()),
        ));
    }
    Ok(text.into_bytes())
}
