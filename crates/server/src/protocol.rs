//! The `idl-server` wire protocol: length-prefixed, CRC-32C-checksummed
//! frames carrying JSON-serialized request/response pairs.
//!
//! The framing reuses the discipline proven by the durable operation log
//! (`idl_storage::oplog`): every frame is
//!
//! ```text
//! [len: u32 LE] [crc32c(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! where the payload is the UTF-8 JSON encoding of one [`WireRequest`]
//! or [`WireResponse`] (externally tagged). A connection opens with an
//! 8-byte magic exchange so either side can reject a non-protocol peer
//! before parsing anything: the client writes [`MAGIC`] (v1, JSON-only)
//! or [`MAGIC_V2`] (codec-aware), the server echoes the negotiated magic
//! and greets with one frame — [`WireResponse::Pong`] for v1 peers
//! (byte-identical to pre-codec releases), [`WireResponse::Hello`]
//! advertising the supported codecs for v2 peers, or an [`E_BUSY`] error
//! at the session cap — so admission is decided at connect time.
//!
//! On a v2 session the reply to [`WireRequest::DumpUniverse`] is a
//! *binary* frame: one [`BINARY_UNIVERSE_MARKER`] byte followed by an
//! `idl_storage::codec` value blob. JSON text never begins with NUL, so
//! the marker disambiguates without out-of-band state; every other
//! response stays JSON.
//!
//! Errors travel as [`WireResponse::Error`] carrying the engine's stable
//! machine-readable code (`E-PARSE`, `E-POISONED`, …; see
//! [`idl::EngineError::code`]) or one of the server-level codes below
//! (`E-FRAME`, `E-TOO-LARGE`, `E-TIMEOUT`, `E-BUSY`, `E-PROTO`).

use idl::{AnswerSet, DurabilityStats, FixpointStats, Outcome};
use idl_storage::crc::crc32c;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Handshake magic written by both peers on connect ("IDL net v1").
pub const MAGIC: &[u8; 8] = b"IDLNET01";

/// Handshake magic of codec-aware clients ("IDL net v2"). A server
/// answering it echoes `MAGIC_V2` and greets with
/// [`WireResponse::Hello`]; the session's `DumpUniverse` replies then
/// carry binary payloads.
pub const MAGIC_V2: &[u8; 8] = b"IDLNET02";

/// First payload byte of a binary `DumpUniverse` reply frame. JSON
/// responses are UTF-8 text and can never begin with NUL.
pub const BINARY_UNIVERSE_MARKER: u8 = 0x00;

/// Default cap on a single frame's payload (4 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Bytes of framing overhead per frame (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Server-level error code: frame failed its CRC check.
pub const E_FRAME: &str = "E-FRAME";
/// Server-level error code: frame exceeds the negotiated size cap.
pub const E_TOO_LARGE: &str = "E-TOO-LARGE";
/// Server-level error code: a request waited in its session's queue past
/// the request deadline and was answered without running.
pub const E_TIMEOUT: &str = "E-TIMEOUT";
/// Server-level error code: session limit reached.
pub const E_BUSY: &str = "E-BUSY";
/// Server-level error code: payload was not a valid protocol message.
pub const E_PROTO: &str = "E-PROTO";
/// Server-level error code: server is draining and refuses new work.
pub const E_SHUTDOWN: &str = "E-SHUTDOWN";
/// Server-level error code: the request was load-shed at the global
/// pending-queue cap (admission control); retry later.
pub const E_OVERLOAD: &str = "E-OVERLOAD";

/// One client request frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Liveness probe; answered with [`WireResponse::Pong`].
    Ping,
    /// Execute a multi-statement source text through the single writer.
    Execute {
        /// IDL source text (statements separated by `;`).
        src: String,
    },
    /// Evaluate one pure-query request against the published snapshot
    /// (never waits on the writer; proceeds during view refreshes).
    Query {
        /// IDL source text of exactly one request.
        src: String,
    },
    /// Execute exactly one (usually mutating) request through the writer.
    Update {
        /// IDL source text of exactly one request.
        src: String,
    },
    /// Re-derive all views and republish the read snapshot.
    RefreshViews,
    /// Server, session and engine counters.
    Stats,
    /// The universe as canonical JSON, read from the published snapshot.
    DumpUniverse,
    /// Ask the server to drain and stop accepting connections.
    Shutdown,
}

/// One server response frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireResponse {
    /// Reply to [`WireRequest::Ping`].
    Pong,
    /// Greeting of a v2 ([`MAGIC_V2`]) session: the codecs this server
    /// can serve `DumpUniverse` replies in.
    Hello {
        /// Supported universe codecs, e.g. `["json", "binary"]`.
        codecs: Vec<String>,
    },
    /// Outcomes of an `Execute` or `Update` (one element for `Update`).
    Outcomes(Vec<Outcome>),
    /// Answers of a snapshot `Query`.
    Answers(AnswerSet),
    /// Fixpoint summary of an explicit `RefreshViews`.
    Refreshed(EngineStatsWire),
    /// Reply to [`WireRequest::Stats`]. Boxed to keep the response enum
    /// small; `Box<T>` serializes identically to `T`.
    Stats(Box<StatsReply>),
    /// Reply to [`WireRequest::DumpUniverse`].
    Universe {
        /// Canonical JSON of the snapshotted universe.
        json: String,
    },
    /// Acknowledgement of [`WireRequest::Shutdown`]; the connection
    /// closes after this frame.
    ShuttingDown,
    /// Any failure: the engine's stable error code plus a human message.
    Error {
        /// Machine-readable code (`E-PARSE`, `E-TIMEOUT`, …).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl WireResponse {
    /// Builds an error response from an engine error.
    pub fn from_error(e: &idl::EngineError) -> WireResponse {
        WireResponse::Error { code: e.code().to_string(), message: e.to_string() }
    }

    /// Builds an error response from a server-level code.
    pub fn server_error(code: &str, message: impl Into<String>) -> WireResponse {
        WireResponse::Error { code: code.to_string(), message: message.into() }
    }
}

/// Wire-portable summary of the engine's last fixpoint run
/// ([`FixpointStats`] minus the process-local details).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStatsWire {
    /// Fixpoint iterations across all strata.
    pub iterations: u64,
    /// Rule-body evaluations performed.
    pub rule_evals: u64,
    /// New facts derived.
    pub facts_added: u64,
    /// Rule evaluations skipped because no body predicate changed
    /// (semi-naive scheduling).
    #[serde(default)]
    pub rules_skipped: u64,
    /// Task evaluations that probed a delta shard instead of full inputs.
    #[serde(default)]
    pub delta_evals: u64,
    /// Task evaluations over full inputs.
    #[serde(default)]
    pub full_evals: u64,
    /// Data-dependent relations that materialised for the first time
    /// (schematic deltas).
    #[serde(default)]
    pub schematic_deltas: u64,
    /// Cached plans invalidated by those schematic deltas.
    #[serde(default)]
    pub plan_invalidations: u64,
    /// Rule bodies compiled to the plan IR.
    pub plans_compiled: u64,
    /// Rule plans served from the memoized cache.
    pub plan_cache_hits: u64,
    /// Rule plans the memoized cache had to compile.
    pub plan_cache_misses: u64,
    /// Fraction of O(1) handle clones whose sharing survived the run.
    pub sharing_hit_rate: f64,
    /// Write-path view-maintenance counters. Optional for wire
    /// compatibility: replies from servers predating maintenance decode
    /// as `None`, and older clients ignore the field entirely.
    #[serde(default)]
    pub maintenance: Option<MaintenanceStatsWire>,
}

/// Wire-portable counters of the engine's write-path view maintenance
/// (see `idl_eval::MaintenanceStats`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceStatsWire {
    /// Distinct views touched by the last maintenance run.
    pub views_maintained: u64,
    /// Delta-rule evaluations the run performed.
    pub delta_rules_run: u64,
    /// Relations incrementally materialised for the first time
    /// (schematic creates).
    pub schematic_creates: u64,
    /// Emptied data-dependent relations garbage-collected.
    pub schematic_gcs: u64,
    /// Support entries in the engine's maintained-view bookkeeping.
    pub support_entries: u64,
}

impl From<&FixpointStats> for EngineStatsWire {
    fn from(s: &FixpointStats) -> Self {
        let m = &s.maintenance;
        EngineStatsWire {
            iterations: s.iterations as u64,
            rule_evals: s.rule_evals as u64,
            facts_added: s.facts_added as u64,
            rules_skipped: s.rules_skipped as u64,
            delta_evals: s.delta_evals as u64,
            full_evals: s.full_evals as u64,
            schematic_deltas: s.schematic_deltas as u64,
            plan_invalidations: s.plan_invalidations as u64,
            plans_compiled: s.plans_compiled as u64,
            plan_cache_hits: s.plan_cache_hits as u64,
            plan_cache_misses: s.plan_cache_misses as u64,
            sharing_hit_rate: s.sharing_hit_rate(),
            maintenance: Some(MaintenanceStatsWire {
                views_maintained: m.views_maintained as u64,
                delta_rules_run: m.delta_rules_run as u64,
                schematic_creates: m.schematic_creates as u64,
                schematic_gcs: m.schematic_gcs as u64,
                support_entries: m.support_entries as u64,
            }),
        }
    }
}

/// Per-session counters, as reported to that session's own `Stats`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStatsWire {
    /// Server-assigned session number (1-based, in accept order).
    pub session_id: u64,
    /// Requests this session has completed (including errors).
    pub requests: u64,
    /// Requests that returned an error frame.
    pub errors: u64,
    /// Payload + framing bytes received from this session.
    pub bytes_in: u64,
    /// Payload + framing bytes sent to this session.
    pub bytes_out: u64,
}

/// Reply to [`WireRequest::Stats`]: global, per-session and engine views.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Server-global counters and latency percentiles.
    pub server: crate::stats::ServerStatsSnapshot,
    /// The requesting session's own counters.
    pub session: SessionStatsWire,
    /// Summary of the engine's most recent materialisation.
    pub engine: EngineStatsWire,
    /// Storage-backend telemetry of a durable backend. Optional for
    /// wire compatibility: replies from servers predating the paged
    /// storage engine (or without `--durable`) decode as `None`, and
    /// older clients ignore the field entirely.
    #[serde(default)]
    pub storage: Option<StorageStatsWire>,
}

/// Wire-portable storage-backend telemetry of a durable backend (see
/// `idl_storage::DurabilityStats` / `idl_storage::BufferPoolStats`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageStatsWire {
    /// The configured storage, as its spec string (`paged:N`; older
    /// servers may also report `mem`).
    pub backend: String,
    /// Page-file size in pages (0 from an older server's mem backend).
    pub pages: u64,
    /// Delta checkpoints written since open.
    pub delta_checkpoints: u64,
    /// Full checkpoints written since open.
    pub full_checkpoints: u64,
    /// Delta-chain length: always 0 from this build (only an older
    /// server's mem backend kept a chain).
    pub chain_len: u64,
    /// Buffer-pool counters (`None` from an older server's mem backend —
    /// no page file to cache).
    #[serde(default)]
    pub pool: Option<BufferPoolStatsWire>,
}

/// Wire-portable buffer-pool counters (see `idl_storage::BufferPoolStats`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BufferPoolStatsWire {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read the page file.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to the page file at eviction time.
    pub dirty_writebacks: u64,
    /// Configured capacity, in pages.
    pub capacity: u64,
    /// Frames currently resident.
    pub resident: u64,
}

impl StorageStatsWire {
    /// Summarises a durable backend's counters for the wire (the
    /// `backend` spec string comes from the caller, which knows the
    /// configured [`idl::StorageSpec`]).
    pub fn from_stats(backend: String, d: &DurabilityStats) -> Self {
        StorageStatsWire {
            backend,
            pages: d.storage_pages,
            delta_checkpoints: d.delta_checkpoints,
            full_checkpoints: d.full_checkpoints,
            chain_len: d.chain_len,
            pool: d.pool.map(|p| BufferPoolStatsWire {
                hits: p.hits,
                misses: p.misses,
                evictions: p.evictions,
                dirty_writebacks: p.dirty_writebacks,
                capacity: p.capacity,
                resident: p.resident,
            }),
        }
    }
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error (includes EOF mid-frame).
    Io(io::Error),
    /// Clean EOF at a frame boundary: the peer hung up.
    Closed,
    /// Declared payload length exceeds the size cap.
    TooLarge {
        /// Length the header declared.
        declared: u32,
        /// The enforced cap.
        max: u32,
    },
    /// Payload failed its CRC-32C check.
    BadCrc {
        /// Checksum the header declared.
        want: u32,
        /// Checksum of the bytes actually read.
        got: u32,
    },
    /// The `on_wait` callback aborted the read (idle deadline, drain).
    Aborted(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::BadCrc { want, got } => {
                write!(f, "frame checksum mismatch (header {want:#010x}, payload {got:#010x})")
            }
            FrameError::Aborted(why) => write!(f, "read aborted: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (header + payload) and flushes.
///
/// Enforces `max_frame` locally so an oversized payload fails fast
/// instead of being rejected by the peer.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: u32) -> Result<(), FrameError> {
    if payload.len() as u64 > max_frame as u64 {
        return Err(FrameError::TooLarge { declared: payload.len() as u32, max: max_frame });
    }
    let mut head = [0u8; FRAME_HEADER];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32c(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying length cap and checksum.
///
/// `on_wait(mid_frame)` runs whenever the socket read times out
/// (sockets are given short read timeouts so sessions stay responsive
/// to drain); returning `Some(reason)` aborts with
/// [`FrameError::Aborted`]. Pass `|_| None` for a plain blocking read.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: u32,
    on_wait: &mut dyn FnMut(bool) -> Option<&'static str>,
) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; FRAME_HEADER];
    read_exact_retry(r, &mut head, false, on_wait)?;
    let declared = u32::from_le_bytes(head[..4].try_into().unwrap());
    let want = u32::from_le_bytes(head[4..].try_into().unwrap());
    if declared > max_frame {
        return Err(FrameError::TooLarge { declared, max: max_frame });
    }
    let mut payload = vec![0u8; declared as usize];
    read_exact_retry(r, &mut payload, true, on_wait)?;
    let got = crc32c(&payload);
    if got != want {
        return Err(FrameError::BadCrc { want, got });
    }
    Ok(payload)
}

/// `read_exact` that survives read-timeout ticks: on `WouldBlock` /
/// `TimedOut` it consults `on_wait` and resumes where it left off, so a
/// frame trickling in across several ticks is reassembled correctly.
fn read_exact_retry(
    r: &mut impl Read,
    buf: &mut [u8],
    mid_frame: bool,
    on_wait: &mut dyn FnMut(bool) -> Option<&'static str>,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if !mid_frame && filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(why) = on_wait(mid_frame || filled > 0) {
                    return Err(FrameError::Aborted(why));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Serializes a message and writes it as one frame.
pub fn send<T: Serialize>(
    w: &mut impl Write,
    msg: &T,
    max_frame: u32,
) -> Result<usize, FrameError> {
    let json = serde_json::to_string(msg)
        .map_err(|e| FrameError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string())))?;
    write_frame(w, json.as_bytes(), max_frame)?;
    Ok(FRAME_HEADER + json.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_wait(_: bool) -> Option<&'static str> {
        None
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames", 64).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER + 12);
        let got = read_frame(&mut &buf[..], 64, &mut no_wait).unwrap();
        assert_eq!(got, b"hello frames");
        // a second read at the boundary reports a clean close
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut &empty[..], 64, &mut no_wait), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_and_oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload", 64).unwrap();
        let flip = buf.len() - 1;
        buf[flip] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &buf[..], 64, &mut no_wait),
            Err(FrameError::BadCrc { .. })
        ));
        // oversized writes fail locally, oversized headers fail on read
        assert!(matches!(
            write_frame(&mut Vec::new(), &[0u8; 100], 64),
            Err(FrameError::TooLarge { .. })
        ));
        let mut big = Vec::new();
        write_frame(&mut big, &[7u8; 100], 1024).unwrap();
        assert!(matches!(
            read_frame(&mut &big[..], 64, &mut no_wait),
            Err(FrameError::TooLarge { declared: 100, max: 64 })
        ));
    }

    #[test]
    fn request_and_response_roundtrip_as_json() {
        let reqs = vec![
            WireRequest::Ping,
            WireRequest::Query { src: "?.db.r(.a=X)".into() },
            WireRequest::Update { src: "?.db.r+(.a=1)".into() },
            WireRequest::RefreshViews,
            WireRequest::Stats,
            WireRequest::DumpUniverse,
            WireRequest::Shutdown,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: WireRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
        let resp = WireResponse::server_error(E_TIMEOUT, "request deadline exceeded");
        let back: WireResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn engine_stats_without_maintenance_field_still_parse() {
        // Pin wire compatibility: a stats payload from a build predating
        // write-path maintenance (no `maintenance` key at all) must
        // decode, with the new field reading as None.
        let old = r#"{"iterations":3,"rule_evals":7,"facts_added":11,
            "rules_skipped":0,"delta_evals":2,"full_evals":5,
            "schematic_deltas":1,"plan_invalidations":0,
            "plans_compiled":4,"plan_cache_hits":9,"plan_cache_misses":4,
            "sharing_hit_rate":0.5}"#;
        let got: EngineStatsWire = serde_json::from_str(old).unwrap();
        assert_eq!(got.iterations, 3);
        assert_eq!(got.maintenance, None);

        // and the new shape round-trips
        let mut full = got.clone();
        full.maintenance = Some(MaintenanceStatsWire {
            views_maintained: 2,
            delta_rules_run: 6,
            schematic_creates: 1,
            schematic_gcs: 1,
            support_entries: 40,
        });
        let back: EngineStatsWire =
            serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn stats_reply_without_storage_field_still_parses() {
        // Pin wire compatibility: a stats payload from a server build
        // predating the paged storage engine carries no `storage` key at
        // all — it must decode, with the new field reading as None.
        let reply = StatsReply {
            server: Default::default(),
            session: SessionStatsWire { session_id: 3, requests: 5, ..Default::default() },
            engine: EngineStatsWire { iterations: 2, ..Default::default() },
            storage: None,
        };
        let json = serde_json::to_string(&reply).unwrap();
        let old = json.replace(",\"storage\":null", "");
        assert_ne!(old, json, "forged an old-format payload (no `storage` key)");
        let got: StatsReply = serde_json::from_str(&old).unwrap();
        assert_eq!(got, reply);

        // and the new shape — paged backend with pool counters — round-trips
        let full = StatsReply {
            storage: Some(StorageStatsWire {
                backend: "paged:64".into(),
                pages: 130,
                delta_checkpoints: 4,
                full_checkpoints: 1,
                chain_len: 0,
                pool: Some(BufferPoolStatsWire {
                    hits: 900,
                    misses: 77,
                    evictions: 13,
                    dirty_writebacks: 6,
                    capacity: 64,
                    resident: 64,
                }),
            }),
            ..reply
        };
        let back: StatsReply =
            serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }
}
