//! # `idl-server` — a concurrent multi-session network front-end
//!
//! Serves one [`idl::Engine`] (in memory or durable, behind the
//! [`idl::Backend`] seam) to many concurrent TCP sessions:
//!
//! ```no_run
//! use idl::Engine;
//! use idl_server::{serve, Client, ServerConfig};
//!
//! let backend = Box::new(Engine::with_stock_universe(vec![("3/3/85", "hp", 50.0)]));
//! let handle = serve(backend, ServerConfig::default())?;
//!
//! let mut c = Client::connect(handle.local_addr())?;
//! c.update("?.euter.r+(.date=3/4/85, .stkCode=sun, .clsPrice=30)")?;
//! assert!(c.query("?.euter.r(.stkCode=sun)")?.is_true());
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Built on `std::net` only — no async runtime. One readiness-driven
//! event loop serves every session: nonblocking sockets behind a
//! vendored poller, per-session pipelining, group-committed writes.
//! Reads evaluate against published O(1) copy-on-write snapshots without
//! waiting on the writer; writes serialize through the single write
//! thread that owns the engine (and its durability layer). See
//! [`server`] for the concurrency discipline, `event` for the event
//! loop, and [`protocol`] for the wire format.
//!
//! Unix only: the poller is `epoll`/`poll(2)`.

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("idl-server is unix-only: its event loop polls raw file descriptors");

pub mod client;
mod event;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError};
pub use protocol::{
    EngineStatsWire, FrameError, SessionStatsWire, StatsReply, WireRequest, WireResponse,
};
pub use server::{serve, ServeMode, ServerConfig, ServerError, ServerHandle};
pub use stats::{LatencyRing, ServerStats, ServerStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use idl::Engine;

    fn stock_server(cfg: ServerConfig) -> ServerHandle {
        let backend = Box::new(Engine::with_stock_universe(vec![
            ("3/3/85", "hp", 50.0),
            ("3/3/85", "ibm", 210.0),
        ]));
        serve(backend, cfg).expect("server starts")
    }

    #[test]
    fn roundtrip_query_update_stats() {
        let handle = stock_server(ServerConfig::default());
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert!(c.query("?.euter.r(.stkCode=hp)").unwrap().is_true());
        let out = c.update("?.euter.r+(.date=3/4/85, .stkCode=sun, .clsPrice=30)").unwrap();
        assert_eq!(out.stats().unwrap().inserted, 1);
        assert!(c.query("?.euter.r(.stkCode=sun)").unwrap().is_true());
        let stats = c.stats().unwrap();
        assert!(stats.server.requests >= 3);
        assert_eq!(stats.server.sessions_active, 1);
        assert_eq!(stats.session.session_id, 1);
        assert!(stats.session.bytes_in > 0 && stats.session.bytes_out > 0);
        let final_stats = handle.shutdown();
        assert_eq!(final_stats.sessions_opened, 1);
    }

    #[test]
    fn engine_errors_travel_with_stable_codes() {
        let handle = stock_server(ServerConfig::default());
        let mut c = Client::connect(handle.local_addr()).unwrap();
        let err = c.query("?.euter.r(.stkCode=").unwrap_err();
        assert_eq!(err.code(), Some("E-PARSE"));
        // the session survives an engine error
        assert!(c.query("?.euter.r(.stkCode=hp)").unwrap().is_true());
        handle.shutdown();
    }

    #[test]
    fn session_cap_rejects_with_busy() {
        let cfg = ServerConfig { max_sessions: 1, ..ServerConfig::default() };
        let handle = stock_server(cfg);
        let _first = Client::connect(handle.local_addr()).unwrap();
        let err = Client::connect(handle.local_addr()).unwrap_err();
        assert_eq!(err.code(), Some(protocol::E_BUSY));
        handle.shutdown();
    }

    #[test]
    fn remote_shutdown_drains_server() {
        let handle = stock_server(ServerConfig::default());
        let addr = handle.local_addr();
        let mut c = Client::connect(addr).unwrap();
        c.shutdown_server().unwrap();
        let stats = handle.wait();
        assert_eq!(stats.sessions_active, 0);
        assert!(Client::connect(addr).is_err(), "drained server accepts no new sessions");
    }
}
