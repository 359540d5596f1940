//! # `idl` — the Interoperable Database Language engine
//!
//! A from-scratch implementation of the language proposed in
//! *Krishnamurthy, Litwin & Kent, "Language Features for Interoperability
//! of Databases with Schematic Discrepancies", SIGMOD 1991*.
//!
//! IDL is a Horn-clause-based higher-order language for *multidatabase*
//! systems. Its point is schematic discrepancy: the same fact — "hp closed
//! at \$50 on 3/3/85" — may live as a **row** in one database, as an
//! **attribute** in another, and as a **relation** in a third. First-order
//! languages cannot write one query that covers all three; IDL can, because
//! variables range over data *and* metadata:
//!
//! ```
//! use idl::Engine;
//!
//! let mut engine = Engine::with_stock_universe(vec![
//!     ("3/3/85", "hp", 50.0),
//!     ("3/3/85", "ibm", 210.0),
//! ]);
//!
//! // Same intention, three schemata (paper §4.3):
//! assert!(engine.query("?.euter.r(.stkCode=S, .clsPrice>200)").unwrap().is_true());
//! assert!(engine.query("?.chwab.r(.S>200)").unwrap().is_true());
//! assert!(engine.query("?.ource.S(.clsPrice>200)").unwrap().is_true());
//! ```
//!
//! The engine bundles:
//!
//! * the storage substrate ([`idl_storage::Store`]) holding the universe of
//!   databases,
//! * the evaluator ([`idl_eval`]) for higher-order queries and updates,
//! * a **view catalog** of rules (§6) materialised with stratified
//!   fixpoints — including higher-order views whose relation count is
//!   data-dependent,
//! * an **update-program registry** (§7) giving multidatabase update
//!   translation and view updatability.
//!
//! Statements are submitted as source text via [`Engine::execute`], or one
//! request at a time: [`Engine::query`] answers read-only requests and
//! refuses writes, [`Engine::update`] runs any one request. Views refresh
//! automatically when base data changes.
//!
//! Durability is a constructor argument, not a second type:
//! [`Engine::new`] builds an in-memory engine and [`Engine::open`] one
//! rooted at a directory, which logs every request that wrote before
//! acknowledging it (see [`durable`]). [`Backend`] is the server's
//! object-safe seam over the engine.

#![warn(missing_docs)]

pub mod backend;
pub mod durable;
mod engine;
mod error;
mod outcome;
pub mod transparency;

pub use backend::{Backend, EngineSnapshot};
pub use durable::{CheckpointPolicy, DurabilityOptions, DurableEngine, SyncPolicy};
pub use engine::{Engine, EngineOptions, EngineOptionsBuilder};
pub use error::EngineError;
pub use outcome::Outcome;

// Re-exports so downstream users need only this crate.
pub use idl_eval::rules::{FixpointStats, StratumStats};
pub use idl_eval::update::UpdateStats;
pub use idl_eval::{AnswerSet, EvalOptions, PlanCache, Subst};
pub use idl_lang::{parse_program, parse_statement, Statement};
pub use idl_object::{Atom, Date, Name, SetObj, SharingCounters, TupleObj, Value};
pub use idl_storage::codec::SnapshotCodec;
pub use idl_storage::schema::{AttrDecl, ForeignKey, RelationSchema, SchemaSet, TypeTag};
pub use idl_storage::{
    BufferPoolStats, DurabilityStats, FaultPlan, LogFormat, RealVfs, SimVfs, StorageSpec, Store,
    Vfs, VfsStats,
};

/// Convenience prelude.
pub mod prelude {
    pub use crate::{AnswerSet, Engine, EngineError, Outcome, Value};
}
