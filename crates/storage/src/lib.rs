//! # `idl-storage` — the multidatabase storage substrate
//!
//! The paper assumes a collection of autonomous relational databases and
//! models them as one *universe tuple* (§3). This crate is the substrate
//! that plays the role of those DBMSs for the reproduction: an embedded,
//! in-memory multidatabase engine holding the universe as an
//! [`idl_object::Value`], wrapped with the services a real engine provides:
//!
//! * a **catalog** (databases, relations, cardinalities) — [`store::Store`];
//! * **secondary indexes** on relation attributes, maintained lazily across
//!   arbitrary universe mutations — [`index`];
//! * per-attribute **statistics** for the evaluator's planner — [`stats`];
//! * **transactions** with snapshot-based rollback — [`txn`];
//! * a coarse **change journal** driving incremental view refresh —
//!   [`journal`];
//! * **checkpoints** in a shadow-paged page file behind a buffer pool —
//!   [`engine::PagedStorage`] — which refuses a directory laid out by an
//!   older build instead of migrating it (one on-disk format);
//! * the **snapshot export** — a bare JSON universe — and the crash-safe
//!   write→fsync→rename→fsync(dir) protocol — [`persist`];
//! * a **virtual file system** — [`vfs`] — routing all durability I/O so
//!   it can run against the real disk or a deterministic fault-injecting
//!   simulation ([`vfs::SimVfs`]);
//! * checksummed **operation-log framing** — [`oplog`] — whose recovery
//!   scan truncates torn tails instead of failing or replaying garbage;
//! * the binary **value codec** the page file and the server's binary
//!   payloads share — [`codec`].
//!
//! Because IDL updates may restructure *any* part of the universe (delete
//! an attribute of one tuple, drop a whole relation by deleting a database
//! attribute — §5.2, §7.1), indexes and statistics are invalidated at
//! relation granularity on every mutation that touches a relation's
//! subtree, and rebuilt on demand.

#![warn(missing_docs)]

pub mod btree;
pub mod buffer_pool;
pub mod codec;
pub mod crc;
pub mod engine;
pub mod error;
pub mod heap;
pub mod index;
pub mod journal;
pub mod oplog;
pub mod page;
pub mod persist;
pub mod schema;
pub mod session;
pub mod stats;
pub mod store;
pub mod txn;
pub mod vfs;

pub use buffer_pool::BufferPoolStats;
pub use engine::{CommitSeal, PagedStorage, StorageSpec};
pub use error::StorageError;
pub use index::IndexKind;
pub use journal::{ChangeRecord, ChangeScope};
pub use oplog::{DurabilityStats, LogFormat};
pub use schema::{RelationSchema, SchemaSet, TypeTag};
pub use session::Session;
pub use store::{Store, Version};
pub use vfs::{FaultPlan, RealVfs, SimVfs, Vfs, VfsStats};
