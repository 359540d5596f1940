//! Durability: page-file checkpoints + operation log, routed through a
//! [`Vfs`].
//!
//! An [`Engine`] opened on a directory ([`Engine::open`],
//! [`Engine::open_with`], [`Engine::open_with_vfs`]) owns its
//! durability: the storage layer's shadow-paged page file
//! ([`idl_storage::PagedStorage`]) for point-in-time checkpoints, plus an
//! **append-only operation log**. Every request that wrote is appended in
//! canonical IDL surface syntax by the engine's one front door for it,
//! and recovery is checkpoint + replay:
//!
//! ```no_run
//! use idl::Engine;
//! let mut d = Engine::open("./stocks")?;
//! d.execute(idl::transparency::standard_update_programs())?;       // code: in-memory only
//! d.update("?.dbU.insStk(.stk=hp, .date=3/3/85, .price=50)")?;  // logged
//! d.checkpoint()?;                                // commit + rotate log
//! # Ok::<(), idl::EngineError>(())
//! ```
//!
//! # Crash safety
//!
//! All file I/O goes through a [`Vfs`] — the real disk in production, a
//! deterministic fault-injecting simulation ([`idl_storage::SimVfs`]) in
//! the crash battery (`tests/crash_recovery.rs`). The guarantees, under
//! [`SyncPolicy::Always`]:
//!
//! * **sync before ack** — a request that wrote returns `Ok` only after
//!   its log record is appended *and* fsynced; a crash at any point loses
//!   no acknowledged update;
//! * **atomic records** — the log uses length-prefixed, CRC-32C-checksummed
//!   framing ([`idl_storage::oplog`]); recovery truncates a torn tail
//!   instead of failing or replaying garbage, so an unacknowledged update
//!   is atomically absent;
//! * **atomic checkpoints** — a checkpoint syncs its data pages before
//!   a CRC-sealed meta slot flips to them, and the committed state
//!   records the log LSN it covers, so a crash anywhere inside
//!   [`Engine::checkpoint`] replays each record at most once;
//! * **fail-stop on log errors** — if an append or sync fails (`ENOSPC`,
//!   I/O error), the engine truncates the partial record and **poisons**
//!   itself: the in-memory state has a mutation the log could not
//!   acknowledge, so further work is refused until a fresh
//!   [`Engine::open`] rebuilds state from disk.
//!
//! A directory an older build laid out — `universe.json` snapshots,
//! `universe.delta.N` chains, an unfinished `pages.idb.migrating`, or a
//! log in a format before 4 — is refused with `E-STORAGE` before any file
//! changes; the error names the file and the last commit whose build
//! migrates it (see [`idl_storage::engine`]).
//!
//! Rules and update programs are *code*: they are not logged, and the
//! application reinstalls them in the `setup` callback of
//! [`Engine::open_with`] (the same policy as snapshot loading; see
//! `tests/integration_pipeline.rs`).

use crate::engine::Engine;
use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_eval::MaintainedViews;
use idl_lang::parse_statement;
use idl_object::Name;
use idl_storage::codec::SnapshotCodec;
use idl_storage::engine::{
    CommitKind, CommitSeal, DeltaEntry, PagedStorage, StorageSpec, DEFAULT_POOL_PAGES,
};
use idl_storage::journal::ChangeScope;
use idl_storage::oplog::{DurabilityStats, LogFormat, LOG_FILE};
use idl_storage::session::Session;
use idl_storage::store::Store;
use idl_storage::vfs::{RealVfs, Vfs, VfsStats};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// When the operation log is fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Fsync the log before acknowledging every mutating request, and
    /// fsync every checkpoint commit. The crash-safe default.
    Always,
    /// Never fsync (the OS flushes when it pleases). For ablations and
    /// bulk loads; a crash may lose acknowledged updates.
    Never,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "off" | "never" => Ok(SyncPolicy::Never),
            other => Err(format!("unknown sync policy '{other}' (expected always|off)")),
        }
    }
}

/// How [`Engine::checkpoint`] decides between rewriting the page
/// file and editing it in place.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointPolicy {
    /// Edit only the relations/databases dirtied since the last
    /// checkpoint in place; rewrite the whole file when there is no base
    /// yet or the universe was mutated unscoped.
    Auto {
        /// A delta-chain cap older checkpoint formats had. The page file
        /// keeps no chain, so only 0 (every checkpoint full) differs from
        /// any other value.
        max_chain: usize,
    },
    /// Every checkpoint rewrites the whole page file.
    Full,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::Auto { max_chain: 8 }
    }
}

impl std::str::FromStr for CheckpointPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(CheckpointPolicy::default()),
            "full" => Ok(CheckpointPolicy::Full),
            other => Err(format!("unknown checkpoint policy '{other}' (expected auto|full)")),
        }
    }
}

/// Durability knobs for [`Engine::open_with_vfs`]. `format` and
/// `codec` each have a single value; they stay because the benchmark
/// package builds this struct by literal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DurabilityOptions {
    /// Fsync policy for the log and checkpoints.
    pub sync: SyncPolicy,
    /// Log format (framed, format 4).
    pub format: LogFormat,
    /// Checkpoint encoding (binary, inside the page file).
    pub codec: SnapshotCodec,
    /// Full-vs-in-place checkpoint policy.
    pub checkpoint: CheckpointPolicy,
    /// The page file's buffer-pool size.
    pub storage: StorageSpec,
}

impl Default for DurabilityOptions {
    /// Fsync always, auto in-place checkpoints, a
    /// [`DEFAULT_POOL_PAGES`]-page buffer pool.
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            format: LogFormat::Framed,
            codec: SnapshotCodec::Binary,
            checkpoint: CheckpointPolicy::default(),
            storage: StorageSpec::Paged { pool_pages: DEFAULT_POOL_PAGES },
        }
    }
}

/// Another name for [`Engine`], kept only because the benchmark package
/// names it.
pub type DurableEngine = Engine;

/// The durable half of an [`Engine`] opened on a directory: the page file
/// checkpoints commit into, the operation log, and their counters. All
/// I/O is routed through a [`Vfs`].
pub(crate) struct Durability {
    vfs: Arc<dyn Vfs>,
    opts: DurabilityOptions,
    /// The page file checkpoints commit into.
    storage: PagedStorage,
    /// The operation log: append/sync/rotate/truncate, LSN numbering.
    log: Session,
    /// Store journal version covered by the newest checkpoint;
    /// `changes_since(ckpt_version)` is exactly what the next in-place
    /// checkpoint must record, so the store's journal is pinned here. 0
    /// at open: the page file predates every in-process mutation (setup
    /// and replay included).
    ckpt_version: u64,
    poisoned: Option<String>,
    stats: DurabilityStats,
}

impl Durability {
    /// Refuses work after a log failure (see the module docs).
    pub(crate) fn check_poisoned(&self) -> Result<(), EngineError> {
        match &self.poisoned {
            Some(why) => Err(EngineError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// Appends `records` (canonical request texts) as one write and —
    /// under [`SyncPolicy::Always`] — one fsync, *before* the caller
    /// acknowledges any of them. On failure the partial append is
    /// truncated back to the last acknowledged prefix and the engine
    /// poisons: its in-memory state holds mutations the log could not
    /// acknowledge.
    pub(crate) fn append(&mut self, records: &[String]) -> Result<(), EngineError> {
        match self.log.append(records) {
            Ok(bytes) => {
                if self.opts.sync == SyncPolicy::Always {
                    self.stats.log_syncs += 1;
                }
                self.stats.records_appended += records.len() as u64;
                self.stats.bytes_appended += bytes;
                Ok(())
            }
            Err(e) => {
                let why = e.to_string();
                self.log.repair_truncate();
                self.poisoned = Some(why.clone());
                Err(EngineError::Storage(why))
            }
        }
    }

    /// Counts one group commit of `records` records.
    pub(crate) fn count_group(&mut self, records: usize) {
        self.stats.group_commits += 1;
        self.stats.group_commit_records += records as u64;
    }

    /// Collects the post-images (or tombstones) of every database/relation
    /// dirtied since the last checkpoint, from the store's change
    /// journal. `None` means a delta cannot represent the changes (an
    /// unscoped universe mutation, e.g. a rollback) and the checkpoint
    /// must be full.
    fn delta_entries(&self, store: &Store) -> Option<Vec<DeltaEntry>> {
        let mut dbs: BTreeSet<Name> = BTreeSet::new();
        let mut rels: BTreeMap<Name, BTreeSet<Name>> = BTreeMap::new();
        for rec in store.changes_since(self.ckpt_version) {
            match &rec.scope {
                ChangeScope::Universe => return None,
                ChangeScope::Database { db } => {
                    dbs.insert(db.clone());
                }
                ChangeScope::Relation { db, rel } => {
                    rels.entry(db.clone()).or_default().insert(rel.clone());
                }
            }
        }
        let universe = store.universe();
        let mut entries = Vec::new();
        for db in &dbs {
            // database granularity subsumes its relations' entries
            rels.remove(db);
            match universe.attr(db.as_str()) {
                // O(1) copy-on-write clones — the delta shares the live
                // store's interiors until either side mutates
                Some(v) => {
                    entries.push(DeltaEntry::PutDatabase { db: db.clone(), value: v.clone() })
                }
                None => entries.push(DeltaEntry::DropDatabase { db: db.clone() }),
            }
        }
        for (db, dirty) in &rels {
            match universe.attr(db.as_str()) {
                None => entries.push(DeltaEntry::DropDatabase { db: db.clone() }),
                Some(dbv) => {
                    for rel in dirty {
                        match dbv.attr(rel.as_str()) {
                            Some(v) => entries.push(DeltaEntry::PutRelation {
                                db: db.clone(),
                                rel: rel.clone(),
                                value: v.clone(),
                            }),
                            None => entries.push(DeltaEntry::DropRelation {
                                db: db.clone(),
                                rel: rel.clone(),
                            }),
                        }
                    }
                }
            }
        }
        Some(entries)
    }

    /// Commits `store` under the configured [`CheckpointPolicy`] (or in
    /// full when `force_full`), carrying `maintenance` — the views'
    /// support state, passed only when the views match the store — then
    /// rotates the log and re-pins the store's journal at the committed
    /// version.
    pub(crate) fn checkpoint(
        &mut self,
        store: &mut Store,
        maintenance: Option<&MaintainedViews>,
        force_full: bool,
    ) -> Result<Outcome, EngineError> {
        self.check_poisoned()?;
        let sync = self.opts.sync == SyncPolicy::Always;
        // The newest commit wins on recovery, so the blob (or its
        // absence) rides every checkpoint.
        let maintenance = maintenance.and_then(|m| serde_json::to_string(m).ok());
        let store_version = store.version();
        let max_chain = match self.opts.checkpoint {
            CheckpointPolicy::Auto { max_chain } => max_chain,
            CheckpointPolicy::Full => 0,
        };
        let seal = CommitSeal { lsn: self.log.lsn(), maintenance, sync };
        let delta_ok = !force_full && max_chain > 0 && self.storage.can_delta();
        // `delta_entries` is None when the journal recorded an unscoped
        // universe mutation — only a full commit can represent that.
        let info = match if delta_ok { self.delta_entries(store) } else { None } {
            // A failed delta aborts without touching the committed
            // state, and a full commit can represent anything a delta
            // can — fall back instead of failing the checkpoint (and
            // poisoning the engine) on a delta-only limitation.
            Some(entries) => match self.storage.apply_delta(&entries, &seal) {
                Ok(info) => info,
                Err(_) => self.storage.apply_full(store, &seal)?,
            },
            None => self.storage.apply_full(store, &seal)?,
        };
        match info.kind {
            CommitKind::Delta => self.stats.delta_checkpoints += 1,
            CommitKind::Full => self.stats.full_checkpoints += 1,
        }
        self.stats.snapshot_bytes_written += info.bytes_written;
        self.ckpt_version = store_version;
        store.pin_journal(store_version);
        self.log.rotate()?;
        Ok(Outcome::Checkpointed { lsn: seal.lsn })
    }
}

impl Engine {
    /// Opens (or creates) a durable engine at `dir` on the real file
    /// system: loads the checkpoint if present and replays the operation
    /// log.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, EngineError> {
        Self::open_with(dir, |_| Ok(()))
    }

    /// Like [`Engine::open`], running `setup` (typically rule and
    /// update-program installation) after the checkpoint loads but *before*
    /// the log replays — logged program calls then resolve correctly.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        setup: impl FnOnce(&mut Engine) -> Result<(), EngineError>,
    ) -> Result<Self, EngineError> {
        Self::open_with_vfs(dir, Arc::new(RealVfs::new()), DurabilityOptions::default(), setup)
    }

    /// The fully general open: explicit [`Vfs`] (real or simulated) and
    /// [`DurabilityOptions`]. Recovery order: the page file recovers its
    /// committed universe (refusing a directory an older build laid out,
    /// then sweeping stale temp files), `setup` runs, then the log session
    /// opens and the tail replays (skipping records the recovered state
    /// already covers, truncating any torn tail). Setup and replay run on
    /// the engine before durability is attached, so neither is logged
    /// again.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        opts: DurabilityOptions,
        setup: impl FnOnce(&mut Engine) -> Result<(), EngineError>,
    ) -> Result<Self, EngineError> {
        let dir = dir.into();
        let sync = opts.sync == SyncPolicy::Always;
        let mut stats = DurabilityStats::default();
        vfs.create_dir_all(&dir)
            .map_err(|e| EngineError::Storage(format!("create {}: {e}", dir.display())))?;

        let StorageSpec::Paged { pool_pages } = opts.storage;
        let mut storage = PagedStorage::new(Arc::clone(&vfs), &dir, pool_pages);
        let recovered = storage.recover()?;
        stats.stale_temps_removed = recovered.stale_temps_removed;
        let snap_lsn = recovered.lsn;
        let maint_state = recovered.maintenance;
        let mut store = match recovered.universe {
            Some(universe) => Store::from_universe(universe)?,
            None => Store::new(),
        };
        // The first in-place checkpoint records every change since the
        // page file's commit, setup's and replay's included.
        store.pin_journal(0);
        let mut engine = Engine::from_store(store);
        setup(&mut engine)?;
        // Adopt persisted maintenance state *after* setup installed the
        // rules (the adopt checks the rule fingerprint) and *before*
        // replay, so the replayed updates are repaired incrementally
        // instead of by a full rebuild. A blob this build cannot decode,
        // or one whose rules changed, is dropped: the views stay stale
        // and the first read rebuilds everything.
        if let Some(blob) = maint_state {
            if let Ok(state) = serde_json::from_str::<MaintainedViews>(&blob) {
                stats.maintenance_state_adopted = engine.adopt_maintained_views(state);
            }
        }

        let (log, opened) = Session::open(Arc::clone(&vfs), dir.join(LOG_FILE), sync, snap_lsn)?;
        stats.torn_bytes_truncated = opened.torn_bytes_truncated;
        let mut lsn = snap_lsn;
        for (ordinal, rec) in (1..).zip(&opened.records) {
            if rec.lsn <= lsn {
                // The checkpoint state (or an earlier duplicate) already
                // contains this record — the crash-mid-checkpoint
                // window, where the commit landed but the log had not
                // yet rotated.
                stats.records_skipped += 1;
                continue;
            }
            if rec.lsn > lsn + 1 {
                // The records between `lsn` and this one are nowhere:
                // not in the checkpoint, not in the log. That only
                // happens when a disk dropped the fsync of a checkpoint
                // the log rotation then trusted.
                // Refuse to assemble a gapped history — report it.
                return Err(EngineError::Storage(format!(
                    "recovery gap: log record lsn {} follows state covered to lsn {} — \
                     a checkpoint is missing (unsynced or lost)",
                    rec.lsn, lsn
                )));
            }
            let stmt = parse_statement(&rec.stmt)
                .map_err(|e| EngineError::Storage(format!("corrupt log at line {ordinal}: {e}")))?;
            engine.execute_statement(stmt)?;
            lsn = rec.lsn;
            stats.records_recovered += 1;
        }

        engine.durable = Some(Box::new(Durability {
            vfs,
            opts,
            storage,
            log,
            ckpt_version: 0,
            poisoned: None,
            stats,
        }));
        Ok(engine)
    }

    /// Whether this engine was opened on a directory.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durability options this engine was opened with.
    pub fn durability_options(&self) -> Option<DurabilityOptions> {
        self.durable.as_ref().map(|d| d.opts)
    }

    /// The LSN of the last acknowledged record (or of the checkpoint
    /// state, if no record follows it); 0 in memory.
    pub fn last_lsn(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.log.lsn())
    }

    /// The checkpoint storage this engine was opened with.
    pub fn storage_spec(&self) -> Option<StorageSpec> {
        self.durable.as_ref().map(|d| d.storage.spec())
    }

    /// Durability counters (appends, syncs, recovery work at last open),
    /// with the page file's buffer-pool counters merged in; all zero in
    /// memory.
    pub fn durability_stats(&self) -> DurabilityStats {
        let Some(d) = &self.durable else { return DurabilityStats::default() };
        let mut stats = d.stats;
        stats.pool = Some(d.storage.pool_stats());
        stats.storage_pages = d.storage.file_pages();
        stats
    }

    /// Reads one relation's committed value straight off the page file,
    /// bypassing the in-memory universe (diagnostics; this exercises the
    /// buffer pool).
    pub fn storage_read_relation(
        &mut self,
        db: &str,
        rel: &str,
    ) -> Result<Option<idl_object::Value>, EngineError> {
        let d = self.durable.as_mut().ok_or_else(|| not_durable("reading the page file"))?;
        Ok(d.storage.read_relation(db, rel)?)
    }

    /// I/O counters from the underlying [`Vfs`]; all zero in memory.
    pub fn vfs_stats(&self) -> VfsStats {
        self.durable.as_ref().map_or_else(VfsStats::default, |d| d.vfs.stats())
    }

    /// Whether a log failure has poisoned this engine (see the module
    /// docs).
    pub fn is_poisoned(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.poisoned.is_some())
    }

    /// Number of statements currently in the operation log (diagnostics);
    /// 0 in memory.
    pub fn log_len(&self) -> Result<usize, EngineError> {
        match &self.durable {
            Some(d) => Ok(d.log.len()?),
            None => Ok(0),
        }
    }
}

/// The `E-USAGE` error of a durable-only operation on an in-memory engine.
pub(crate) fn not_durable(what: &str) -> EngineError {
    EngineError::Usage(format!("{what} needs a durable engine (open one with Engine::open)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::Value;
    use idl_storage::crc::crc32c;
    use idl_storage::oplog;
    use idl_storage::vfs::{FaultPlan, SimVfs};
    use std::path::Path;

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idl-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sim_open(vfs: &Arc<SimVfs>, opts: DurabilityOptions) -> Result<Engine, EngineError> {
        let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        Engine::open_with_vfs("/d", v, opts, |_| Ok(()))
    }

    #[test]
    fn log_and_recover() {
        let dir = fresh_dir("basic");
        {
            let mut d = Engine::open(&dir).unwrap();
            d.update("?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)").unwrap();
            d.update("?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=62)").unwrap();
            d.update("?.euter.r-(.date=3/3/85,.stkCode=hp)").unwrap();
            assert_eq!(d.log_len().unwrap(), 3);
            assert_eq!(d.last_lsn(), 3);
            // engine dropped without checkpoint: only the log survives
        }
        let mut d = Engine::open(&dir).unwrap();
        assert!(d.query("?.euter.r(.date=3/4/85,.stkCode=hp)").unwrap().is_true());
        assert!(!d.query("?.euter.r(.date=3/3/85)").unwrap().is_true());
        assert_eq!(d.durability_stats().records_recovered, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_and_durable_engines_share_the_front_doors() {
        let dir = fresh_dir("one-engine");
        for mut e in [Engine::new(), Engine::open(&dir).unwrap()] {
            e.execute(".v.all(.a=A) <- .db.r(.a=A) ;").unwrap();
            assert_eq!(e.update("?.db.r+(.a=1)").unwrap().stats().unwrap().inserted, 1);
            assert!(e.query("?.v.all(.a=1)").unwrap().is_true());
            assert!(!e.is_poisoned());
            assert_eq!(e.log_len().unwrap(), usize::from(e.is_durable()));
            if e.is_durable() {
                assert!(matches!(e.checkpoint().unwrap(), Outcome::Checkpointed { lsn: 1 }));
                assert_eq!(e.execute_sql("DELETE FROM db.r").unwrap_err().code(), "E-USAGE");
            } else {
                assert_eq!(e.checkpoint().unwrap_err().code(), "E-USAGE");
                assert_eq!(e.checkpoint_full().unwrap_err().code(), "E-USAGE");
                assert_eq!(e.durability_stats(), DurabilityStats::default());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_and_recovers() {
        let dir = fresh_dir("checkpoint");
        {
            let mut d = Engine::open(&dir).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            let out = d.checkpoint().unwrap();
            assert!(matches!(out, Outcome::Checkpointed { lsn: 1 }), "{out:?}");
            assert_eq!(d.log_len().unwrap(), 0);
            d.update("?.db.r+(.a=2)").unwrap();
            assert_eq!(d.log_len().unwrap(), 1);
        }
        let mut d = Engine::open(&dir).unwrap();
        let a = d.query("?.db.r(.a=X)").unwrap();
        assert_eq!(a.column("X").len(), 2, "snapshot + log both replayed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pure_queries_and_noops_not_logged() {
        let dir = fresh_dir("noop");
        let mut d = Engine::open(&dir).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        d.update("?.db.r(.a=X)").unwrap(); // pure query
        d.update("?.db.r+(.a=1)").unwrap(); // duplicate: zero mutations
        d.update("?.db.r-(.a=99)").unwrap(); // delete miss: zero mutations
        assert_eq!(d.log_len().unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_log_reported() {
        let dir = fresh_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ops.idl"), oplog::encode_log([(1, "?this is (not idl")])).unwrap();
        let Err(err) = Engine::open(&dir).map(|_| ()) else {
            panic!("corrupt log must be rejected")
        };
        assert!(err.to_string().contains("corrupt log at line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_programs_replay_through_log() {
        // program *calls* are logged in canonical form; reinstalling the
        // programs before recovery replays them correctly
        let dir = fresh_dir("programs");
        {
            let mut d = Engine::open(&dir).unwrap();
            d.execute(".dbU.put(.k=K, .v=V) -> .kv.data+(.k=K, .v=V) ;").unwrap();
            d.update("?.dbU.put(.k=a, .v=1)").unwrap();
            d.update("?.dbU.put(.k=b, .v=2)").unwrap();
        }
        let mut d = Engine::open_with(&dir, |e| {
            e.execute(".dbU.put(.k=K, .v=V) -> .kv.data+(.k=K, .v=V) ;").map(|_| ())
        })
        .unwrap();
        assert_eq!(d.query("?.kv.data(.k=K,.v=V)").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_log_is_framed_with_magic() {
        let dir = fresh_dir("framed");
        let mut d = Engine::open(&dir).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        let bytes = std::fs::read(dir.join("ops.idl")).unwrap();
        assert!(bytes.starts_with(oplog::MAGIC), "fresh logs use the framed format");
        let log = oplog::decode_log(&bytes).unwrap();
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.records[0].lsn, 1);
        assert_eq!(log.records[0].stmt, "?.db.r+(.a = 1)", "canonical surface form logged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_happens_before_ack() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(7)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        let before = vfs.stats().file_syncs;
        d.update("?.db.r+(.a=1)").unwrap();
        assert!(vfs.stats().file_syncs > before, "ack without a log fsync");
        assert_eq!(d.durability_stats().log_syncs, 1);

        // the Never policy skips the fsync (ablation mode)
        let vfs2 = Arc::new(SimVfs::new(FaultPlan::none(8)));
        let mut d2 =
            sim_open(&vfs2, crate::EngineOptions::builder().sync(SyncPolicy::Never).durability())
                .unwrap();
        let before = vfs2.stats().file_syncs;
        d2.update("?.db.r+(.a=1)").unwrap();
        assert_eq!(vfs2.stats().file_syncs, before);
        assert_eq!(d2.durability_stats().log_syncs, 0);
    }

    #[test]
    fn failed_append_poisons_and_reopen_recovers() {
        // ENOSPC on the log append: the update reports failure, the
        // engine poisons, and a reopen sees none of the failed update.
        // First a fault-free probe run to find the op index of the second
        // update's append, then an armed run hitting exactly that op.
        let (after_first_update, after_second_update) = {
            let probe = Arc::new(SimVfs::new(FaultPlan::none(9)));
            let mut p = sim_open(&probe, DurabilityOptions::default()).unwrap();
            p.update("?.db.r+(.a=1)").unwrap();
            let a = probe.op_count();
            p.update("?.db.r+(.a=2)").unwrap();
            (a, probe.op_count())
        };
        // the append is the first op of the second update's log window
        let target = after_first_update + 1;
        assert!(target <= after_second_update);
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(9).with_enospc_at(target)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        let err = d.update("?.db.r+(.a=2)").unwrap_err();
        assert!(err.to_string().contains("log"), "{err}");
        assert!(d.is_poisoned());
        assert!(d.update("?.db.r+(.a=3)").is_err(), "poisoned engine refuses work");
        assert!(d.checkpoint().is_err(), "poisoned engine refuses checkpoints");
        drop(d);
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        let col = d.query("?.db.r(.a=X)").unwrap();
        assert_eq!(col.column("X").len(), 1, "only the acknowledged update survives");
    }

    fn install_view(e: &mut Engine) -> Result<(), EngineError> {
        e.execute(".v.all(.x=X) <- .db.r(.a=X) ;").map(|_| ())
    }

    #[test]
    fn checkpointed_maintenance_state_resumes_maintained_replay() {
        let dir = fresh_dir("maint-ckpt");
        {
            let mut d = Engine::open_with(&dir, install_view).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.query("?.v.all(.x=X)").unwrap(); // first read materialises .v.all
            d.update("?.db.r+(.a=2)").unwrap();
            d.query("?.v.all(.x=X)").unwrap(); // the read repairs the views
            d.checkpoint().unwrap(); // views fresh: state rides the page file
            for a in 3..=10 {
                d.update(&format!("?.db.r+(.a={a})")).unwrap(); // in the fresh log
            }
        }
        let mut d = Engine::open_with(&dir, install_view).unwrap();
        let stats = d.durability_stats();
        assert!(stats.maintenance_state_adopted, "checkpoint state must be adopted");
        assert_eq!(stats.records_recovered, 8);
        assert_eq!(d.maintenance_runs(), 0, "replay reads no view: it repairs nothing");
        assert!(!d.views_fresh_now());
        assert_eq!(d.query("?.v.all(.x=X)").unwrap().column("X").len(), 10);
        assert_eq!(d.maintenance_runs(), 1, "one repair for the tail, not a rebuild");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rolled_back_update_costs_no_rebuild_and_no_full_checkpoint() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(39)));
        let v: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let mut d =
            Engine::open_with_vfs("/d", v, DurabilityOptions::default(), install_view).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        d.query("?.v.all(.x=X)").unwrap();
        d.checkpoint().unwrap(); // full: no base yet
                                 // the first item inserts, the second fails: the request rolls back
        let err = d.update("?.db.r+(.a=2), .db.r+(.a=X)").unwrap_err();
        assert_eq!(err.code(), "E-UNSAFE", "{err}");
        let stats = d.refresh_views_if_stale().unwrap();
        assert_eq!(stats.rule_evals, 0, "{stats:?}");
        assert!(d.views_fresh_now());
        d.checkpoint().unwrap();
        let stats = d.durability_stats();
        assert_eq!((stats.full_checkpoints, stats.delta_checkpoints), (1, 1));
        assert_eq!(d.query("?.v.all(.x=X)").unwrap().column("X").len(), 1);
    }

    #[test]
    fn update_group_coalesces_one_sync_for_all_records() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(11)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        let before = vfs.stats().file_syncs;
        let srcs: Vec<String> = (0..4).map(|i| format!("?.db.r+(.a={i})")).collect();
        let results = d.update_group(&srcs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(vfs.stats().file_syncs, before + 1, "one fsync for the whole group");
        let stats = d.durability_stats();
        assert_eq!(stats.group_commits, 1);
        assert_eq!(stats.group_commit_records, 4);
        assert_eq!(stats.records_appended, 4);
        assert_eq!(stats.log_syncs, 1);
        assert_eq!(d.last_lsn(), 4);
        // mixed group: queries/no-ops don't log, a bad entry doesn't
        // abort its neighbours
        let mixed = vec![
            "?.db.r(.a=X)".to_string(),         // pure query
            "?.db.r+(.a=0)".to_string(),        // duplicate: zero mutations
            ".a(.x=X) <- .b(.x=X)".to_string(), // clause: E-USAGE
            "?.db.r+(.a=9)".to_string(),        // the only logged record
        ];
        let results = d.update_group(&mixed);
        assert!(results[0].is_ok() && results[1].is_ok() && results[3].is_ok());
        assert_eq!(results[2].as_ref().unwrap_err().code(), "E-USAGE");
        assert_eq!(d.durability_stats().group_commit_records, 5);
        assert_eq!(d.last_lsn(), 5);
    }

    #[test]
    fn update_group_runs_one_callers_dependent_writes_in_order() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(43)));
        let v: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let mut d = Engine::open_with_vfs("/d", v, DurabilityOptions::default(), |e| {
            crate::transparency::install_two_level_mapping(e)
        })
        .unwrap();
        // chwab's row for the day, which insStk edits in place
        d.update("?.chwab.r+(.date=3/3/85)").unwrap();
        let group = [
            "?.dbU.insStk(.stk=sun, .date=3/3/85, .price=7)",
            "?.dbU.delStk(.stk=sun, .date=3/3/85)",
        ]
        .map(String::from);
        let results = d.update_group(&group);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        // the delete ran after the insert: no quote is left anywhere
        for q in ["?.euter.r(.stkCode=sun)", "?.ource.sun(.date=D)", "?.dbI.p(.stk=sun)"] {
            assert!(!d.query(q).unwrap().is_true(), "{q}");
        }
        let chwab = d.query("?.chwab.r(.date=3/3/85, .sun=P)").unwrap();
        assert!(chwab.column("P").iter().all(Value::is_null), "{chwab}");
    }

    #[test]
    fn update_group_replays_like_single_updates() {
        let dir = fresh_dir("group-replay");
        {
            let mut d = Engine::open(&dir).unwrap();
            let srcs: Vec<String> = (0..5).map(|i| format!("?.db.r+(.a={i})")).collect();
            assert!(d.update_group(&srcs).iter().all(|r| r.is_ok()));
        }
        let mut d = Engine::open(&dir).unwrap();
        assert_eq!(d.durability_stats().records_recovered, 5);
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_group_sync_unacks_every_member() {
        // probe the op window of a 3-update group's single append+sync
        let srcs: Vec<String> = (0..3).map(|i| format!("?.db.r+(.a={i})")).collect();
        let (before_group, after_group) = {
            let probe = Arc::new(SimVfs::new(FaultPlan::none(12)));
            let mut p = sim_open(&probe, DurabilityOptions::default()).unwrap();
            let a = probe.op_count();
            assert!(p.update_group(&srcs).iter().all(|r| r.is_ok()));
            (a, probe.op_count())
        };
        assert_eq!(after_group - before_group, 2, "group commit is append + sync");
        // ENOSPC the coalesced append (a seeded partial application of
        // the group's bytes lands, then the call fails): every member
        // must be un-acked, and a reopen must see none of them
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(12).with_enospc_at(before_group + 1)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        let results = d.update_group(&srcs);
        assert!(results.iter().all(|r| r.is_err()), "no member acked past a failed sync");
        assert!(d.is_poisoned());
        drop(d);
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        assert!(!d.query("?.db.r(.a=X)").unwrap().is_true(), "unacked group not resurrected");
    }

    /// Every file under `/d` with its bytes, in path order.
    fn dir_image(vfs: &SimVfs) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = vfs.list_dir(Path::new("/d")).unwrap();
        files.sort();
        files.into_iter().map(|p| (p.clone(), vfs.read(&p).unwrap())).collect()
    }

    /// The names of the files under `/d`, in order.
    fn file_names(vfs: &SimVfs) -> Vec<String> {
        let files = dir_image(vfs).into_iter();
        files.map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned()).collect()
    }

    #[test]
    fn checkpoints_edit_the_page_file_in_place_unless_asked_for_full() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(40)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        for i in 0..3 {
            d.update(&format!("?.db.r+(.a={i})")).unwrap();
            d.checkpoint().unwrap(); // full (no base yet), then in place
        }
        d.checkpoint_full().unwrap();
        let stats = d.durability_stats();
        assert_eq!((stats.full_checkpoints, stats.delta_checkpoints), (2, 2));
        drop(d);
        assert_eq!(file_names(&vfs), ["ops.idl", "pages.idb"]);
        let log = vfs.read(Path::new("/d/ops.idl")).unwrap();
        assert_eq!(log, oplog::header_bytes(), "a rotated log is the format-4 header alone");
        // the Full policy never edits in place
        let opts = DurabilityOptions { checkpoint: CheckpointPolicy::Full, ..Default::default() };
        let mut d = sim_open(&vfs, opts).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
        d.update("?.db.r+(.a=9)").unwrap();
        d.checkpoint().unwrap();
        let stats = d.durability_stats();
        assert_eq!((stats.full_checkpoints, stats.delta_checkpoints), (1, 0));
    }

    #[test]
    fn a_log_that_skips_lsns_reports_a_recovery_gap() {
        // A lying disk can lose a checkpoint the log rotation already
        // trusted, leaving a log that starts past what the page file
        // covers. Recovery must refuse to assemble the gapped history,
        // not silently serve a non-prefix state.
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(37)));
        vfs.create_dir_all(Path::new("/d")).unwrap();
        vfs.write(Path::new("/d/ops.idl"), &oplog::encode_log([(2, "?.db.r+(.a=2)")])).unwrap();
        let Err(err) = sim_open(&vfs, DurabilityOptions::default()) else {
            panic!("gapped history must not open")
        };
        assert!(err.to_string().contains("recovery gap"), "{err}");
    }

    /// A one-record log in framing format 2 (no flags byte) or 3, the
    /// formats before this build's.
    fn old_framed_log(version: u32) -> Vec<u8> {
        let mut body = 1u64.to_le_bytes().to_vec();
        body.extend_from_slice(if version == 2 { b"" } else { b"\0" });
        body.extend_from_slice(b"?.db.r+(.a=1)");
        let mut bytes = oplog::MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32c(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Every layout an older build left is refused before any file
    /// changes, a stale temp file included: the refusal comes before the
    /// sweep.
    #[test]
    fn a_snapshot_beside_a_page_file_is_refused_untouched() {
        let json = serde_json::to_string(&Value::empty_tuple()).unwrap();
        let wrapper = format!(r#"{{"format":2,"lsn":0,"universe":{json},"maintenance":null}}"#);
        // an IDLSNAP3 container: version 3, gen 1, lsn 0, no maintenance
        // blob, an empty name table, the empty tuple
        let body = [3, 1, 0, 0, 0, 7, 0];
        let snap3 = [&b"IDLSNAP3"[..], &crc32c(&body).to_le_bytes(), &body].concat();
        let rows: [(&str, &[u8], bool); 9] = [
            ("universe.json", json.as_bytes(), false),
            ("universe.json", wrapper.as_bytes(), false),
            ("universe.json", &snap3, false),
            ("universe.json", b"{}", true),
            ("universe.delta.1", b"IDLDELT3", false),
            ("pages.idb.migrating", &[0; 64], false),
            ("ops.idl", b"?.db.r+(.a=1)\n", false),
            ("ops.idl", &old_framed_log(2), false),
            ("ops.idl", &old_framed_log(3), false),
        ];
        for (row, (name, bytes, beside_a_page_file)) in rows.into_iter().enumerate() {
            let vfs = Arc::new(SimVfs::new(FaultPlan::none(41)));
            vfs.create_dir_all(Path::new("/d")).unwrap();
            if beside_a_page_file {
                let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
                d.update("?.db.r+(.a=1)").unwrap();
                d.checkpoint().unwrap();
                d.update("?.db.r+(.a=2)").unwrap();
            }
            vfs.write(&Path::new("/d").join(name), bytes).unwrap();
            vfs.write(Path::new("/d/ops.idl.1.0.tmp"), b"torn").unwrap();
            let before = dir_image(&vfs);
            let Err(err) = sim_open(&vfs, DurabilityOptions::default()) else {
                panic!("row {row}: a directory holding {name} opened")
            };
            let msg = err.to_string();
            assert_eq!(err.code(), "E-STORAGE", "row {row}: {msg}");
            assert!(msg.contains(&format!("/d/{name}:")), "row {row}: {msg}");
            assert!(msg.contains("4a1333f"), "row {row}: {msg}");
            assert_eq!(dir_image(&vfs), before, "row {row}: a refused open changed a file");
        }
    }

    #[test]
    fn unscoped_universe_changes_force_a_full_checkpoint() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(36)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        d.checkpoint().unwrap();
        // an update whose database position is a variable records
        // ChangeScope::Universe in the store journal
        assert_eq!(d.update("?.D.r(.a=1), .D.r+(.a=3)").unwrap().stats().unwrap().inserted, 1);
        d.checkpoint().unwrap();
        let stats = d.durability_stats();
        assert_eq!(stats.full_checkpoints, 2, "universe scope cannot ride a delta");
        assert_eq!(stats.delta_checkpoints, 0);
    }

    #[test]
    fn maintenance_state_rides_the_newest_commit() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(38)));
        let open = |vfs: &Arc<SimVfs>| {
            let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
            Engine::open_with_vfs("/d", v, DurabilityOptions::default(), install_view)
        };
        {
            let mut d = open(&vfs).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap(); // full, views stale: no blob
            d.query("?.v.all(.x=X)").unwrap(); // materialise
            d.update("?.db.r+(.a=2)").unwrap();
            d.query("?.v.all(.x=X)").unwrap(); // repair
            d.checkpoint().unwrap(); // in place, carries the blob
            assert_eq!(d.durability_stats().delta_checkpoints, 1);
        }
        let d = open(&vfs).unwrap();
        assert!(
            d.durability_stats().maintenance_state_adopted,
            "state from the newest commit adopted"
        );
    }

    #[test]
    fn execute_logs_requests_and_installs_rules() {
        let dir = fresh_dir("script");
        {
            let mut d = Engine::open(&dir).unwrap();
            let outs = d
                .execute(
                    ".v.all(.x=X) <- .db.r(.a=X) ;\n?.db.r+(.a=1) ;\n?.db.r+(.a=2) ;\n?.v.all(.x=X)",
                )
                .unwrap();
            assert_eq!(outs.len(), 4);
            assert_eq!(d.log_len().unwrap(), 2, "only the mutating requests are logged");
        }
        let mut d = Engine::open(&dir).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
