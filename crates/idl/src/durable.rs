//! Durability: snapshot + operation log, routed through a [`Vfs`].
//!
//! The storage layer persists point-in-time JSON snapshots
//! ([`idl_storage::persist`]); this module adds the other half of the
//! classic recipe — an **append-only operation log**. Every successful
//! *mutating* request is appended in canonical IDL surface syntax, and
//! recovery is snapshot + replay:
//!
//! ```no_run
//! use idl::durable::DurableEngine;
//! let mut d = DurableEngine::open("./stocks")?;
//! d.execute(idl::transparency::standard_update_programs())?;       // code: in-memory only
//! d.update("?.dbU.insStk(.stk=hp, .date=3/3/85, .price=50)")?;  // logged
//! d.checkpoint()?;                                // snapshot + rotate log
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
//! * **sync before ack** — a mutating request returns `Ok` only after its
//!   log record is appended *and* fsynced; a crash at any point loses no
//!   acknowledged update;
//! * **atomic records** — the log uses length-prefixed, CRC-32C-checksummed
//!   framing ([`idl_storage::oplog`]); recovery truncates a torn tail
//!   instead of failing or replaying garbage, so an unacknowledged update
//!   is atomically absent;
//! * **atomic snapshots** — checkpoints write through the
//!   write→fsync(file)→rename→fsync(dir) discipline, and the snapshot
//!   records the log LSN it covers, so a crash anywhere inside
//!   [`DurableEngine::checkpoint`] replays each record at most once;
//! * **fail-stop on log errors** — if an append or sync fails (`ENOSPC`,
//!   I/O error), the engine truncates the partial record and **poisons**
//!   itself: the in-memory state has a mutation the log could not
//!   acknowledge, so further durable work is refused until a fresh
//!   [`DurableEngine::open`] rebuilds state from disk.
//!
//! Logs written by older builds in the line-per-statement format are
//! detected and migrated to the framed format on open (atomically, via a
//! temp file and rename).
//!
//! Rules and update programs are *code*: they are not logged, and the
//! application reinstalls them after `open` (the same policy as snapshot
//! loading; see `tests/integration_pipeline.rs`).

use crate::backend::{Backend, EngineSnapshot};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::outcome::Outcome;
use idl_lang::{parse_program, parse_statement, Statement};
use idl_object::Name;
use idl_storage::codec::{DeltaEntry, SnapshotCodec};
use idl_storage::engine::{open_storage, CommitKind, CommitSeal, StorageEngine, StorageSpec};
use idl_storage::journal::ChangeScope;
use idl_storage::oplog::{self, DurabilityStats, LogFormat};
use idl_storage::session::Session;
use idl_storage::store::Store;
use idl_storage::vfs::{RealVfs, Vfs, VfsStats};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When the operation log is fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncPolicy {
    /// Fsync the log before acknowledging every mutating request, and
    /// fsync through the snapshot rename protocol. The crash-safe default.
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

/// How [`DurableEngine::checkpoint`] decides between a full snapshot and
/// an incremental delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointPolicy {
    /// Write a delta checkpoint (only the relations/databases dirtied
    /// since the last checkpoint) while the chain stays under `max_chain`;
    /// compact to a full snapshot when it would grow past that, when the
    /// universe was mutated unscoped, or when the base is not binary.
    Auto {
        /// Chain-length cap before the next checkpoint compacts.
        max_chain: usize,
    },
    /// Every checkpoint writes a full snapshot (and clears any chain).
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

/// Durability knobs for [`DurableEngine::open_with_vfs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DurabilityOptions {
    /// Fsync policy for the log and snapshots.
    pub sync: SyncPolicy,
    /// Preferred on-disk log format for fresh logs (an existing framed
    /// log is never downgraded; an existing legacy log is migrated when
    /// this is [`LogFormat::Framed`]).
    pub format: LogFormat,
    /// Snapshot encoding checkpoints are written in. Binary by default;
    /// an existing JSON directory is migrated to binary on open. Opening
    /// with `Json` never rewrites a binary base on open — the next
    /// checkpoint simply writes JSON (and clears any delta chain).
    /// Ignored by the paged backend, which always writes page formats.
    pub codec: SnapshotCodec,
    /// Full-vs-delta checkpoint policy (deltas need the binary codec).
    pub checkpoint: CheckpointPolicy,
    /// Storage backend checkpoints commit through: the in-memory
    /// snapshot+delta-chain representation ([`StorageSpec::Mem`], the
    /// default) or the paged file with a buffer pool
    /// ([`StorageSpec::Paged`]).
    pub storage: StorageSpec,
}

impl Default for DurabilityOptions {
    /// Fsync always, framed log, binary snapshots, auto delta
    /// checkpoints, mem storage.
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            format: LogFormat::Framed,
            codec: SnapshotCodec::Binary,
            checkpoint: CheckpointPolicy::default(),
            storage: StorageSpec::Mem,
        }
    }
}

impl DurabilityOptions {
    /// A builder seeded from [`DurabilityOptions::default`].
    pub fn builder() -> DurabilityOptionsBuilder {
        DurabilityOptionsBuilder { opts: DurabilityOptions::default() }
    }
}

/// Fluent construction for [`DurabilityOptions`]:
/// `DurabilityOptions::builder().storage(StorageSpec::paged()).build()`.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptionsBuilder {
    opts: DurabilityOptions,
}

impl DurabilityOptionsBuilder {
    /// Sets the fsync policy.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.opts.sync = sync;
        self
    }

    /// Sets the preferred log format for fresh logs.
    pub fn format(mut self, format: LogFormat) -> Self {
        self.opts.format = format;
        self
    }

    /// Sets the snapshot codec (mem backend only).
    pub fn codec(mut self, codec: SnapshotCodec) -> Self {
        self.opts.codec = codec;
        self
    }

    /// Sets the full-vs-delta checkpoint policy.
    pub fn checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.opts.checkpoint = checkpoint;
        self
    }

    /// Sets the storage backend.
    pub fn storage(mut self, storage: StorageSpec) -> Self {
        self.opts.storage = storage;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DurabilityOptions {
        self.opts
    }
}

fn storage_err(ctx: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::Storage(format!("{ctx}: {e}"))
}

/// An [`Engine`] wrapped with snapshot + operation-log durability rooted
/// at a directory, with all I/O routed through a [`Vfs`]. Checkpoints
/// commit through a pluggable [`StorageEngine`] (snapshot+delta files or
/// a paged file, per [`DurabilityOptions::storage`]); log appends go
/// through a [`Session`].
pub struct DurableEngine {
    engine: Engine,
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    opts: DurabilityOptions,
    /// Checkpoint representation (mem or paged; see [`StorageSpec`]).
    storage: Box<dyn StorageEngine>,
    /// The operation log: append/sync/rotate/truncate, LSN numbering.
    log: Session,
    /// LSN covered by the newest checkpoint artifact.
    ckpt_lsn: u64,
    /// Store journal version covered by the newest checkpoint artifact;
    /// `changes_since(ckpt_version)` is exactly what the next delta must
    /// record. 0 at open: the artifacts on disk predate every in-process
    /// mutation (setup and replay included), and the store journal is
    /// never truncated outside its own tests.
    ckpt_version: u64,
    poisoned: Option<String>,
    stats: DurabilityStats,
}

impl DurableEngine {
    #[cfg(test)]
    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("universe.json")
    }

    fn log_path_in(dir: &Path) -> PathBuf {
        dir.join("ops.idl")
    }

    fn codec_hint(snapshot_codec: SnapshotCodec) -> u32 {
        match snapshot_codec {
            SnapshotCodec::Json => oplog::CODEC_HINT_JSON,
            SnapshotCodec::Binary => oplog::CODEC_HINT_BINARY,
        }
    }

    /// Opens (or creates) a durable engine at `dir` on the real file
    /// system: loads the snapshot if present and replays the operation
    /// log.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, EngineError> {
        Self::open_with(dir, |_| Ok(()))
    }

    /// Like [`DurableEngine::open`], running `setup` (typically rule and
    /// update-program installation) after the snapshot loads but *before*
    /// the log replays — logged program calls then resolve correctly.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        setup: impl FnOnce(&mut Engine) -> Result<(), EngineError>,
    ) -> Result<Self, EngineError> {
        Self::open_with_vfs(dir, Arc::new(RealVfs::new()), DurabilityOptions::default(), setup)
    }

    /// The fully general open: explicit [`Vfs`] (real or simulated) and
    /// [`DurabilityOptions`]. Recovery order: the storage backend
    /// recovers its committed universe (sweeping stale temp files and
    /// replaying/migrating its own artifacts), `setup` runs, then the
    /// log session opens and the tail replays (skipping records the
    /// recovered state already covers, truncating any torn tail,
    /// migrating a legacy line-format log to framed when asked).
    ///
    /// A directory whose checkpoint belongs to the other storage backend
    /// is refused before anything is touched: opening it would start
    /// from an empty base and silently drop the checkpointed data.
    pub fn open_with_vfs(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        opts: DurabilityOptions,
        setup: impl FnOnce(&mut Engine) -> Result<(), EngineError>,
    ) -> Result<Self, EngineError> {
        let dir = dir.into();
        Self::refuse_foreign_layout(vfs.as_ref(), &dir, opts.storage)?;
        let sync = opts.sync == SyncPolicy::Always;
        let mut stats = DurabilityStats::default();
        vfs.create_dir_all(&dir)
            .map_err(|e| storage_err(&format!("create {}", dir.display()), e))?;

        stats.codec = opts.codec;
        let mut storage = open_storage(opts.storage, Arc::clone(&vfs), &dir, opts.codec, sync);
        let recovered = storage.recover()?;
        stats.stale_temps_removed = recovered.stale_temps_removed;
        stats.chain_len = recovered.chain_len;
        stats.migrated_snapshot = recovered.migrated_snapshot;
        stats.snapshot_bytes_written += recovered.migration_bytes;
        let snap_lsn = recovered.lsn;
        let maint_state = recovered.maintenance;
        let mut engine = match recovered.universe {
            Some(universe) => Engine::from_store(Store::from_universe(universe)?),
            None => Engine::new(),
        };
        setup(&mut engine)?;
        // Adopt persisted maintenance state *after* setup installed the
        // rules (the adopt checks the rule fingerprint) and *before*
        // replay, so replayed updates maintain incrementally instead of
        // silently falling back to a full rebuild. A blob this build
        // cannot decode, or one whose rules changed, is dropped: the
        // views stay stale and the refresh path recomputes everything.
        if let Some(blob) = maint_state {
            if let Ok(state) = serde_json::from_str::<idl_eval::MaintainedViews>(&blob) {
                stats.maintenance_state_adopted = engine.adopt_maintained_views(state);
            }
        }

        let (log, opened) = Session::open(
            Arc::clone(&vfs),
            Self::log_path_in(&dir),
            opts.format,
            Self::codec_hint(opts.codec),
            sync,
            snap_lsn,
        )?;
        stats.migrated_legacy = opened.migrated_legacy;
        stats.torn_bytes_truncated = opened.torn_bytes_truncated;
        let mut lsn = snap_lsn;
        for rec in &opened.records {
            if rec.lsn <= lsn {
                // The checkpoint state (or an earlier duplicate) already
                // contains this record — the crash-mid-checkpoint
                // window, where the artifact committed but the log had
                // not yet rotated.
                stats.records_skipped += 1;
                continue;
            }
            if rec.lsn > lsn + 1 {
                // The records between `lsn` and this one are nowhere:
                // not in a checkpoint artifact, not in the log. That
                // only happens when a disk dropped the fsync of a
                // checkpoint artifact the log rotation then trusted.
                // Refuse to assemble a gapped history — report it.
                return Err(EngineError::Storage(format!(
                    "recovery gap: log record lsn {} follows state covered to lsn {} — \
                     a checkpoint artifact is missing (unsynced or lost)",
                    rec.lsn, lsn
                )));
            }
            let stmt = parse_statement(&rec.stmt).map_err(|e| {
                EngineError::Storage(format!("corrupt log at line {}: {e}", rec.line))
            })?;
            let runs_before = engine.maintenance_runs();
            engine.execute_statement(stmt)?;
            if rec.flags & oplog::FLAG_MAINTENANCE != 0 {
                stats.maintenance_records_replayed += 1;
                if engine.maintenance_runs() == runs_before {
                    // The original run maintained this update but the
                    // replay could not — surface the rebuild instead
                    // of hiding it.
                    stats.maintenance_fallbacks += 1;
                }
            }
            lsn = rec.lsn;
            stats.records_recovered += 1;
        }

        Ok(DurableEngine {
            engine,
            dir,
            vfs,
            opts,
            storage,
            log,
            ckpt_lsn: snap_lsn,
            ckpt_version: 0,
            poisoned: None,
            stats,
        })
    }

    /// Errors when `dir` holds the other backend's checkpoint: a mem
    /// snapshot with no page file under `Paged`, or a page file under
    /// `Mem`.
    fn refuse_foreign_layout(
        vfs: &dyn Vfs,
        dir: &Path,
        spec: StorageSpec,
    ) -> Result<(), EngineError> {
        let snapshot = vfs.exists(&dir.join("universe.json"));
        let pages = vfs.exists(&dir.join("pages.idb"));
        let found = match spec {
            StorageSpec::Paged { .. } if snapshot && !pages => "mem (universe.json)",
            StorageSpec::Mem if pages => "paged (pages.idb)",
            _ => return Ok(()),
        };
        Err(EngineError::Storage(format!(
            "{} holds a {found} checkpoint; refusing to open it with {spec} storage",
            dir.display()
        )))
    }

    /// The durability directory this engine is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this engine was opened with.
    pub fn options(&self) -> DurabilityOptions {
        self.opts
    }

    /// The LSN of the last acknowledged record (or of the checkpoint
    /// state, if no record follows it).
    pub fn last_lsn(&self) -> u64 {
        self.log.lsn()
    }

    /// The storage backend this engine commits checkpoints through.
    pub fn storage_spec(&self) -> StorageSpec {
        self.storage.spec()
    }

    /// Durability counters (appends, syncs, recovery work at last open),
    /// with the storage backend's buffer-pool counters merged in.
    pub fn durability_stats(&self) -> DurabilityStats {
        let mut stats = self.stats;
        stats.pool = self.storage.pool_stats();
        stats.storage_pages = self.storage.file_pages();
        stats
    }

    /// Reads one relation's committed value straight off the storage
    /// backend, bypassing the in-memory engine (diagnostics; for the
    /// paged backend this exercises the buffer pool).
    pub fn storage_read_relation(
        &mut self,
        db: &str,
        rel: &str,
    ) -> Result<Option<idl_object::Value>, EngineError> {
        Ok(self.storage.read_relation(db, rel)?)
    }

    /// I/O counters from the underlying [`Vfs`].
    pub fn vfs_stats(&self) -> VfsStats {
        self.vfs.stats()
    }

    /// Whether a log failure has poisoned this engine (see module docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn check_poisoned(&self) -> Result<(), EngineError> {
        match &self.poisoned {
            Some(why) => Err(EngineError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// Truncates a partial append so future readers see the last
    /// acknowledged prefix, then refuses further durable work: the
    /// in-memory engine holds a mutation the log could not acknowledge.
    fn repair_and_poison(&mut self, why: String) {
        self.log.repair_truncate();
        self.poisoned = Some(why);
    }

    /// Appends one record and — under [`SyncPolicy::Always`] — fsyncs it
    /// *before* the caller acknowledges the mutation. `flags` tags the
    /// record (legacy line logs cannot carry them and drop the tag).
    fn log_record(&mut self, canonical: &str, flags: u8) -> Result<(), EngineError> {
        match self.log.append(flags, canonical) {
            Ok(bytes) => {
                if self.opts.sync == SyncPolicy::Always {
                    self.stats.log_syncs += 1;
                }
                self.stats.records_appended += 1;
                self.stats.bytes_appended += bytes;
                Ok(())
            }
            Err(e) => {
                let why = e.to_string();
                self.repair_and_poison(why.clone());
                Err(EngineError::Storage(why))
            }
        }
    }

    /// Executes one parsed statement durably. Requests append (and sync)
    /// their canonical form when they mutate, *before* the outcome is
    /// returned; rules and program clauses install in memory only
    /// (reinstall them via `setup` at the next open).
    pub fn apply(&mut self, stmt: Statement) -> Result<Outcome, EngineError> {
        self.check_poisoned()?;
        match stmt {
            Statement::Request(r) => {
                let canonical = r.to_string();
                let runs_before = self.engine.maintenance_runs();
                let outcome = self.engine.execute_statement(Statement::Request(r))?;
                let mutated =
                    matches!(&outcome, Outcome::Answers { stats, .. } if stats.total() > 0);
                if mutated {
                    // Tag updates whose views were maintained in the same
                    // transaction, so replay can detect a silent
                    // fall-back to full rebuild.
                    let maintained = self.engine.maintenance_runs() > runs_before;
                    let flags = if maintained { oplog::FLAG_MAINTENANCE } else { 0 };
                    self.log_record(&canonical, flags)?;
                    if maintained {
                        self.stats.maintenance_records_appended += 1;
                    }
                }
                Ok(outcome)
            }
            other => self.engine.execute_statement(other),
        }
    }

    /// Executes a whole program (script) durably, statement by statement,
    /// via [`DurableEngine::apply`].
    pub fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        self.check_poisoned()?;
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.apply(stmt)?);
        }
        Ok(out)
    }

    /// Executes one request statement durably: on success *with mutations*
    /// the canonical form is appended and synced to the operation log
    /// before the outcome is reported.
    pub fn update(&mut self, src: &str) -> Result<Outcome, EngineError> {
        self.check_poisoned()?;
        let stmt = parse_statement(src)?;
        match stmt {
            Statement::Request(_) => self.apply(stmt),
            _ => Err(EngineError::Usage(
                "durable update takes a request; install rules/programs via open_with's setup callback"
                    .into(),
            )),
        }
    }

    /// Executes a batch of independent single-request updates with **one**
    /// coalesced log append and **one** fsync covering every mutation in
    /// the group (group commit). Results are positional; a failing entry
    /// never aborts the rest, and no entry is acknowledged before the
    /// whole group is durable. If the append or sync fails, every
    /// mutating entry is un-acknowledged (its `Ok` becomes the durability
    /// error), the partial append is truncated back to the last synced
    /// prefix, and the engine poisons — the single-update fail-stop
    /// discipline applied to the group as a unit. Crash-wise the log can
    /// only hold an in-order *prefix* of the group's records (framed
    /// records land sequentially and recovery truncates the torn tail),
    /// so a crash inside the window loses only unacknowledged updates.
    pub fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        if let Some(why) = &self.poisoned {
            let why = why.clone();
            return srcs.iter().map(|_| Err(EngineError::Poisoned(why.clone()))).collect();
        }
        let mut results: Vec<Result<Outcome, EngineError>> = Vec::with_capacity(srcs.len());
        // (result index, flags, canonical text, maintained?) per mutating success
        let mut pending: Vec<(usize, u8, String, bool)> = Vec::new();
        for (i, src) in srcs.iter().enumerate() {
            let req = match parse_statement(src) {
                Ok(Statement::Request(r)) => r,
                Ok(_) => {
                    results.push(Err(EngineError::Usage(
                        "durable update takes a request; install rules/programs via open_with's setup callback"
                            .into(),
                    )));
                    continue;
                }
                Err(e) => {
                    results.push(Err(e.into()));
                    continue;
                }
            };
            let canonical = req.to_string();
            let runs_before = self.engine.maintenance_runs();
            match self.engine.execute_statement(Statement::Request(req)) {
                Ok(outcome) => {
                    let mutated =
                        matches!(&outcome, Outcome::Answers { stats, .. } if stats.total() > 0);
                    if mutated {
                        let maintained = self.engine.maintenance_runs() > runs_before;
                        let flags = if maintained { oplog::FLAG_MAINTENANCE } else { 0 };
                        pending.push((i, flags, canonical, maintained));
                    }
                    results.push(Ok(outcome));
                }
                Err(e) => results.push(Err(e)),
            }
        }
        if pending.is_empty() {
            return results;
        }
        let records: Vec<(u8, String)> =
            pending.iter().map(|(_, flags, stmt, _)| (*flags, stmt.clone())).collect();
        match self.log.append_group(&records) {
            Ok(bytes) => {
                if self.opts.sync == SyncPolicy::Always {
                    self.stats.log_syncs += 1;
                }
                self.stats.records_appended += pending.len() as u64;
                self.stats.bytes_appended += bytes;
                self.stats.group_commits += 1;
                self.stats.group_commit_records += pending.len() as u64;
                self.stats.maintenance_records_appended +=
                    pending.iter().filter(|(_, _, _, m)| *m).count() as u64;
                results
            }
            Err(e) => {
                let why = e.to_string();
                self.repair_and_poison(why.clone());
                for (i, _, _, _) in &pending {
                    results[*i] = Err(EngineError::Storage(why.clone()));
                }
                results
            }
        }
    }

    /// Collects the post-images (or tombstones) of every database/relation
    /// dirtied since the last checkpoint artifact, from the store's change
    /// journal. `None` means a delta cannot represent the changes (an
    /// unscoped universe mutation, e.g. a rollback) and the checkpoint
    /// must be full.
    fn delta_entries(&self) -> Option<Vec<DeltaEntry>> {
        let store = self.engine.store();
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

    /// Checkpoints under the configured [`CheckpointPolicy`]: an
    /// incremental delta (only the slots dirtied since the last artifact)
    /// when the policy, codec, and chain length allow; a full snapshot
    /// otherwise. Either way the log rotates empty afterwards — recovery
    /// is base + delta chain + log tail, each step individually atomic,
    /// and replay skips records the artifacts cover, so a crash anywhere
    /// in between is safe.
    pub fn checkpoint(&mut self) -> Result<Outcome, EngineError> {
        self.do_checkpoint(false)
    }

    /// Forces a full-snapshot checkpoint, compacting any delta chain
    /// (the `--checkpoint full` escape hatch).
    pub fn checkpoint_full(&mut self) -> Result<Outcome, EngineError> {
        self.do_checkpoint(true)
    }

    fn do_checkpoint(&mut self, force_full: bool) -> Result<Outcome, EngineError> {
        self.check_poisoned()?;
        let sync = self.opts.sync == SyncPolicy::Always;
        // Persist the maintenance state only when the views actually
        // match the universe being snapshotted — adopting stale support
        // counts at the next open would claim freshness the data lacks.
        // The newest artifact wins on recovery, so the blob (or its
        // absence) rides every checkpoint.
        let state = if self.engine.views_fresh_now() {
            serde_json::to_string(self.engine.maintained_views()).ok()
        } else {
            None
        };
        let store_version = self.engine.store().version();
        let max_chain = match self.opts.checkpoint {
            CheckpointPolicy::Auto { max_chain } => max_chain,
            CheckpointPolicy::Full => 0,
        };
        let seal = CommitSeal { lsn: self.log.lsn(), maintenance: state, sync };
        let delta_ok = !force_full && self.storage.can_delta(max_chain);
        // `delta_entries` is None when the journal recorded an unscoped
        // universe mutation — only a full commit can represent that.
        let info = match if delta_ok { self.delta_entries() } else { None } {
            // A failed delta aborts without touching the committed
            // state, and a full commit can represent anything a delta
            // can — fall back instead of failing the checkpoint (and
            // poisoning the engine) on a delta-only limitation.
            Some(entries) => match self.storage.apply_delta(&entries, &seal) {
                Ok(info) => info,
                Err(_) => self.storage.apply_full(self.engine.store(), &seal)?,
            },
            None => self.storage.apply_full(self.engine.store(), &seal)?,
        };
        match info.kind {
            CommitKind::Delta => self.stats.delta_checkpoints += 1,
            CommitKind::Full => self.stats.full_checkpoints += 1,
        }
        self.stats.snapshot_bytes_written += info.bytes_written;
        self.stats.chain_len = info.chain_len;
        self.ckpt_lsn = seal.lsn;
        self.ckpt_version = store_version;
        self.log.rotate(Self::codec_hint(self.opts.codec))?;
        Ok(Outcome::Checkpointed { lsn: seal.lsn })
    }

    /// Number of statements currently in the operation log (diagnostics).
    pub fn log_len(&self) -> Result<usize, EngineError> {
        Ok(self.log.len()?)
    }
}

impl Backend for DurableEngine {
    fn execute(&mut self, src: &str) -> Result<Vec<Outcome>, EngineError> {
        DurableEngine::execute(self, src)
    }

    // Pure queries never touch the log, but a poisoned engine refuses
    // them too: its in-memory state holds a mutation the log could not
    // acknowledge, so answers would reflect un-durable data.
    fn query(&mut self, src: &str) -> Result<idl_eval::AnswerSet, EngineError> {
        self.check_poisoned()?;
        self.engine.query(src)
    }

    fn update(&mut self, src: &str) -> Result<Outcome, EngineError> {
        DurableEngine::update(self, src)
    }

    fn update_group(&mut self, srcs: &[String]) -> Vec<Result<Outcome, EngineError>> {
        DurableEngine::update_group(self, srcs)
    }

    fn execute_sql(&mut self, _src: &str) -> Result<Outcome, EngineError> {
        Err(EngineError::Usage(
            "SQL-sugar mutations would bypass the operation log; not available on a durable backend"
                .into(),
        ))
    }

    fn refresh_views(&mut self) -> Result<idl_eval::rules::FixpointStats, EngineError> {
        // Derived state is re-derivable code output, never logged.
        self.engine.refresh_views()
    }

    fn stats(&self) -> &idl_eval::rules::FixpointStats {
        self.engine.last_fixpoint_stats()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, EngineError> {
        self.check_poisoned()?;
        self.engine.refresh_views_if_stale()?;
        EngineSnapshot::of(&self.engine)
    }

    fn options(&self) -> crate::engine::EngineOptions {
        self.engine.options()
    }

    fn set_options(&mut self, options: crate::engine::EngineOptions) {
        self.engine.set_options(options)
    }

    fn checkpoint(&mut self) -> Result<Outcome, EngineError> {
        DurableEngine::checkpoint(self)
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn durability_stats(&self) -> Option<DurabilityStats> {
        Some(DurableEngine::durability_stats(self))
    }

    fn storage_spec(&self) -> Option<StorageSpec> {
        Some(DurableEngine::storage_spec(self))
    }

    fn is_poisoned(&self) -> bool {
        DurableEngine::is_poisoned(self)
    }

    fn analyze(&self, src: &str) -> Result<Vec<idl_eval::analyze::BindingIssue>, EngineError> {
        self.engine.analyze(src)
    }

    fn explain(&self, src: &str) -> Result<String, EngineError> {
        self.engine.explain(src)
    }

    fn universe_json(&self) -> Result<String, EngineError> {
        self.engine.universe_json()
    }

    fn save_snapshot(&self, path: &Path) -> Result<(), EngineError> {
        self.engine.save_snapshot(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_storage::persist;
    use idl_storage::vfs::{FaultPlan, SimVfs};

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idl-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sim_open(vfs: &Arc<SimVfs>, opts: DurabilityOptions) -> Result<DurableEngine, EngineError> {
        let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        DurableEngine::open_with_vfs("/d", v, opts, |_| Ok(()))
    }

    #[test]
    fn log_and_recover() {
        let dir = fresh_dir("basic");
        {
            let mut d = DurableEngine::open(&dir).unwrap();
            d.update("?.euter.r+(.date=3/3/85,.stkCode=hp,.clsPrice=50)").unwrap();
            d.update("?.euter.r+(.date=3/4/85,.stkCode=hp,.clsPrice=62)").unwrap();
            d.update("?.euter.r-(.date=3/3/85,.stkCode=hp)").unwrap();
            assert_eq!(d.log_len().unwrap(), 3);
            assert_eq!(d.last_lsn(), 3);
            // engine dropped without checkpoint: only the log survives
        }
        let mut d = DurableEngine::open(&dir).unwrap();
        assert!(d.query("?.euter.r(.date=3/4/85,.stkCode=hp)").unwrap().is_true());
        assert!(!d.query("?.euter.r(.date=3/3/85)").unwrap().is_true());
        assert_eq!(d.durability_stats().records_recovered, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_and_recovers() {
        let dir = fresh_dir("checkpoint");
        {
            let mut d = DurableEngine::open(&dir).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            let out = d.checkpoint().unwrap();
            assert!(matches!(out, Outcome::Checkpointed { lsn: 1 }), "{out:?}");
            assert_eq!(d.log_len().unwrap(), 0);
            d.update("?.db.r+(.a=2)").unwrap();
            assert_eq!(d.log_len().unwrap(), 1);
        }
        let mut d = DurableEngine::open(&dir).unwrap();
        let a = d.query("?.db.r(.a=X)").unwrap();
        assert_eq!(a.column("X").len(), 2, "snapshot + log both replayed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pure_queries_and_noops_not_logged() {
        let dir = fresh_dir("noop");
        let mut d = DurableEngine::open(&dir).unwrap();
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
        std::fs::write(dir.join("ops.idl"), "?this is (not idl\n").unwrap();
        let Err(err) = DurableEngine::open(&dir).map(|_| ()) else {
            panic!("corrupt log must be rejected")
        };
        assert!(err.to_string().contains("corrupt log at line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clauses_rejected_from_durable_path() {
        let dir = fresh_dir("clauses");
        let mut d = DurableEngine::open(&dir).unwrap();
        assert!(d.update(".a.b(.x=X) <- .c.d(.x=X)").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn update_programs_replay_through_log() {
        // program *calls* are logged in canonical form; reinstalling the
        // programs before recovery replays them correctly
        let dir = fresh_dir("programs");
        {
            let mut d = DurableEngine::open(&dir).unwrap();
            d.execute(".dbU.put(.k=K, .v=V) -> .kv.data+(.k=K, .v=V) ;").unwrap();
            d.update("?.dbU.put(.k=a, .v=1)").unwrap();
            d.update("?.dbU.put(.k=b, .v=2)").unwrap();
        }
        let mut d = DurableEngine::open_with(&dir, |e| {
            e.execute(".dbU.put(.k=K, .v=V) -> .kv.data+(.k=K, .v=V) ;").map(|_| ())
        })
        .unwrap();
        assert_eq!(d.query("?.kv.data(.k=K,.v=V)").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_log_is_framed_with_magic() {
        let dir = fresh_dir("framed");
        let mut d = DurableEngine::open(&dir).unwrap();
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
    fn legacy_line_log_replays_and_migrates_to_framed() {
        let dir = fresh_dir("migrate");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("ops.idl"),
            "?.db.r+(.a=1)\n% a comment\n?.db.r+(.a=2)\n?.db.r+(.a=",
        )
        .unwrap();
        let mut d = DurableEngine::open(&dir).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        let stats = d.durability_stats();
        assert!(stats.migrated_legacy);
        assert_eq!(stats.records_recovered, 2);
        assert_eq!(stats.torn_bytes_truncated, "?.db.r+(.a=".len() as u64);
        let bytes = std::fs::read(dir.join("ops.idl")).unwrap();
        assert!(bytes.starts_with(oplog::MAGIC), "log migrated to framed");
        // appends continue after migration and everything replays again
        d.update("?.db.r+(.a=3)").unwrap();
        drop(d);
        let mut d = DurableEngine::open(&dir).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
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
            let mut d = DurableEngine::open_with(&dir, install_view).unwrap();
            d.update("?.db.r+(.a=1)").unwrap(); // views stale: unflagged
            d.query("?.v.all(.x=X)").unwrap(); // refresh materialises .v.all
            d.update("?.db.r+(.a=2)").unwrap(); // maintained in-transaction
            assert_eq!(d.durability_stats().maintenance_records_appended, 1);
            d.checkpoint().unwrap(); // views fresh: state rides the snapshot
            d.update("?.db.r+(.a=3)").unwrap(); // maintained, in the fresh log
        }
        let mut d = DurableEngine::open_with(&dir, install_view).unwrap();
        let stats = d.durability_stats();
        assert!(stats.maintenance_state_adopted, "snapshot state must be adopted");
        assert_eq!(stats.maintenance_records_replayed, 1);
        assert_eq!(stats.maintenance_fallbacks, 0, "replay maintained, no rebuild");
        assert_eq!(d.query("?.v.all(.x=X)").unwrap().column("X").len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_replay_fallback_is_detected_not_silent() {
        let dir = fresh_dir("maint-fallback");
        {
            let mut d = DurableEngine::open_with(&dir, install_view).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.query("?.v.all(.x=X)").unwrap();
            d.update("?.db.r+(.a=2)").unwrap(); // flagged
        }
        // Reopen configured without write-path maintenance (the reference
        // mode): the flagged record replays through the rebuild path, and
        // the stats must say so instead of pretending.
        let mut d = DurableEngine::open_with(&dir, |e| {
            install_view(e)?;
            e.set_options(crate::engine::EngineOptions::builder().maintain(false).build());
            Ok(())
        })
        .unwrap();
        let stats = d.durability_stats();
        assert!(!stats.maintenance_state_adopted, "nothing checkpointed to adopt");
        assert_eq!(stats.maintenance_records_replayed, 1);
        assert_eq!(stats.maintenance_fallbacks, 1);
        assert_eq!(d.query("?.v.all(.x=X)").unwrap().column("X").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
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
    fn update_group_replays_like_single_updates() {
        let dir = fresh_dir("group-replay");
        {
            let mut d = DurableEngine::open(&dir).unwrap();
            let srcs: Vec<String> = (0..5).map(|i| format!("?.db.r+(.a={i})")).collect();
            assert!(d.update_group(&srcs).iter().all(|r| r.is_ok()));
        }
        let mut d = DurableEngine::open(&dir).unwrap();
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

    #[test]
    fn checkpoints_default_to_binary_snapshots() {
        let open_mem = |dir: &std::path::Path| {
            DurableEngine::open_with_vfs(
                dir,
                Arc::new(RealVfs::new()),
                DurabilityOptions::default(),
                |_| Ok(()),
            )
        };
        let dir = fresh_dir("binary-ckpt");
        {
            let mut d = open_mem(&dir).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap();
        }
        let bytes = std::fs::read(dir.join("universe.json")).unwrap();
        assert!(bytes.starts_with(idl_storage::codec::SNAPSHOT_MAGIC));
        let log = std::fs::read(dir.join("ops.idl")).unwrap();
        let recovered = oplog::decode_log(&log).unwrap();
        assert_eq!(recovered.version, oplog::FORMAT_VERSION);
        assert_eq!(recovered.codec_hint, oplog::CODEC_HINT_BINARY);
        let mut d = open_mem(&dir).unwrap();
        assert!(d.query("?.db.r(.a=1)").unwrap().is_true());
        assert_eq!(d.durability_stats().codec, SnapshotCodec::Binary);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `/d` with its bytes, in path order.
    fn dir_image(vfs: &SimVfs) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = vfs.list_dir(Path::new("/d")).unwrap();
        files.sort();
        files.into_iter().map(|p| (p.clone(), vfs.read(&p).unwrap())).collect()
    }

    #[test]
    fn opening_the_other_backends_directory_is_refused() {
        let mem = DurabilityOptions { storage: StorageSpec::Mem, ..DurabilityOptions::default() };
        let paged = DurabilityOptions {
            storage: StorageSpec::Paged { pool_pages: 16 },
            ..DurabilityOptions::default()
        };
        for (written, foreign, layout) in [(mem, paged, "universe.json"), (paged, mem, "pages.idb")]
        {
            let vfs = Arc::new(SimVfs::new(FaultPlan::none(41)));
            {
                let mut d = sim_open(&vfs, written).unwrap();
                d.update("?.euter.r+(.date=3/3/85, .stkCode=zz, .clsPrice=7)").unwrap();
                d.checkpoint().unwrap();
                d.update("?.euter.r+(.date=3/4/85, .stkCode=zz, .clsPrice=8)").unwrap();
            }
            let before = dir_image(&vfs);
            let Err(err) = sim_open(&vfs, foreign) else {
                panic!("{} opened a directory holding {layout}", foreign.storage)
            };
            assert!(err.to_string().contains(layout), "{err}");
            assert_eq!(dir_image(&vfs), before, "a refused open creates or changes no file");
            let mut d = sim_open(&vfs, written).unwrap();
            let quotes = d.query("?.euter.r(.stkCode=zz, .clsPrice=P)").unwrap();
            assert_eq!(quotes.len(), 2, "the owning backend still sees every quote");
        }
    }

    // Tests below assert snapshot-file and codec-specific artifacts
    // that only the mem backend produces, so they pin both the codec
    // and the storage backend.
    fn json_opts() -> DurabilityOptions {
        DurabilityOptions {
            codec: SnapshotCodec::Json,
            storage: StorageSpec::Mem,
            ..DurabilityOptions::default()
        }
    }

    fn bin_opts() -> DurabilityOptions {
        DurabilityOptions {
            codec: SnapshotCodec::Binary,
            storage: StorageSpec::Mem,
            ..DurabilityOptions::default()
        }
    }

    #[test]
    fn second_checkpoint_is_a_delta_and_recovery_replays_the_chain() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(31)));
        {
            let mut d = sim_open(&vfs, bin_opts()).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            for i in 0..50 {
                d.update(&format!("?.bulk.rows+(.k={i}, .payload=somelongatomvalue{i})")).unwrap();
            }
            d.checkpoint().unwrap(); // full: no base yet
            assert_eq!(d.durability_stats().full_checkpoints, 1);
            d.update("?.db.r+(.a=2)").unwrap();
            d.update("?.other.s+(.b=1)").unwrap();
            d.checkpoint().unwrap(); // delta 1
            d.update("?.db.r-(.a=1)").unwrap();
            d.checkpoint().unwrap(); // delta 2
            let stats = d.durability_stats();
            assert_eq!(stats.delta_checkpoints, 2);
            assert_eq!(stats.chain_len, 2);
            assert!(vfs.exists(Path::new("/d/universe.delta.1")));
            assert!(vfs.exists(Path::new("/d/universe.delta.2")));
            // the deltas only carry the dirtied slots, not the universe
            let base = vfs.read(Path::new("/d/universe.json")).unwrap();
            let d2 = vfs.read(Path::new("/d/universe.delta.2")).unwrap();
            assert!(d2.len() < base.len());
            d.update("?.tail.t+(.c=9)").unwrap(); // rides the log tail
        }
        let mut d = sim_open(&vfs, bin_opts()).unwrap();
        assert_eq!(d.durability_stats().chain_len, 2, "chain adopted at open");
        assert!(!d.query("?.db.r(.a=1)").unwrap().is_true(), "delta-2 delete applied");
        assert!(d.query("?.db.r(.a=2)").unwrap().is_true());
        assert!(d.query("?.other.s(.b=1)").unwrap().is_true());
        assert!(d.query("?.tail.t(.c=9)").unwrap().is_true(), "log tail replayed on top");
        assert_eq!(d.durability_stats().records_recovered, 1, "only the tail replays");
    }

    #[test]
    fn chain_compacts_at_the_cap_and_on_demand() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(32)));
        let opts =
            DurabilityOptions { checkpoint: CheckpointPolicy::Auto { max_chain: 2 }, ..bin_opts() };
        let mut d = sim_open(&vfs, opts).unwrap();
        d.update("?.db.r+(.a=0)").unwrap();
        d.checkpoint().unwrap(); // full
        for i in 1..=2 {
            d.update(&format!("?.db.r+(.a={i})")).unwrap();
            d.checkpoint().unwrap(); // deltas 1, 2
        }
        assert_eq!(d.durability_stats().chain_len, 2);
        d.update("?.db.r+(.a=3)").unwrap();
        d.checkpoint().unwrap(); // chain at cap: compacts to a new full
        let stats = d.durability_stats();
        assert_eq!(stats.full_checkpoints, 2);
        assert_eq!(stats.chain_len, 0);
        assert!(!vfs.exists(Path::new("/d/universe.delta.1")), "chain swept");
        // explicit full compaction regardless of chain headroom
        d.update("?.db.r+(.a=4)").unwrap();
        d.checkpoint().unwrap(); // delta again (fresh chain)
        assert_eq!(d.durability_stats().chain_len, 1);
        d.checkpoint_full().unwrap();
        assert_eq!(d.durability_stats().chain_len, 0);
        assert!(!vfs.exists(Path::new("/d/universe.delta.1")));
        // policy Full never writes deltas
        let vfs2 = Arc::new(SimVfs::new(FaultPlan::none(33)));
        let opts2 = DurabilityOptions { checkpoint: CheckpointPolicy::Full, ..bin_opts() };
        let mut d2 = sim_open(&vfs2, opts2).unwrap();
        d2.update("?.db.r+(.a=1)").unwrap();
        d2.checkpoint().unwrap();
        d2.update("?.db.r+(.a=2)").unwrap();
        d2.checkpoint().unwrap();
        let stats = d2.durability_stats();
        assert_eq!((stats.full_checkpoints, stats.delta_checkpoints), (2, 0));
    }

    #[test]
    fn lost_chain_member_reports_recovery_gap() {
        // A lying disk can lose a delta the log rotation already
        // trusted; recovery must refuse to assemble the gapped history
        // (base + log tail skipping the delta's updates), not silently
        // serve a non-prefix state.
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(37)));
        let opts = bin_opts();
        {
            let mut d = sim_open(&vfs, opts).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap(); // full base, covers lsn 1
            d.update("?.db.r+(.a=2)").unwrap();
            d.checkpoint().unwrap(); // delta 1, covers lsn 2
            d.update("?.db.r+(.a=3)").unwrap(); // lsn 3, log tail
            assert_eq!(d.durability_stats().chain_len, 1);
        }
        vfs.remove_file(Path::new("/d/universe.delta.1")).unwrap();
        let Err(err) = sim_open(&vfs, opts) else { panic!("gapped history must not open") };
        assert!(
            err.to_string().contains("recovery gap"),
            "expected a recovery-gap report, got: {err}"
        );
    }

    #[test]
    fn json_snapshot_dir_migrates_to_binary_on_open() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(34)));
        {
            let mut d = sim_open(&vfs, json_opts()).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap();
            d.update("?.db.r+(.a=2)").unwrap(); // in the log tail
            let bytes = vfs.read(Path::new("/d/universe.json")).unwrap();
            assert!(bytes.starts_with(b"{"), "json codec writes the JSON wrapper");
            assert_eq!(d.durability_stats().codec, SnapshotCodec::Json);
        }
        // reopen with the binary codec: one-shot migration
        let mut d = sim_open(&vfs, bin_opts()).unwrap();
        let stats = d.durability_stats();
        assert!(stats.migrated_snapshot);
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        let bytes = vfs.read(Path::new("/d/universe.json")).unwrap();
        assert!(bytes.starts_with(idl_storage::codec::SNAPSHOT_MAGIC));
        // and the migrated base supports delta checkpoints immediately
        d.update("?.db.r+(.a=3)").unwrap();
        d.checkpoint().unwrap();
        assert_eq!(d.durability_stats().delta_checkpoints, 1);
        drop(d);
        let mut d = sim_open(&vfs, bin_opts()).unwrap();
        assert!(!d.durability_stats().migrated_snapshot, "migration is one-shot");
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
    }

    #[test]
    fn opening_binary_dir_with_json_codec_keeps_working() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(35)));
        {
            let mut d = sim_open(&vfs, bin_opts()).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap();
            d.update("?.db.r+(.a=2)").unwrap();
            d.checkpoint().unwrap(); // delta 1
            assert_eq!(d.durability_stats().chain_len, 1);
        }
        // no downgrade on open; the next checkpoint writes JSON and
        // clears the chain
        let mut d = sim_open(&vfs, json_opts()).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        d.update("?.db.r+(.a=3)").unwrap();
        d.checkpoint().unwrap();
        assert_eq!(d.durability_stats().delta_checkpoints, 0);
        assert!(vfs.read(Path::new("/d/universe.json")).unwrap().starts_with(b"{"));
        assert!(!vfs.exists(Path::new("/d/universe.delta.1")), "chain cleared");
        drop(d);
        let mut d = sim_open(&vfs, json_opts()).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
    }

    #[test]
    fn unscoped_universe_changes_force_a_full_checkpoint() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(36)));
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        d.update("?.db.r+(.a=1)").unwrap();
        d.checkpoint().unwrap();
        // a failing request rolls its transaction back, recording
        // ChangeScope::Universe in the store journal
        assert!(d.update("?.db.r+(.a=X)").is_err(), "unbound insert must fail");
        d.update("?.db.r+(.a=3)").unwrap();
        d.checkpoint().unwrap();
        let stats = d.durability_stats();
        assert_eq!(stats.full_checkpoints, 2, "universe scope cannot ride a delta");
        assert_eq!(stats.delta_checkpoints, 0);
    }

    #[test]
    #[allow(deprecated)] // forges a legacy on-disk layout by hand
    fn stale_deltas_from_an_older_generation_are_ignored_and_swept() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(37)));
        {
            let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap();
            d.update("?.db.r+(.a=2)").unwrap();
            d.checkpoint().unwrap(); // delta 1 (gen 1)
        }
        // simulate the crash window of a later full checkpoint: the new
        // base (gen 2) renamed into place but the chain sweep never ran
        {
            let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
            d.update("?.db.r+(.a=3)").unwrap();
            let entries = d.delta_entries().unwrap();
            assert!(!entries.is_empty());
            persist::save_snapshot_vfs_codec(
                d.vfs.as_ref(),
                d.engine.store(),
                &DurableEngine::snapshot_path(Path::new("/d")),
                SnapshotCodec::Binary,
                2,
                d.last_lsn(),
                true,
                None,
            )
            .unwrap();
            // delta 1 still on disk, now stale (gen 1 != 2)
        }
        let mut d = sim_open(&vfs, DurabilityOptions::default()).unwrap();
        assert_eq!(d.durability_stats().chain_len, 0, "stale delta rejected");
        assert!(!vfs.exists(Path::new("/d/universe.delta.1")), "stale delta swept");
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 3);
    }

    #[test]
    fn maintenance_state_rides_the_newest_chain_artifact() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(38)));
        let open = |vfs: &Arc<SimVfs>| {
            let v: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
            DurableEngine::open_with_vfs("/d", v, bin_opts(), install_view)
        };
        {
            let mut d = open(&vfs).unwrap();
            d.update("?.db.r+(.a=1)").unwrap();
            d.checkpoint().unwrap(); // full, views stale: no blob
            d.query("?.v.all(.x=X)").unwrap(); // materialise
            d.update("?.db.r+(.a=2)").unwrap(); // maintained
            d.checkpoint().unwrap(); // delta 1 carries the blob
            assert_eq!(d.durability_stats().delta_checkpoints, 1);
        }
        let d = open(&vfs).unwrap();
        assert!(
            d.durability_stats().maintenance_state_adopted,
            "state from the newest delta adopted"
        );
    }

    #[test]
    fn execute_logs_requests_and_installs_rules() {
        let dir = fresh_dir("script");
        {
            let mut d = DurableEngine::open(&dir).unwrap();
            let outs = d
                .execute(
                    ".v.all(.x=X) <- .db.r(.a=X) ;\n?.db.r+(.a=1) ;\n?.db.r+(.a=2) ;\n?.v.all(.x=X)",
                )
                .unwrap();
            assert_eq!(outs.len(), 4);
            assert_eq!(d.log_len().unwrap(), 2, "only the mutating requests are logged");
        }
        let mut d = DurableEngine::open(&dir).unwrap();
        assert_eq!(d.query("?.db.r(.a=X)").unwrap().column("X").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
