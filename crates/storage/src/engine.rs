//! The checkpoint store of a durable directory: [`PagedStorage`].
//!
//! The durable engine (in the `idl` crate) separates *what* must persist
//! — the universe at each checkpoint, plus the op-log tail — from *how*
//! it is represented on disk. This module owns the "how": a single page
//! file (`pages.idb`) holding a catalog B-tree, per-relation row B-trees,
//! and a blob heap, fronted by a fixed-capacity buffer pool
//! ([`crate::buffer_pool`]) with SIEVE eviction. Commits are
//! shadow-paged: modified pages go to fresh page ids, and a
//! double-buffered meta page (slots 0/1, alternating by commit epoch)
//! flips the root atomically *after* the data pages sync — the
//! write-back order that makes torn commits fall back to the previous
//! epoch.
//!
//! [`apply_full`](PagedStorage::apply_full) persists the whole universe;
//! [`apply_delta`](PagedStorage::apply_delta) persists only the
//! databases/relations dirtied since the previous checkpoint, as B-tree
//! edits against the live file. [`recover`](PagedStorage::recover)
//! returns the universe the page file covers plus the op-log LSN to
//! replay from.
//!
//! # One on-disk format
//!
//! A directory holds `pages.idb` and a format-4 `ops.idl`, and nothing
//! else this build reads. [`recover`](PagedStorage::recover) first
//! refuses a directory laid out by an older build — a `universe.json`
//! snapshot, a `universe.delta.N` chain, an unfinished
//! `pages.idb.migrating`, or an `ops.idl` that is neither empty nor a
//! (possibly torn) format-4 log — before it changes any file. The error
//! names the file it found and [`LAST_MIGRATING_COMMIT`], the last build
//! that migrates such a directory. A later format change follows the same
//! rule: bump the magic and refuse; never migrate.

use crate::btree;
use crate::buffer_pool::{BufferPool, BufferPoolStats, Pager};
use crate::codec;
use crate::error::{StorageError, StorageResult};
use crate::heap;
use crate::oplog;
use crate::page::{self, BlobRef, Meta, PageId, PageRef, PAGE_SIZE};
use crate::persist::{self, io_err};
use crate::store::Store;
use crate::vfs::Vfs;
use idl_object::{Name, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default buffer-pool capacity, in pages (4 MiB).
pub const DEFAULT_POOL_PAGES: usize = 1024;

/// The page file.
const PAGE_FILE: &str = "pages.idb";

/// The last commit whose build migrates a directory this build refuses
/// (see the module docs).
pub const LAST_MIGRATING_COMMIT: &str = "4a1333f";

/// How a durable directory stores its checkpoints: the page file with a
/// buffer pool of `pool_pages` pages. It has one variant because
/// `DurabilityOptions::storage` and the benchmark package name it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StorageSpec {
    /// Slotted-page file with B-trees and a buffer pool.
    Paged {
        /// Buffer-pool capacity in pages.
        pool_pages: usize,
    },
}

impl std::fmt::Display for StorageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageSpec::Paged { pool_pages } => write!(f, "paged:{pool_pages}"),
        }
    }
}

/// Everything a commit needs beyond its entries: the op-log LSN the new
/// checkpoint covers, the maintenance-state blob riding it, and whether
/// to fsync.
#[derive(Clone, Debug)]
pub struct CommitSeal {
    /// Op-log LSN the committed state covers.
    pub lsn: u64,
    /// Opaque view-maintenance state (`None` = views were stale).
    pub maintenance: Option<String>,
    /// Whether the commit fsyncs before acknowledging.
    pub sync: bool,
}

/// How a commit was persisted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitKind {
    /// Incrementally, as in-place B-tree edits.
    Delta,
    /// As a full rewrite of the universe.
    Full,
}

/// What a commit did, for the caller's durability counters.
#[derive(Clone, Copy, Debug)]
pub struct CommitInfo {
    /// Delta or full.
    pub kind: CommitKind,
    /// Bytes written to the page file by this commit.
    pub bytes_written: u64,
}

/// What [`PagedStorage::recover`] found.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The universe the page file covers (`None` = no base state on
    /// disk; start empty and replay the whole log).
    pub universe: Option<Value>,
    /// Op-log LSN the recovered state covers.
    pub lsn: u64,
    /// Maintenance-state blob of the newest commit.
    pub maintenance: Option<String>,
    /// Stale temp files swept from the directory.
    pub stale_temps_removed: u64,
}

/// One entry of an in-place checkpoint: the post-image (or tombstone) of
/// a database or relation dirtied since the previous checkpoint.
#[derive(Clone, PartialEq, Debug)]
pub enum DeltaEntry {
    /// The database was dropped.
    DropDatabase {
        /// Database name.
        db: Name,
    },
    /// The database's entire subtree, post-change (created, or a
    /// relation-set change at database granularity).
    PutDatabase {
        /// Database name.
        db: Name,
        /// The database tuple (relations by name).
        value: Value,
    },
    /// The relation was dropped (and its database survives).
    DropRelation {
        /// Database name.
        db: Name,
        /// Relation name.
        rel: Name,
    },
    /// The relation's full post-change contents.
    PutRelation {
        /// Database name.
        db: Name,
        /// Relation name.
        rel: Name,
        /// The relation set.
        value: Value,
    },
}

// Catalog key encoding (byte-ordered so a database's entry sorts
// immediately before its relations'):
//
//   universe blob:  0x00
//   database:       0x01 varint(len) db
//   relation:       0x01 varint(len) db varint(len) rel
//
// Catalog values, tagged by first byte:
//
//   database  0x01                      — a tuple of relations (marker;
//                                         the relations follow as their
//                                         own entries)
//   database  0x02 BlobRef              — a non-tuple database value
//   relation  0x01 varint(count) PageRef — row B-tree (pid 0 = empty set)
//   relation  0x02 BlobRef              — non-set value, or a relation
//                                         with at least one jumbo row
//
// Rows are B-tree *keys* (sealed `codec::encode_value` containers, empty
// tree values). Key byte order is not value order; recovery re-sorts by
// decoding into the set. `BlobRef`/`PageRef` serialise as fixed-width LE.

/// Rows whose encoded form exceeds this fall the whole relation back to
/// a blob (a row must fit a B-tree cell; see [`btree::MAX_CELL`]).
const MAX_ROW: usize = 1600;

const KEY_UNIVERSE: &[u8] = &[0x00];
const VAL_TREE: u8 = 0x01;
const VAL_BLOB: u8 = 0x02;

fn corrupt(what: impl std::fmt::Display) -> StorageError {
    StorageError::Persist(format!("catalog corruption: {what}"))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> StorageResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos).ok_or_else(|| corrupt("truncated varint"))?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("oversized varint"));
        }
    }
}

fn db_key(db: &str) -> Vec<u8> {
    let mut k = vec![0x01];
    put_varint(&mut k, db.len() as u64);
    k.extend_from_slice(db.as_bytes());
    k
}

fn rel_key(db: &str, rel: &str) -> Vec<u8> {
    let mut k = db_key(db);
    put_varint(&mut k, rel.len() as u64);
    k.extend_from_slice(rel.as_bytes());
    k
}

enum CatKey {
    Universe,
    Db(String),
    Rel(String, String),
}

fn parse_key(k: &[u8]) -> StorageResult<CatKey> {
    if k == KEY_UNIVERSE {
        return Ok(CatKey::Universe);
    }
    if k.first() != Some(&0x01) {
        return Err(corrupt("unknown catalog key tag"));
    }
    let mut pos = 1;
    let take = |pos: &mut usize| -> StorageResult<String> {
        let len = get_varint(k, pos)? as usize;
        let end = pos.checked_add(len).filter(|e| *e <= k.len());
        let end = end.ok_or_else(|| corrupt("catalog key name overruns the key"))?;
        let s = std::str::from_utf8(&k[*pos..end])
            .map_err(|_| corrupt("catalog key name is not UTF-8"))?
            .to_string();
        *pos = end;
        Ok(s)
    };
    let db = take(&mut pos)?;
    if pos == k.len() {
        return Ok(CatKey::Db(db));
    }
    let rel = take(&mut pos)?;
    if pos != k.len() {
        return Err(corrupt("catalog key has trailing bytes"));
    }
    Ok(CatKey::Rel(db, rel))
}

fn encode_blob_val(b: BlobRef) -> Vec<u8> {
    let mut v = vec![VAL_BLOB];
    v.extend_from_slice(&b.pid.to_le_bytes());
    v.extend_from_slice(&b.slot.to_le_bytes());
    v.extend_from_slice(&b.lsn.to_le_bytes());
    v.extend_from_slice(&b.len.to_le_bytes());
    v
}

fn decode_blob_val(v: &[u8]) -> StorageResult<BlobRef> {
    if v.len() != 27 {
        return Err(corrupt("blob reference has the wrong length"));
    }
    let u = |r: std::ops::Range<usize>| u64::from_le_bytes(v[r].try_into().expect("8 bytes"));
    Ok(BlobRef {
        pid: u(1..9),
        slot: u16::from_le_bytes(v[9..11].try_into().expect("2 bytes")),
        lsn: u(11..19),
        len: u(19..27),
    })
}

fn encode_tree_val(count: u64, root: PageRef) -> Vec<u8> {
    let mut v = vec![VAL_TREE];
    put_varint(&mut v, count);
    v.extend_from_slice(&root.pid.to_le_bytes());
    v.extend_from_slice(&root.lsn.to_le_bytes());
    v
}

fn decode_tree_val(v: &[u8]) -> StorageResult<(u64, PageRef)> {
    let mut pos = 1;
    let count = get_varint(v, &mut pos)?;
    if v.len() != pos + 16 {
        return Err(corrupt("row-tree reference has the wrong length"));
    }
    let pid = u64::from_le_bytes(v[pos..pos + 8].try_into().expect("8 bytes"));
    let lsn = u64::from_le_bytes(v[pos + 8..pos + 16].try_into().expect("8 bytes"));
    Ok((count, PageRef { pid, lsn }))
}

/// A decoded relation catalog value.
enum RelVal {
    Tree(u64, PageRef),
    Blob(BlobRef),
}

fn decode_rel_val(v: &[u8]) -> StorageResult<RelVal> {
    match v.first() {
        Some(&VAL_TREE) => decode_tree_val(v).map(|(c, r)| RelVal::Tree(c, r)),
        Some(&VAL_BLOB) => decode_blob_val(v).map(RelVal::Blob),
        _ => Err(corrupt("unknown relation value tag")),
    }
}

/// A decoded database catalog value.
enum DbVal {
    Tuple,
    Blob(BlobRef),
}

fn decode_db_val(v: &[u8]) -> StorageResult<DbVal> {
    match (v.first(), v.len()) {
        (Some(&VAL_TREE), 1) => Ok(DbVal::Tuple),
        (Some(&VAL_BLOB), _) => decode_blob_val(v).map(DbVal::Blob),
        _ => Err(corrupt("unknown database value tag")),
    }
}

/// The checkpoint store (see module docs): catalog + row B-trees + blob
/// heap in `pages.idb`, shadow-paged commits behind a buffer pool.
pub struct PagedStorage {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    path: PathBuf,
    pool_pages: usize,
    pager: Pager,
    meta: Meta,
    has_base: bool,
    /// Committed state is a whole-universe blob (non-tuple universe) —
    /// deltas cannot apply to it.
    universe_blob: bool,
    /// Whether the page file's directory entry has been fsynced.
    dir_synced: bool,
}

impl PagedStorage {
    /// The checkpoint store of `dir`; call `recover` before use.
    pub fn new(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>, pool_pages: usize) -> PagedStorage {
        let dir = dir.into();
        let path = dir.join(PAGE_FILE);
        let pool = BufferPool::new(Arc::clone(&vfs), path.clone(), pool_pages);
        PagedStorage {
            vfs,
            dir,
            path,
            pool_pages,
            pager: Pager::new(pool, page::META_SLOTS, Vec::new()),
            meta: Meta { page_count: page::META_SLOTS, ..Meta::default() },
            has_base: false,
            universe_blob: false,
            dir_synced: false,
        }
    }

    /// The page file path (`<dir>/pages.idb`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn read_meta_slot(&self, slot: u64) -> Option<Meta> {
        let len = self.vfs.file_len(&self.path).ok()?;
        if len < (slot + 1) * PAGE_SIZE as u64 {
            return None;
        }
        let bytes = self.vfs.read_at(&self.path, slot * PAGE_SIZE as u64, PAGE_SIZE).ok()?;
        Meta::decode(&bytes)
    }

    /// Loads the committed state `meta` describes: free-list sweep,
    /// universe materialization, maintenance blob. On error the pager
    /// holds partial state — the caller resets before trying another
    /// slot. `out` is only written on success.
    fn load_meta(&mut self, meta: Meta, out: &mut RecoveredState) -> StorageResult<()> {
        self.meta = meta;
        self.pager.reset(meta.page_count, Vec::new());
        // Mark-and-sweep the free list: everything under the live meta
        // is reachable; every other page id below page_count belongs to
        // overwritten epochs (or commits that never landed) and is free.
        let reachable = self.reachable(&meta)?;
        let free: Vec<PageId> =
            (page::META_SLOTS..meta.page_count).filter(|pid| !reachable.contains(pid)).collect();
        self.pager.reset(meta.page_count, free);
        let (universe, blob) = self.materialize()?;
        let maintenance = if meta.maintenance.pid != 0 {
            let bytes = heap::read_blob(&mut self.pager, meta.maintenance)?;
            Some(String::from_utf8(bytes).map_err(|_| corrupt("maintenance blob is not UTF-8"))?)
        } else {
            None
        };
        self.universe_blob = blob;
        self.has_base = true;
        out.universe = Some(universe);
        out.lsn = meta.lsn;
        out.maintenance = maintenance;
        Ok(())
    }

    /// Every page reachable from `meta` (catalog tree, row trees, blob
    /// chains, maintenance blob).
    fn reachable(&mut self, meta: &Meta) -> StorageResult<BTreeSet<PageId>> {
        let mut pages: Vec<PageId> = Vec::new();
        if meta.catalog.is_some() {
            btree::pages(&mut self.pager, meta.catalog, &mut pages)?;
            for (_, v) in btree::iter_all(&mut self.pager, meta.catalog)? {
                match v.first() {
                    Some(&VAL_TREE) if v.len() > 1 => {
                        let (_, root) = decode_tree_val(&v)?;
                        if root.is_some() {
                            btree::pages(&mut self.pager, root, &mut pages)?;
                        }
                    }
                    Some(&VAL_BLOB) => {
                        heap::blob_pages(&mut self.pager, decode_blob_val(&v)?, &mut pages)?;
                    }
                    _ => {}
                }
            }
        }
        if meta.maintenance.pid != 0 {
            heap::blob_pages(&mut self.pager, meta.maintenance, &mut pages)?;
        }
        Ok(pages.into_iter().collect())
    }

    /// Reads a relation catalog value back into an object-model value.
    fn load_rel_value(&mut self, raw: &[u8]) -> StorageResult<Value> {
        match decode_rel_val(raw)? {
            RelVal::Tree(count, root) => {
                let mut set = idl_object::SetObj::new();
                if root.is_some() {
                    let mut err = None;
                    btree::for_each(&mut self.pager, root, &mut |k, _| {
                        match codec::decode_value(k) {
                            Ok(v) => {
                                set.insert(v);
                            }
                            Err(e) => err = Some(e),
                        }
                        Ok(())
                    })?;
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
                if set.len() as u64 != count {
                    return Err(corrupt(format!(
                        "row tree holds {} rows, catalog says {count}",
                        set.len()
                    )));
                }
                Ok(Value::Set(set))
            }
            RelVal::Blob(b) => {
                let bytes = heap::read_blob(&mut self.pager, b)?;
                codec::decode_value(&bytes)
            }
        }
    }

    /// Reads the committed universe off the page file.
    fn materialize(&mut self) -> StorageResult<(Value, bool)> {
        if !self.meta.catalog.is_some() {
            return Ok((Value::empty_tuple(), false));
        }
        let entries = btree::iter_all(&mut self.pager, self.meta.catalog)?;
        if let [(k, v)] = entries.as_slice() {
            if k.as_slice() == KEY_UNIVERSE {
                let b = decode_blob_val(v)?;
                let bytes = heap::read_blob(&mut self.pager, b)?;
                return Ok((codec::decode_value(&bytes)?, true));
            }
        }
        let mut dbs: Vec<(Name, Value)> = Vec::new();
        let mut cur: Option<(String, Value)> = None;
        for (k, v) in entries {
            match parse_key(&k)? {
                CatKey::Universe => {
                    return Err(corrupt("universe blob entry mixed with database entries"));
                }
                CatKey::Db(db) => {
                    if let Some((name, val)) = cur.take() {
                        dbs.push((Name::new(name), val));
                    }
                    let val = match decode_db_val(&v)? {
                        DbVal::Tuple => Value::empty_tuple(),
                        DbVal::Blob(b) => {
                            let bytes = heap::read_blob(&mut self.pager, b)?;
                            codec::decode_value(&bytes)?
                        }
                    };
                    cur = Some((db, val));
                }
                CatKey::Rel(db, rel) => {
                    let rv = self.load_rel_value(&v)?;
                    let Some((name, val)) = &mut cur else {
                        return Err(corrupt(format!(
                            "relation entry for {db}.{rel} before its database"
                        )));
                    };
                    if *name != db {
                        return Err(corrupt(format!(
                            "relation entry {db}.{rel} inside database {name}"
                        )));
                    }
                    val.as_tuple_mut()
                        .ok_or_else(|| {
                            corrupt(format!("relations inside non-tuple database {db}"))
                        })?
                        .insert(Name::new(rel), rv);
                }
            }
        }
        if let Some((name, val)) = cur.take() {
            dbs.push((Name::new(name), val));
        }
        let mut t = idl_object::TupleObj::new();
        for (name, val) in dbs {
            t.insert(name, val);
        }
        Ok((Value::Tuple(t), false))
    }

    /// Encodes a relation value into pages, returning its catalog value:
    /// a row B-tree when it is a set of cell-sized rows, a blob
    /// otherwise.
    fn store_rel_value(&mut self, value: &Value) -> StorageResult<Vec<u8>> {
        if let Value::Set(s) = value {
            if let Some(rows) = Self::encode_rows(s) {
                let root = btree::bulk_build(&mut self.pager, &rows)?;
                return Ok(encode_tree_val(s.len() as u64, root));
            }
        }
        let b = heap::write_blob(&mut self.pager, &codec::encode_value(value))?;
        Ok(encode_blob_val(b))
    }

    /// Encodes and byte-sorts a set's rows for a row tree; `None` when a
    /// row exceeds [`MAX_ROW`] (caller falls back to a blob).
    fn encode_rows(s: &idl_object::SetObj) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(s.len());
        for m in s.iter() {
            let k = codec::encode_value(m);
            if k.len() > MAX_ROW {
                return None;
            }
            rows.push((k, Vec::new()));
        }
        rows.sort();
        Some(rows)
    }

    /// Frees the pages behind one relation catalog value.
    fn free_rel_value(&mut self, raw: &[u8]) -> StorageResult<()> {
        match decode_rel_val(raw)? {
            RelVal::Tree(_, root) => {
                if root.is_some() {
                    btree::free_tree(&mut self.pager, root)?;
                }
            }
            RelVal::Blob(b) => heap::free_blob(&mut self.pager, b)?,
        }
        Ok(())
    }

    /// Removes a database — its entry, its relations' entries, and all
    /// their pages — from the catalog.
    fn drop_db(&mut self, catalog: &mut PageRef, db: &str) -> StorageResult<()> {
        if !catalog.is_some() {
            return Ok(());
        }
        let prefix = db_key(db);
        let mut doomed: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (k, v) in btree::iter_all(&mut self.pager, *catalog)? {
            if k == prefix || (k.starts_with(&prefix) && k.len() > prefix.len()) {
                doomed.push((k, v));
            }
        }
        for (k, v) in doomed {
            if k == prefix {
                if let DbVal::Blob(b) = decode_db_val(&v)? {
                    heap::free_blob(&mut self.pager, b)?;
                }
            } else {
                self.free_rel_value(&v)?;
            }
            let (root, _) = btree::remove(&mut self.pager, *catalog, &k)?;
            *catalog = root;
        }
        Ok(())
    }

    /// Inserts a database (marker + relation entries, or a blob for a
    /// non-tuple value). The database must not already be present.
    fn put_db(&mut self, catalog: &mut PageRef, db: &str, value: &Value) -> StorageResult<()> {
        if let Value::Tuple(t) = value {
            *catalog = btree::insert(&mut self.pager, *catalog, &db_key(db), &[VAL_TREE])?;
            let rels: Vec<(Name, Value)> = t.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            for (rel, rv) in rels {
                let val = self.store_rel_value(&rv)?;
                *catalog =
                    btree::insert(&mut self.pager, *catalog, &rel_key(db, rel.as_str()), &val)?;
            }
        } else {
            let b = heap::write_blob(&mut self.pager, &codec::encode_value(value))?;
            *catalog = btree::insert(&mut self.pager, *catalog, &db_key(db), &encode_blob_val(b))?;
        }
        Ok(())
    }

    /// Replaces (or inserts) one relation. When both the old and new
    /// values are row trees, this is an incremental merge: unchanged
    /// rows keep their leaf pages, only touched paths shadow.
    fn put_rel(
        &mut self,
        catalog: &mut PageRef,
        db: &str,
        rel: &str,
        value: &Value,
    ) -> StorageResult<()> {
        if !self.db_entry_is_tuple(catalog, db)? {
            // The committed database is an opaque blob but the delta
            // speaks relation-granularity — rewrite the database whole.
            return self.rewrite_blob_db(
                catalog,
                db,
                |t, rel, value| {
                    t.insert(Name::new(rel), value.clone());
                },
                rel,
                value,
            );
        }
        let key = rel_key(db, rel);
        let old = btree::lookup(&mut self.pager, *catalog, &key)?;
        let new_rows = if let Value::Set(s) = value { Self::encode_rows(s) } else { None };
        let val = match (old, new_rows) {
            (Some(oldv), Some(rows)) if oldv.first() == Some(&VAL_TREE) => {
                let (_, old_root) = decode_tree_val(&oldv)?;
                let root = self.merge_rows(old_root, &rows)?;
                encode_tree_val(rows.len() as u64, root)
            }
            (old, _) => {
                if let Some(oldv) = old {
                    self.free_rel_value(&oldv)?;
                }
                self.store_rel_value(value)?
            }
        };
        *catalog = btree::insert(&mut self.pager, *catalog, &key, &val)?;
        Ok(())
    }

    /// Merge-walks the committed row tree against the new sorted rows,
    /// removing vanished rows and inserting fresh ones.
    fn merge_rows(
        &mut self,
        old_root: PageRef,
        new_rows: &[(Vec<u8>, Vec<u8>)],
    ) -> StorageResult<PageRef> {
        let mut old_keys: Vec<Vec<u8>> = Vec::new();
        if old_root.is_some() {
            btree::for_each(&mut self.pager, old_root, &mut |k, _| {
                old_keys.push(k.to_vec());
                Ok(())
            })?;
        }
        let mut root = old_root;
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_keys.len() || j < new_rows.len() {
            let ord = match (old_keys.get(i), new_rows.get(j)) {
                (Some(o), Some((n, _))) => o.as_slice().cmp(n.as_slice()),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, _) => std::cmp::Ordering::Greater,
            };
            match ord {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    let (r, _) = btree::remove(&mut self.pager, root, &old_keys[i])?;
                    root = r;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    root = btree::insert(&mut self.pager, root, &new_rows[j].0, &[])?;
                    j += 1;
                }
            }
        }
        Ok(root)
    }

    /// Removes one relation (the database entry survives).
    fn drop_rel(&mut self, catalog: &mut PageRef, db: &str, rel: &str) -> StorageResult<()> {
        if !self.db_entry_is_tuple(catalog, db)? {
            return self.rewrite_blob_db(
                catalog,
                db,
                |t, rel, _| {
                    t.remove(rel);
                },
                rel,
                &Value::null(),
            );
        }
        let key = rel_key(db, rel);
        if let Some(oldv) = btree::lookup(&mut self.pager, *catalog, &key)? {
            self.free_rel_value(&oldv)?;
            let (root, _) = btree::remove(&mut self.pager, *catalog, &key)?;
            *catalog = root;
        }
        Ok(())
    }

    /// Whether `db`'s catalog entry is the tuple marker (true also when
    /// the entry is absent — the caller will create it as a tuple).
    fn db_entry_is_tuple(&mut self, catalog: &mut PageRef, db: &str) -> StorageResult<bool> {
        match btree::lookup(&mut self.pager, *catalog, &db_key(db))? {
            Some(v) => Ok(matches!(decode_db_val(&v)?, DbVal::Tuple)),
            None => {
                // Delta granularity implies the database existed at the
                // previous checkpoint; create the marker defensively.
                *catalog = btree::insert(&mut self.pager, *catalog, &db_key(db), &[VAL_TREE])?;
                Ok(true)
            }
        }
    }

    /// Decodes a blob-stored database, applies a tuple edit, and stores
    /// it back (the degenerate path for relation-granularity deltas
    /// against a non-tuple committed database).
    fn rewrite_blob_db(
        &mut self,
        catalog: &mut PageRef,
        db: &str,
        edit: impl Fn(&mut idl_object::TupleObj, &str, &Value),
        rel: &str,
        value: &Value,
    ) -> StorageResult<()> {
        let old = btree::lookup(&mut self.pager, *catalog, &db_key(db))?
            .ok_or_else(|| corrupt(format!("database {db} vanished mid-delta")))?;
        let DbVal::Blob(b) = decode_db_val(&old)? else {
            return Err(corrupt(format!("database {db} is not blob-stored")));
        };
        let bytes = heap::read_blob(&mut self.pager, b)?;
        let mut dbv = codec::decode_value(&bytes)?;
        match dbv.as_tuple_mut() {
            Some(t) => edit(t, rel, value),
            None => {
                return Err(corrupt(format!(
                    "relation-granularity delta against non-tuple database {db}"
                )));
            }
        }
        // drop_db frees the entry's blob chain; freeing `b` here too
        // would put the same pages on the free list twice.
        self.drop_db(catalog, db)?;
        self.put_db(catalog, db, &dbv)
    }

    /// The body of [`PagedStorage::apply_delta`] (wrapped for abort).
    fn delta_txn(&mut self, entries: &[DeltaEntry], seal: &CommitSeal) -> StorageResult<u64> {
        let mut catalog = self.meta.catalog;
        for e in entries {
            match e {
                DeltaEntry::DropDatabase { db } => self.drop_db(&mut catalog, db.as_str())?,
                DeltaEntry::PutDatabase { db, value } => {
                    self.drop_db(&mut catalog, db.as_str())?;
                    self.put_db(&mut catalog, db.as_str(), value)?;
                }
                DeltaEntry::DropRelation { db, rel } => {
                    self.drop_rel(&mut catalog, db.as_str(), rel.as_str())?;
                }
                DeltaEntry::PutRelation { db, rel, value } => {
                    self.put_rel(&mut catalog, db.as_str(), rel.as_str(), value)?;
                }
            }
        }
        self.finish_commit(catalog, seal)
    }

    /// The body of a full commit (wrapped for abort):
    /// frees every committed page and rebuilds the file's trees from the
    /// live universe with bulk-packed leaves.
    fn full_txn(&mut self, universe: &Value, seal: &CommitSeal) -> StorageResult<(u64, bool)> {
        if self.meta.catalog.is_some() {
            for (k, v) in btree::iter_all(&mut self.pager, self.meta.catalog)? {
                match parse_key(&k)? {
                    CatKey::Db(_) => {
                        if let DbVal::Blob(b) = decode_db_val(&v)? {
                            heap::free_blob(&mut self.pager, b)?;
                        }
                    }
                    CatKey::Rel(..) => self.free_rel_value(&v)?,
                    CatKey::Universe => heap::free_blob(&mut self.pager, decode_blob_val(&v)?)?,
                }
            }
            btree::free_tree(&mut self.pager, self.meta.catalog)?;
        }
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let blob_universe = !matches!(universe, Value::Tuple(_));
        if blob_universe {
            let b = heap::write_blob(&mut self.pager, &codec::encode_value(universe))?;
            items.push((KEY_UNIVERSE.to_vec(), encode_blob_val(b)));
        } else if let Value::Tuple(t) = universe {
            let dbs: Vec<(Name, Value)> = t.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            for (db, dbv) in dbs {
                if let Value::Tuple(rels) = &dbv {
                    items.push((db_key(db.as_str()), vec![VAL_TREE]));
                    let rels: Vec<(Name, Value)> =
                        rels.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    for (rel, rv) in rels {
                        let val = self.store_rel_value(&rv)?;
                        items.push((rel_key(db.as_str(), rel.as_str()), val));
                    }
                } else {
                    let b = heap::write_blob(&mut self.pager, &codec::encode_value(&dbv))?;
                    items.push((db_key(db.as_str()), encode_blob_val(b)));
                }
            }
        }
        items.sort();
        let catalog = btree::bulk_build(&mut self.pager, &items)?;
        let bytes = self.finish_commit(catalog, seal)?;
        Ok((bytes, blob_universe))
    }

    /// The commit protocol: maintenance blob, data-page flush (+sync),
    /// meta flip into the alternate slot (+sync), then the in-memory
    /// state adopts the new epoch. A crash before the meta write lands
    /// is invisible (shadow pages are unreachable); a torn meta write
    /// fails its CRC and recovery falls back to the other slot.
    fn finish_commit(&mut self, catalog: PageRef, seal: &CommitSeal) -> StorageResult<u64> {
        let mut maint = BlobRef::default();
        if self.meta.maintenance.pid != 0 {
            heap::free_blob(&mut self.pager, self.meta.maintenance)?;
        }
        if let Some(s) = &seal.maintenance {
            maint = heap::write_blob(&mut self.pager, s.as_bytes())?;
        }
        let pages = if seal.sync {
            self.pager.flush_sync(self.vfs.as_ref(), &self.path)?
        } else {
            self.pager.flush()?
        };
        let new_meta = Meta {
            epoch: self.meta.epoch + 1,
            lsn: seal.lsn,
            page_count: self.pager.page_count(),
            catalog,
            maintenance: maint,
        };
        let slot = new_meta.epoch % page::META_SLOTS;
        self.vfs
            .write_at(&self.path, slot * PAGE_SIZE as u64, &new_meta.encode())
            .map_err(|e| StorageError::Persist(format!("meta write: {e}")))?;
        if seal.sync {
            self.vfs
                .sync_file(&self.path)
                .map_err(|e| StorageError::Persist(format!("meta sync: {e}")))?;
            if !self.dir_synced {
                self.vfs
                    .sync_dir(&self.dir)
                    .map_err(|e| StorageError::Persist(format!("page dir sync: {e}")))?;
                self.dir_synced = true;
            }
        }
        self.meta = new_meta;
        self.pager.commit();
        self.has_base = true;
        Ok((pages + 1) * PAGE_SIZE as u64)
    }
}

/// The public face of the checkpoint store.
impl PagedStorage {
    /// The spec this store was opened with.
    pub fn spec(&self) -> StorageSpec {
        StorageSpec::Paged { pool_pages: self.pool_pages }
    }

    /// Loads (or initialises) the on-disk state. Refuses a directory an
    /// older build laid out before it touches any file, then sweeps stale
    /// temp files (see module docs). Called once, before any commit or
    /// read.
    pub fn recover(&mut self) -> StorageResult<RecoveredState> {
        let files = self.vfs.list_dir(&self.dir).map_err(|e| io_err("list directory", e))?;
        self.refuse_foreign_layout(&files)?;
        let mut out = RecoveredState {
            stale_temps_removed: persist::clean_stale_temps(self.vfs.as_ref(), &files),
            ..RecoveredState::default()
        };
        if !self.vfs.exists(&self.path) {
            return Ok(out);
        }
        self.dir_synced = true;
        // Valid meta slots, newest epoch first. Both invalid means no
        // commit ever completed (a crash during the very first one):
        // start empty, the log replays everything.
        let mut candidates: Vec<Meta> =
            [self.read_meta_slot(0), self.read_meta_slot(1)].into_iter().flatten().collect();
        candidates.sort_by_key(|m| std::cmp::Reverse(m.epoch));
        for meta in candidates {
            // A CRC-valid meta can still point at pages that never hit
            // the disk (an unsynced commit torn by a crash, e.g. under
            // SyncPolicy::Never): when its tree does not read back,
            // fall back to the previous epoch's slot — losing recent
            // commits beats refusing to open. Both slots unreadable
            // degrades to "no base"; the op log replays what it holds.
            if self.load_meta(meta, &mut out).is_ok() {
                return Ok(out);
            }
        }
        self.has_base = false;
        self.universe_blob = false;
        self.meta = Meta { page_count: page::META_SLOTS, ..Meta::default() };
        self.pager.reset(page::META_SLOTS, Vec::new());
        Ok(out)
    }

    /// Whether the next checkpoint may be incremental: there is a
    /// committed base, and it is tuple-shaped.
    pub fn can_delta(&self) -> bool {
        self.has_base && !self.universe_blob
    }

    /// Commits the databases/relations dirtied since the previous
    /// checkpoint. Only valid when [`can_delta`](Self::can_delta) said
    /// so. On error nothing is committed.
    pub fn apply_delta(
        &mut self,
        entries: &[DeltaEntry],
        seal: &CommitSeal,
    ) -> StorageResult<CommitInfo> {
        if !self.can_delta() {
            return Err(StorageError::Persist(
                "paged storage cannot apply a delta without a tuple-shaped base".into(),
            ));
        }
        self.pager.begin(seal.lsn);
        match self.delta_txn(entries, seal) {
            Ok(bytes) => Ok(CommitInfo { kind: CommitKind::Delta, bytes_written: bytes }),
            Err(e) => {
                self.pager.abort();
                Err(e)
            }
        }
    }

    /// Commits the whole universe. On error nothing is committed.
    pub fn apply_full(&mut self, store: &Store, seal: &CommitSeal) -> StorageResult<CommitInfo> {
        self.commit_full(store.universe(), seal)
    }

    fn commit_full(&mut self, universe: &Value, seal: &CommitSeal) -> StorageResult<CommitInfo> {
        self.pager.begin(seal.lsn);
        match self.full_txn(universe, seal) {
            Ok((bytes, blob)) => {
                self.universe_blob = blob;
                Ok(CommitInfo { kind: CommitKind::Full, bytes_written: bytes })
            }
            Err(e) => {
                self.pager.abort();
                Err(e)
            }
        }
    }

    /// Reads one relation's committed value back from the page file,
    /// through the buffer pool (`None` = the database or relation does
    /// not exist in the committed state).
    pub fn read_relation(&mut self, db: &str, rel: &str) -> StorageResult<Option<Value>> {
        if !self.has_base {
            return Ok(None);
        }
        if self.universe_blob {
            let Some(raw) = btree::lookup(&mut self.pager, self.meta.catalog, KEY_UNIVERSE)? else {
                return Ok(None);
            };
            let b = decode_blob_val(&raw)?;
            let bytes = heap::read_blob(&mut self.pager, b)?;
            let u = codec::decode_value(&bytes)?;
            return Ok(u.attr(db).and_then(|d| d.attr(rel)).cloned());
        }
        let Some(dv) = btree::lookup(&mut self.pager, self.meta.catalog, &db_key(db))? else {
            return Ok(None);
        };
        match decode_db_val(&dv)? {
            DbVal::Blob(b) => {
                let bytes = heap::read_blob(&mut self.pager, b)?;
                Ok(codec::decode_value(&bytes)?.attr(rel).cloned())
            }
            DbVal::Tuple => {
                match btree::lookup(&mut self.pager, self.meta.catalog, &rel_key(db, rel))? {
                    Some(raw) => self.load_rel_value(&raw).map(Some),
                    None => Ok(None),
                }
            }
        }
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.pager.pool_stats()
    }

    /// Logical size of the page file in pages — with
    /// [`BufferPoolStats::capacity`] this is how "the data outgrew the
    /// pool" becomes observable.
    pub fn file_pages(&self) -> u64 {
        self.pager.page_count()
    }

    /// Fails closed on the first file in `files` an older build left
    /// (see module docs); reads nothing but `ops.idl`'s header.
    fn refuse_foreign_layout(&self, files: &[PathBuf]) -> StorageResult<()> {
        for path in files {
            let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
            let what = match name.as_ref() {
                "universe.json" => "an older build's snapshot checkpoint",
                "pages.idb.migrating" => "an older build's unfinished snapshot migration",
                n if n.starts_with("universe.delta.") => "an older build's delta checkpoint",
                oplog::LOG_FILE => {
                    let head = self.vfs.read_at(path, 0, oplog::HEADER_LEN as usize);
                    if oplog::is_current_header(&head.map_err(|e| io_err("read log header", e))?) {
                        continue;
                    }
                    "not a format-4 operation log"
                }
                _ => continue,
            };
            return Err(StorageError::Persist(format!(
                "{}: {what}; this build reads only {PAGE_FILE} and a format-4 {}, and commit \
                 {LAST_MIGRATING_COMMIT} is the last build that migrates such a directory",
                path.display(),
                oplog::LOG_FILE
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, SimVfs};
    use idl_object::tuple;

    fn store_ab() -> Store {
        let mut s = Store::new();
        s.insert("alpha", "r", tuple! { a: 1i64, b: "x" }).unwrap();
        s.insert("alpha", "r", tuple! { a: 2i64, b: "y" }).unwrap();
        s.insert("beta", "q", tuple! { c: 3.5f64 }).unwrap();
        s
    }

    fn seal(lsn: u64) -> CommitSeal {
        CommitSeal { lsn, maintenance: None, sync: true }
    }

    fn paged(vfs: &Arc<SimVfs>, pool: usize) -> PagedStorage {
        vfs.create_dir_all(Path::new("/db")).unwrap();
        PagedStorage::new(Arc::clone(vfs) as Arc<dyn Vfs>, "/db", pool)
    }

    #[test]
    fn spec_displays_its_pool_size() {
        assert_eq!(StorageSpec::Paged { pool_pages: 8 }.to_string(), "paged:8");
    }

    #[test]
    fn paged_full_commit_recovers_byte_identically() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(11)));
        let store = store_ab();
        {
            let mut p = paged(&vfs, 64);
            p.recover().unwrap();
            let info = p.apply_full(&store, &seal(5)).unwrap();
            assert_eq!(info.kind, CommitKind::Full);
        }
        let mut p2 = paged(&vfs, 64);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.lsn, 5);
        assert_eq!(rec.universe.as_ref(), Some(store.universe()));
        let r = p2.read_relation("alpha", "r").unwrap().unwrap();
        assert_eq!(Some(&r), store.universe().attr("alpha").unwrap().attr("r"));
        assert_eq!(p2.read_relation("alpha", "nope").unwrap(), None);
        assert_eq!(p2.read_relation("nope", "r").unwrap(), None);
    }

    #[test]
    fn paged_empty_first_commit_syncs_nothing_and_recovers_empty() {
        // An empty universe bulk-builds a NULL catalog: zero data pages,
        // so the first commit must not try to fsync a page file that was
        // never created (it materialises at the meta write).
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(13)));
        {
            let mut p = paged(&vfs, 4);
            p.recover().unwrap();
            let info = p.apply_full(&Store::new(), &seal(1)).unwrap();
            assert_eq!(info.kind, CommitKind::Full);
        }
        let mut p2 = paged(&vfs, 4);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.lsn, 1);
        assert_eq!(rec.universe.as_ref(), Some(Store::new().universe()));
        // and a non-empty commit on the same engine still round-trips
        let store = store_ab();
        p2.apply_full(&store, &seal(2)).unwrap();
        let mut p3 = paged(&vfs, 4);
        let rec = p3.recover().unwrap();
        assert_eq!(rec.lsn, 2);
        assert_eq!(rec.universe.as_ref(), Some(store.universe()));
    }

    #[test]
    fn paged_delta_edits_in_place_and_recovers() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(12)));
        let mut store = store_ab();
        let mut p = paged(&vfs, 64);
        p.recover().unwrap();
        p.apply_full(&store, &seal(1)).unwrap();

        store.insert("alpha", "r", tuple! { a: 9i64, b: "z" }).unwrap();
        let rv = store.universe().attr("alpha").unwrap().attr("r").unwrap().clone();
        let entries = vec![
            DeltaEntry::PutRelation { db: Name::new("alpha"), rel: Name::new("r"), value: rv },
            DeltaEntry::DropDatabase { db: Name::new("beta") },
        ];
        assert!(p.can_delta());
        let info = p.apply_delta(&entries, &seal(2)).unwrap();
        assert_eq!(info.kind, CommitKind::Delta);

        let mut p2 = paged(&vfs, 64);
        let rec = p2.recover().unwrap();
        let expect = {
            let mut t = store.universe().clone();
            t.as_tuple_mut().unwrap().remove("beta");
            t
        };
        assert_eq!(rec.universe.unwrap(), expect);
        assert_eq!(rec.lsn, 2);
    }

    #[test]
    fn paged_survives_a_tiny_pool_with_evictions() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(13)));
        let mut store = Store::new();
        for i in 0..600i64 {
            store
                .insert(
                    "db",
                    "r",
                    tuple! { id: i, pad: format!("row-{i}-{}", "x".repeat(40)).as_str() },
                )
                .unwrap();
        }
        let mut p = paged(&vfs, 4); // pool far smaller than the relation
        p.recover().unwrap();
        p.apply_full(&store, &seal(1)).unwrap();
        let stats = p.pool_stats();
        assert!(stats.evictions > 0, "a 4-page pool must evict: {stats:?}");
        assert!(p.file_pages() > 4, "the page file outgrew the pool");

        let mut p2 = paged(&vfs, 4);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.universe.as_ref(), Some(store.universe()));
        // warm read after recovery
        let r = p2.read_relation("db", "r").unwrap().unwrap();
        assert_eq!(Some(&r), store.universe().attr("db").unwrap().attr("r"));
    }

    #[test]
    fn recovery_falls_back_to_the_older_meta_slot() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(15)));
        let store1 = store_ab();
        let mut store2 = store_ab();
        store2.insert("gamma", "s", tuple! { d: 1i64 }).unwrap();
        let mut p = paged(&vfs, 64);
        p.recover().unwrap();
        p.apply_full(&store1, &seal(1)).unwrap();
        let first_pages = p.file_pages();
        p.apply_full(&store2, &seal(2)).unwrap();
        let all_pages = p.file_pages();
        drop(p);
        // Zero every page the second commit wrote: its meta slot is
        // intact but its tree is gone (the shape an unsynced commit
        // torn by a power cut leaves behind).
        let path = Path::new("/db/pages.idb");
        for pid in first_pages..all_pages {
            vfs.write_at(path, pid * PAGE_SIZE as u64, &vec![0u8; PAGE_SIZE]).unwrap();
        }
        let mut p2 = paged(&vfs, 64);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.lsn, 1, "recovery fell back to the previous epoch");
        assert_eq!(rec.universe.as_ref(), Some(store1.universe()));
        // both slots unreadable degrades to "no base", not a hard error
        for pid in page::META_SLOTS..all_pages {
            vfs.write_at(path, pid * PAGE_SIZE as u64, &vec![0u8; PAGE_SIZE]).unwrap();
        }
        let mut p3 = paged(&vfs, 64);
        let rec = p3.recover().unwrap();
        assert_eq!(rec.universe, None);
        assert_eq!(rec.lsn, 0);
    }

    #[test]
    fn paged_commit_failure_aborts_cleanly() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(14)));
        let store = store_ab();
        let mut p = paged(&vfs, 64);
        p.recover().unwrap();
        p.apply_full(&store, &seal(1)).unwrap();
        let before_pages = p.file_pages();

        // an aborted transaction must leave no trace
        p.pager.begin(2);
        let mut catalog = p.meta.catalog;
        p.put_rel(&mut catalog, "alpha", "r", &Value::Set(idl_object::SetObj::new())).unwrap();
        p.pager.abort();
        // storage still serves the committed state; the aborted pages
        // went back to the free list (page_count is a high-water mark)
        let r = p.read_relation("alpha", "r").unwrap().unwrap();
        assert_eq!(Some(&r), store.universe().attr("alpha").unwrap().attr("r"));
        assert!(p.pager.free_len() >= (p.file_pages() - before_pages) as usize);

        // and the committed state survives a power-cycle after the abort
        vfs.power_cycle();
        let mut p2 = paged(&vfs, 64);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.universe.as_ref(), Some(store.universe()));
    }

    #[test]
    fn paged_non_tuple_universe_falls_back_to_blob() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(15)));
        let mut p = paged(&vfs, 16);
        p.recover().unwrap();
        // a store can only hold tuple universes; build the blob case via
        // a raw commit of an atom universe
        p.commit_full(&Value::int(42), &seal(1)).unwrap();
        assert!(p.universe_blob);
        assert!(!p.can_delta());
        let mut p2 = paged(&vfs, 16);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.universe, Some(Value::int(42)));
        assert!(p2.universe_blob);
    }

    #[test]
    fn paged_jumbo_rows_fall_back_to_relation_blob() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(16)));
        let mut store = Store::new();
        store.insert("db", "r", tuple! { big: "y".repeat(3 * MAX_ROW).as_str() }).unwrap();
        store.insert("db", "r", tuple! { small: 1i64 }).unwrap();
        let mut p = paged(&vfs, 16);
        p.recover().unwrap();
        p.apply_full(&store, &seal(1)).unwrap();
        let mut p2 = paged(&vfs, 16);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.universe.as_ref(), Some(store.universe()));
    }

    #[test]
    fn paged_crash_between_commits_falls_back_to_previous_epoch() {
        let vfs = Arc::new(SimVfs::new(FaultPlan::none(17)));
        let store = store_ab();
        let mut p = paged(&vfs, 64);
        p.recover().unwrap();
        p.apply_full(&store, &seal(1)).unwrap();
        let mut store2 = store_ab();
        store2.insert("gamma", "s", tuple! { d: 4i64 }).unwrap();
        p.apply_full(&store2, &seal(2)).unwrap();

        // power-cycle: synced state must expose exactly the second commit
        vfs.power_cycle();
        let mut p2 = paged(&vfs, 64);
        let rec = p2.recover().unwrap();
        assert_eq!(rec.universe.as_ref(), Some(store2.universe()));
        assert_eq!(rec.lsn, 2);
    }
}
