//! The multidatabase store: universe + catalog + caches + transactions.

use crate::error::{StorageError, StorageResult};
use crate::index::{Index, IndexKind};
use crate::journal::{ChangeRecord, ChangeScope, Journal};
use crate::stats::RelStats;
use idl_object::{Name, Path, SetObj, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Monotonic store version; bumped by every mutation.
pub type Version = u64;

/// Cache slot: the store version the entry was built at, plus the entry.
type Cached<T> = (Version, Arc<T>);

#[derive(Default)]
struct Caches {
    /// (db, rel, attr, kind) → cached index
    indexes: HashMap<(Name, Name, Name, IndexKind), Cached<Index>>,
    /// (db, rel) → cached statistics
    stats: HashMap<(Name, Name), Cached<RelStats>>,
}

struct TxnFrame {
    saved_universe: Value,
    saved_version: Version,
}

/// The multidatabase store.
///
/// Owns the universe tuple and provides catalog operations, lazily
/// maintained secondary indexes, statistics, snapshot transactions and a
/// change journal. All mutation goes through methods that record a
/// [`ChangeScope`] so caches stay sound under arbitrary IDL updates.
pub struct Store {
    universe: Value,
    version: Version,
    journal: Journal,
    /// [`Store::checkpoint`] keeps the records newer than this version.
    journal_pin: Option<Version>,
    caches: Mutex<Caches>,
    /// The open transaction's snapshot; a request opens at most one.
    txn: Option<TxnFrame>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// An empty universe.
    pub fn new() -> Self {
        Store {
            universe: Value::empty_tuple(),
            version: 0,
            journal: Journal::new(),
            journal_pin: None,
            caches: Mutex::new(Caches::default()),
            txn: None,
        }
    }

    /// Wraps an existing universe object (must be a tuple).
    pub fn from_universe(universe: Value) -> StorageResult<Self> {
        if universe.as_tuple().is_none() {
            return Err(StorageError::ShapeViolation("universe must be a tuple".into()));
        }
        let mut s = Store::new();
        s.universe = universe;
        Ok(s)
    }

    /// The universe tuple.
    pub fn universe(&self) -> &Value {
        &self.universe
    }

    /// Current version.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Journal records newer than `since`.
    pub fn changes_since(&self, since: Version) -> &[ChangeRecord] {
        self.journal.since(since)
    }

    // ---- catalog ------------------------------------------------------

    /// Database names (sorted).
    pub fn database_names(&self) -> Vec<Name> {
        idl_object::universe::database_names(&self.universe)
    }

    /// Relation names of `db` (sorted).
    pub fn relation_names(&self, db: &str) -> StorageResult<Vec<Name>> {
        let dbv =
            self.universe.attr(db).ok_or_else(|| StorageError::NoSuchDatabase(Name::new(db)))?;
        let t = dbv
            .as_tuple()
            .ok_or_else(|| StorageError::ShapeViolation(format!("database {db} is not a tuple")))?;
        Ok(t.keys().cloned().collect())
    }

    /// Whether the database exists.
    pub fn has_database(&self, db: &str) -> bool {
        self.universe.attr(db).is_some()
    }

    /// The relation `db.rel` as a set object.
    pub fn relation(&self, db: &str, rel: &str) -> StorageResult<&SetObj> {
        let dbv =
            self.universe.attr(db).ok_or_else(|| StorageError::NoSuchDatabase(Name::new(db)))?;
        let relv = dbv
            .attr(rel)
            .ok_or_else(|| StorageError::NoSuchRelation(Name::new(db), Name::new(rel)))?;
        relv.as_set()
            .ok_or_else(|| StorageError::ShapeViolation(format!("{db}.{rel} is not a set")))
    }

    /// Creates an empty database.
    pub fn create_database(&mut self, db: impl Into<Name>) -> StorageResult<()> {
        let db = db.into();
        let t = self.universe.as_tuple_mut().expect("universe is a tuple");
        if t.contains(db.as_str()) {
            return Err(StorageError::AlreadyExists(format!("database {db}")));
        }
        t.insert(db.clone(), Value::empty_tuple());
        self.record(ChangeScope::Database { db });
        Ok(())
    }

    /// Drops a database and everything in it.
    pub fn drop_database(&mut self, db: &str) -> StorageResult<()> {
        let t = self.universe.as_tuple_mut().expect("universe is a tuple");
        if t.remove(db).is_none() {
            return Err(StorageError::NoSuchDatabase(Name::new(db)));
        }
        self.record(ChangeScope::Database { db: Name::new(db) });
        Ok(())
    }

    /// Creates an empty relation, creating the database on demand.
    pub fn create_relation(
        &mut self,
        db: impl Into<Name>,
        rel: impl Into<Name>,
    ) -> StorageResult<()> {
        let db = db.into();
        let rel = rel.into();
        let t = self.universe.as_tuple_mut().expect("universe is a tuple");
        let dbv = t.get_or_insert_with(db.clone(), Value::empty_tuple);
        let dbt = dbv
            .as_tuple_mut()
            .ok_or_else(|| StorageError::ShapeViolation(format!("database {db} is not a tuple")))?;
        if dbt.contains(rel.as_str()) {
            return Err(StorageError::AlreadyExists(format!("relation {db}.{rel}")));
        }
        dbt.insert(rel.clone(), Value::empty_set());
        self.record(ChangeScope::Database { db });
        Ok(())
    }

    /// Drops a relation.
    pub fn drop_relation(&mut self, db: &str, rel: &str) -> StorageResult<()> {
        let dbv = Path::new([db])
            .get_mut(&mut self.universe)
            .ok_or_else(|| StorageError::NoSuchDatabase(Name::new(db)))?;
        let dbt = dbv
            .as_tuple_mut()
            .ok_or_else(|| StorageError::ShapeViolation(format!("database {db} is not a tuple")))?;
        if dbt.remove(rel).is_none() {
            return Err(StorageError::NoSuchRelation(Name::new(db), Name::new(rel)));
        }
        self.record(ChangeScope::Database { db: Name::new(db) });
        Ok(())
    }

    // ---- data plane ----------------------------------------------------

    /// Inserts a tuple into `db.rel`, creating database and relation on
    /// demand. Returns whether the set grew (false = duplicate).
    pub fn insert(
        &mut self,
        db: impl Into<Name>,
        rel: impl Into<Name>,
        tuple: Value,
    ) -> StorageResult<bool> {
        let db = db.into();
        let rel = rel.into();
        let t = self.universe.as_tuple_mut().expect("universe is a tuple");
        let dbv = t.get_or_insert_with(db.clone(), Value::empty_tuple);
        let dbt = dbv
            .as_tuple_mut()
            .ok_or_else(|| StorageError::ShapeViolation(format!("database {db} is not a tuple")))?;
        let relv = dbt.get_or_insert_with(rel.clone(), Value::empty_set);
        let rels = relv
            .as_set_mut()
            .ok_or_else(|| StorageError::ShapeViolation(format!("{db}.{rel} is not a set")))?;
        let grew = rels.insert(tuple);
        self.record(ChangeScope::Relation { db, rel });
        Ok(grew)
    }

    /// Deletes every tuple of `db.rel` satisfying `pred`; returns the count.
    pub fn delete_where(
        &mut self,
        db: &str,
        rel: &str,
        pred: impl FnMut(&Value) -> bool,
    ) -> StorageResult<usize> {
        let removed = {
            let relv = Path::new([db, rel])
                .get_mut(&mut self.universe)
                .ok_or_else(|| StorageError::NoSuchRelation(Name::new(db), Name::new(rel)))?;
            let rels = relv
                .as_set_mut()
                .ok_or_else(|| StorageError::ShapeViolation(format!("{db}.{rel} is not a set")))?;
            rels.remove_if(pred)
        };
        self.record(ChangeScope::Relation { db: Name::new(db), rel: Name::new(rel) });
        Ok(removed)
    }

    /// Removes the given tuples from `db.rel` by value (one lookup each,
    /// no scan of the relation); returns how many were present.
    pub fn remove_rows<'v>(
        &mut self,
        db: &str,
        rel: &str,
        rows: impl IntoIterator<Item = &'v Value>,
    ) -> StorageResult<usize> {
        let removed = {
            let relv = Path::new([db, rel])
                .get_mut(&mut self.universe)
                .ok_or_else(|| StorageError::NoSuchRelation(Name::new(db), Name::new(rel)))?;
            let rels = relv
                .as_set_mut()
                .ok_or_else(|| StorageError::ShapeViolation(format!("{db}.{rel} is not a set")))?;
            rows.into_iter().filter(|row| rels.remove(row)).count()
        };
        self.record(ChangeScope::Relation { db: Name::new(db), rel: Name::new(rel) });
        Ok(removed)
    }

    /// General mutation hook used by the evaluator's update semantics: `f`
    /// gets the whole universe; `scope` declares what it may touch (used
    /// for cache invalidation, so over-approximate when unsure).
    pub fn mutate<R>(&mut self, scope: ChangeScope, f: impl FnOnce(&mut Value) -> R) -> R {
        let r = f(&mut self.universe);
        self.record(scope);
        r
    }

    // ---- caches ----------------------------------------------------------

    /// An index on `db.rel.attr`, built or reused as needed.
    pub fn index(
        &self,
        db: &str,
        rel: &str,
        attr: &str,
        kind: IndexKind,
    ) -> StorageResult<Arc<Index>> {
        let key = (Name::new(db), Name::new(rel), Name::new(attr), kind);
        // Build while holding the caches lock: concurrent fixpoint workers
        // that race for the same missing index then build it once and share
        // the Arc, instead of each paying the O(n) build redundantly.
        let mut caches = self.caches.lock();
        if let Some((built_at, idx)) = caches.indexes.get(&key) {
            let stale = self.journal.since(*built_at).iter().any(|c| c.scope.touches(db, rel));
            if !stale {
                return Ok(Arc::clone(idx));
            }
        }
        let relset = self.relation(db, rel)?;
        let idx = Arc::new(Index::build(kind, relset, &Name::new(attr)));
        caches.indexes.insert(key, (self.version, Arc::clone(&idx)));
        Ok(idx)
    }

    /// Takes over the indexes `prev` has built, for a store holding a
    /// later universe (the next snapshot of the same engine). An index
    /// over a relation the two stores share unchanged is shared; one over
    /// a relation that changed is patched by the rows that left and
    /// joined it ([`Index::patched`]); one over a relation this store
    /// lacks is dropped. Readers of this store then start warm instead of
    /// rebuilding every index they probe.
    pub fn adopt_indexes(&self, prev: &Store) {
        let built: Vec<_> = {
            let caches = prev.caches.lock();
            caches
                .indexes
                .iter()
                .filter(|((db, rel, ..), (built_at, _))| {
                    !prev
                        .journal
                        .since(*built_at)
                        .iter()
                        .any(|c| c.scope.touches(db.as_str(), rel.as_str()))
                })
                .map(|(key, (_, idx))| (key.clone(), Arc::clone(idx)))
                .collect()
        };
        let mut adopted = Vec::with_capacity(built.len());
        for (key, idx) in built {
            let (db, rel, attr, _) = &key;
            let (Ok(old), Ok(new)) = (
                prev.relation(db.as_str(), rel.as_str()),
                self.relation(db.as_str(), rel.as_str()),
            ) else {
                continue;
            };
            let idx = if old.shares_with(new) {
                idx
            } else {
                let (gone, added) = old.diff(new);
                Arc::new(idx.patched(attr, &gone, &added))
            };
            adopted.push((key, idx));
        }
        let mut caches = self.caches.lock();
        for (key, idx) in adopted {
            caches.indexes.entry(key).or_insert((self.version, idx));
        }
    }

    /// Statistics for `db.rel`, computed or reused as needed.
    pub fn stats(&self, db: &str, rel: &str) -> StorageResult<Arc<RelStats>> {
        let key = (Name::new(db), Name::new(rel));
        {
            let caches = self.caches.lock();
            if let Some((built_at, st)) = caches.stats.get(&key) {
                let stale = self.journal.since(*built_at).iter().any(|c| c.scope.touches(db, rel));
                if !stale {
                    return Ok(Arc::clone(st));
                }
            }
        }
        let relset = self.relation(db, rel)?;
        let st = Arc::new(RelStats::compute(relset));
        self.caches.lock().stats.insert(key, (self.version, Arc::clone(&st)));
        Ok(st)
    }

    // ---- transactions ---------------------------------------------------

    /// Opens the transaction: snapshots the universe. The snapshot is an
    /// O(1) copy-on-write handle (Arc-backed interiors); later mutations
    /// deep-copy only the spine they touch. Transactions do not nest: a
    /// request runs in exactly one, so a `begin` while one is open is a
    /// programming error and panics.
    pub fn begin(&mut self) {
        assert!(self.txn.is_none(), "a transaction is already open");
        self.txn =
            Some(TxnFrame { saved_universe: self.universe.clone(), saved_version: self.version });
    }

    /// Commits the open transaction (keeps changes).
    pub fn commit(&mut self) -> StorageResult<()> {
        self.txn.take().map(|_| ()).ok_or(StorageError::NoOpenTransaction)
    }

    /// Rolls the open transaction back, restoring the snapshot. The
    /// restore re-journals each scope the transaction recorded, once, so
    /// readers of the journal see exactly where the universe moved; only
    /// when the journal no longer holds the whole frame is it recorded as
    /// [`ChangeScope::Universe`]. The version stays monotonic.
    pub fn rollback(&mut self) -> StorageResult<()> {
        let frame = self.txn.take().ok_or(StorageError::NoOpenTransaction)?;
        self.universe = frame.saved_universe;
        let undone = self.journal.since(frame.saved_version);
        let mut scopes: Vec<ChangeScope> = Vec::new();
        if undone.len() as Version == self.version - frame.saved_version {
            for rec in undone {
                if !scopes.contains(&rec.scope) {
                    scopes.push(rec.scope.clone());
                }
            }
        } else {
            scopes.push(ChangeScope::Universe);
        }
        for scope in scopes {
            self.record(scope);
        }
        Ok(())
    }

    fn record(&mut self, scope: ChangeScope) {
        self.version += 1;
        self.journal.push(ChangeRecord { version: self.version, scope });
    }

    /// Truncates the change journal up to (and including) `upto`, or up
    /// to the pinned version if that is older, bounding its memory for
    /// long-running stores. A cached index or statistics entry built
    /// before the cut is re-stamped when the journal still proves its
    /// relation untouched since, and dropped otherwise (it rebuilds
    /// lazily). Readers that were tracking changes (view repair) must
    /// have consumed the journal past `upto` first.
    pub fn checkpoint(&mut self, upto: Version) {
        let upto = self.journal_pin.map_or(upto, |pin| pin.min(upto));
        if self.journal.since(upto).len() == self.journal.len() {
            return;
        }
        let (journal, version) = (&self.journal, self.version);
        let keep = |db: &Name, rel: &Name, built_at: &mut Version| {
            if *built_at >= upto {
                return true;
            }
            let fresh = !journal
                .since(*built_at)
                .iter()
                .any(|c| c.scope.touches(db.as_str(), rel.as_str()));
            if fresh {
                *built_at = version;
            }
            fresh
        };
        let mut caches = self.caches.lock();
        caches.indexes.retain(|(db, rel, ..), (built_at, _)| keep(db, rel, built_at));
        caches.stats.retain(|(db, rel), (built_at, _)| keep(db, rel, built_at));
        drop(caches);
        self.journal.truncate_before(upto);
    }

    /// Keeps only the newest journal record of each scope (see
    /// [`Journal::compact`]), bounding the journal by the number of scopes
    /// written rather than the number of writes. Call it outside any
    /// transaction: a rollback counts its frame's records.
    pub fn compact_journal(&mut self) {
        debug_assert!(self.txn.is_none(), "compacting inside a transaction");
        self.journal.compact();
    }

    /// Keeps every journal record newer than `version` through later
    /// [`Store::checkpoint`]s: a reader that will still ask for
    /// `changes_since(version)` (a durable engine's next in-place
    /// checkpoint) pins it here.
    pub fn pin_journal(&mut self, version: Version) {
        self.journal_pin = Some(version);
    }

    /// Number of retained journal records (diagnostics).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::tuple;

    fn seeded() -> Store {
        let mut s = Store::new();
        s.insert("euter", "r", tuple! { stkCode: "hp", clsPrice: 50i64 }).unwrap();
        s.insert("euter", "r", tuple! { stkCode: "ibm", clsPrice: 160i64 }).unwrap();
        s
    }

    #[test]
    fn catalog_basics() {
        let mut s = seeded();
        assert_eq!(s.database_names().len(), 1);
        assert_eq!(s.relation_names("euter").unwrap().len(), 1);
        assert_eq!(s.relation("euter", "r").unwrap().len(), 2);
        assert!(matches!(s.relation("nope", "r"), Err(StorageError::NoSuchDatabase(_))));
        assert!(matches!(s.relation("euter", "s"), Err(StorageError::NoSuchRelation(..))));
        s.create_database("chwab").unwrap();
        assert!(s.create_database("chwab").is_err());
        s.create_relation("chwab", "r").unwrap();
        assert!(s.create_relation("chwab", "r").is_err());
        s.drop_relation("chwab", "r").unwrap();
        s.drop_database("chwab").unwrap();
        assert!(!s.has_database("chwab"));
    }

    #[test]
    fn insert_dedups_and_delete_where() {
        let mut s = seeded();
        assert!(!s.insert("euter", "r", tuple! { stkCode: "hp", clsPrice: 50i64 }).unwrap());
        let n =
            s.delete_where("euter", "r", |t| t.attr("stkCode") == Some(&Value::str("hp"))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.relation("euter", "r").unwrap().len(), 1);
    }

    #[test]
    fn remove_rows_removes_by_value_and_invalidates_indexes() {
        let mut s = seeded();
        let idx = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        let gone = [
            tuple! { stkCode: "hp", clsPrice: 50i64 },
            tuple! { stkCode: "hp", clsPrice: 50.0f64 }, // another value: not present
        ];
        assert_eq!(s.remove_rows("euter", "r", &gone).unwrap(), 1);
        assert_eq!(s.relation("euter", "r").unwrap().len(), 1);
        let fresh = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(!Arc::ptr_eq(&idx, &fresh), "the removal invalidates the cached index");
        assert!(s.remove_rows("euter", "nope", &gone).is_err());
    }

    #[test]
    fn index_reuse_and_invalidation() {
        let mut s = seeded();
        let i1 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        let i2 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(Arc::ptr_eq(&i1, &i2), "index is cached");
        assert_eq!(i1.lookup_eq(&Value::str("hp")).len(), 1);

        s.insert("euter", "r", tuple! { stkCode: "hp", clsPrice: 55i64 }).unwrap();
        let i3 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(!Arc::ptr_eq(&i1, &i3), "mutation invalidates");
        assert_eq!(i3.lookup_eq(&Value::str("hp")).len(), 2);

        // unrelated relation change does not invalidate
        s.insert("chwab", "r", tuple! { date: "3/3/85" }).unwrap();
        let i4 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(Arc::ptr_eq(&i3, &i4));
    }

    #[test]
    fn stats_cache() {
        let mut s = seeded();
        let st = s.stats("euter", "r").unwrap();
        assert_eq!(st.cardinality, 2);
        s.insert("euter", "r", tuple! { stkCode: "sun", clsPrice: 30i64 }).unwrap();
        let st2 = s.stats("euter", "r").unwrap();
        assert_eq!(st2.cardinality, 3);
    }

    #[test]
    fn a_transaction_rolls_back_or_commits() {
        let mut s = seeded();
        s.begin();
        s.insert("euter", "r", tuple! { stkCode: "sun", clsPrice: 30i64 }).unwrap();
        assert_eq!(s.relation("euter", "r").unwrap().len(), 3);
        s.rollback().unwrap();
        assert_eq!(s.relation("euter", "r").unwrap().len(), 2);
        assert!(s.rollback().is_err());

        s.begin();
        s.insert("euter", "r", tuple! { stkCode: "y", clsPrice: 2i64 }).unwrap();
        s.commit().unwrap();
        assert_eq!(s.relation("euter", "r").unwrap().len(), 3, "a commit keeps the changes");
        assert!(s.commit().is_err(), "the commit closed the transaction");
        s.begin();
        s.rollback().unwrap();
        assert_eq!(s.relation("euter", "r").unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "a transaction is already open")]
    fn a_nested_begin_panics() {
        let mut s = seeded();
        s.begin();
        s.begin();
    }

    #[test]
    fn a_later_store_adopts_shared_and_patched_indexes() {
        let prev = seeded();
        let hp = prev.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        let mut writer = Store::from_universe(prev.universe().clone()).unwrap();
        writer.insert("chwab", "r", tuple! { date: "d1", hp: 1i64 }).unwrap();
        let next = Store::from_universe(writer.universe().clone()).unwrap();
        next.adopt_indexes(&prev);
        let shared = next.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(Arc::ptr_eq(&hp, &shared), "an unchanged relation shares its index");

        writer.insert("euter", "r", tuple! { stkCode: "sun", clsPrice: 7i64 }).unwrap();
        writer.remove_rows("euter", "r", &[tuple! { stkCode: "hp", clsPrice: 50i64 }]).unwrap();
        let later = Store::from_universe(writer.universe().clone()).unwrap();
        later.adopt_indexes(&next);
        let patched = later.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        let built = Index::build(
            IndexKind::Hash,
            later.relation("euter", "r").unwrap(),
            &Name::new("stkCode"),
        );
        assert_eq!(*patched, built, "a changed relation's index is patched to a build's");
        assert!(patched.lookup_eq(&Value::str("hp")).is_empty());
    }

    #[test]
    fn rollback_invalidates_indexes() {
        let mut s = seeded();
        s.begin();
        s.insert("euter", "r", tuple! { stkCode: "sun", clsPrice: 30i64 }).unwrap();
        let i1 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(i1.lookup_eq(&Value::str("sun")).len(), 1);
        s.rollback().unwrap();
        let i2 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(i2.lookup_eq(&Value::str("sun")).len(), 0);
    }

    #[test]
    fn rollback_journals_the_frame_scopes_once() {
        let mut s = seeded();
        let v0 = s.version();
        s.begin();
        s.rollback().unwrap();
        assert_eq!(s.version(), v0, "an empty frame restores nothing");
        s.begin();
        s.insert("euter", "r", tuple! { stkCode: "a", clsPrice: 1i64 }).unwrap();
        s.insert("euter", "r", tuple! { stkCode: "b", clsPrice: 2i64 }).unwrap();
        s.create_database("chwab").unwrap();
        let v1 = s.version();
        s.rollback().unwrap();
        let undone: Vec<ChangeScope> =
            s.changes_since(v1).iter().map(|c| c.scope.clone()).collect();
        assert_eq!(
            undone,
            [
                ChangeScope::Relation { db: Name::new("euter"), rel: Name::new("r") },
                ChangeScope::Database { db: Name::new("chwab") },
            ]
        );
        // a journal truncated inside the frame can no longer say what moved
        s.begin();
        s.insert("euter", "r", tuple! { stkCode: "c", clsPrice: 3i64 }).unwrap();
        let v2 = s.version();
        s.checkpoint(v2);
        s.rollback().unwrap();
        assert_eq!(s.changes_since(v2)[0].scope, ChangeScope::Universe);
    }

    #[test]
    fn mutate_hook_records_scope() {
        let mut s = seeded();
        let v0 = s.version();
        s.mutate(ChangeScope::Universe, |u| {
            u.as_tuple_mut().unwrap().insert("newdb", Value::empty_tuple());
        });
        assert!(s.version() > v0);
        assert!(s.has_database("newdb"));
        assert_eq!(s.changes_since(v0).len(), 1);
    }

    #[test]
    fn checkpoint_bounds_journal_and_keeps_indexes_sound() {
        let mut s = seeded();
        for i in 0..20i64 {
            s.insert("euter", "r", tuple! { stkCode: "x", clsPrice: i }).unwrap();
        }
        let idx_before = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(idx_before.lookup_eq(&Value::str("x")).len(), 20);
        let v = s.version();
        s.checkpoint(v);
        assert_eq!(s.journal_len(), 0);
        // the cached index was built at version == v, so it survives …
        let idx_after = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(idx_after.lookup_eq(&Value::str("x")).len(), 20);
        // … and later mutations still invalidate it correctly
        s.insert("euter", "r", tuple! { stkCode: "x", clsPrice: 99i64 }).unwrap();
        let idx_fresh = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(idx_fresh.lookup_eq(&Value::str("x")).len(), 21);
    }

    #[test]
    fn checkpoint_drops_unverifiable_caches() {
        let mut s = seeded();
        let idx = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        // mutate, then checkpoint past the mutation: the old index is
        // stale, so it must have been dropped rather than wrongly reused
        s.insert("euter", "r", tuple! { stkCode: "hp", clsPrice: 1i64 }).unwrap();
        let v = s.version();
        s.checkpoint(v);
        let idx2 = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert!(!Arc::ptr_eq(&idx, &idx2));
        assert_eq!(idx2.lookup_eq(&Value::str("hp")).len(), 2);
    }

    #[test]
    fn checkpoint_restamps_caches_of_untouched_relations() {
        let mut s = seeded();
        s.insert("chwab", "r", tuple! { date: "3/3/85", hp: 50i64 }).unwrap();
        let idx = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        let st = s.stats("euter", "r").unwrap();
        // writes elsewhere, then a cut past the index's build version
        s.insert("chwab", "r", tuple! { date: "3/4/85", hp: 62i64 }).unwrap();
        let v = s.version();
        s.checkpoint(v);
        assert_eq!(s.journal_len(), 0);
        assert!(Arc::ptr_eq(&idx, &s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap()));
        assert!(Arc::ptr_eq(&st, &s.stats("euter", "r").unwrap()));
        // the re-stamped entry still goes stale on the next write to it
        s.insert("euter", "r", tuple! { stkCode: "sun", clsPrice: 1i64 }).unwrap();
        let fresh = s.index("euter", "r", "stkCode", IndexKind::Hash).unwrap();
        assert_eq!(fresh.lookup_eq(&Value::str("sun")).len(), 1);
    }

    #[test]
    fn checkpoint_keeps_the_pinned_records() {
        let mut s = seeded();
        let pin = s.version();
        s.pin_journal(pin);
        s.insert("euter", "r", tuple! { stkCode: "a", clsPrice: 1i64 }).unwrap();
        s.insert("euter", "r", tuple! { stkCode: "b", clsPrice: 2i64 }).unwrap();
        let v = s.version();
        s.checkpoint(v);
        assert_eq!(s.changes_since(pin).len(), 2, "records after the pin survive");
        assert_eq!(s.journal_len(), 2);
        s.pin_journal(v);
        s.checkpoint(v);
        assert_eq!(s.journal_len(), 0);
    }

    #[test]
    fn from_universe_validates() {
        assert!(Store::from_universe(Value::int(1)).is_err());
        let u = idl_object::universe::stock_universe(vec![("3/3/85", "hp", 50.0)]);
        let s = Store::from_universe(u).unwrap();
        assert_eq!(s.database_names().len(), 3);
    }
}
