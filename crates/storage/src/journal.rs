//! Coarse-grained change journal.
//!
//! Every mutating operation on the [`Store`](crate::store::Store) appends a
//! [`ChangeRecord`] describing *where* the universe changed, at the finest
//! granularity the store can prove: a single relation, a database, or the
//! whole universe. The rule engine uses `changes_since` to decide which
//! materialised views must be refreshed, and the index/statistics caches use
//! it for invalidation.

use idl_object::Name;
use serde::{Deserialize, Serialize};

/// How much of the universe a change may have touched.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ChangeScope {
    /// One relation's subtree.
    Relation {
        /// The database name.
        db: Name,
        /// The relation name.
        rel: Name,
    },
    /// One database's subtree (e.g. a relation was created or dropped).
    Database {
        /// The database name.
        db: Name,
    },
    /// Anything (unscoped universe mutation).
    Universe,
}

impl ChangeScope {
    /// Whether a change with this scope can affect the given relation.
    pub fn touches(&self, db: &str, rel: &str) -> bool {
        match self {
            ChangeScope::Relation { db: d, rel: r } => d == db && r == rel,
            ChangeScope::Database { db: d } => d == db,
            ChangeScope::Universe => true,
        }
    }

    /// Whether a change with this scope can affect the given database.
    pub fn touches_db(&self, db: &str) -> bool {
        match self {
            ChangeScope::Relation { db: d, .. } | ChangeScope::Database { db: d } => d == db,
            ChangeScope::Universe => true,
        }
    }
}

/// One journal entry.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ChangeRecord {
    /// Store version *after* the change was applied.
    pub version: u64,
    /// Scope of the change.
    pub scope: ChangeScope,
}

/// Append-only journal with truncation support.
#[derive(Default, Debug, Clone, Serialize, Deserialize)]
pub struct Journal {
    records: Vec<ChangeRecord>,
}

impl Journal {
    /// Empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: ChangeRecord) {
        self.records.push(record);
    }

    /// Records with `version > since`, oldest first.
    pub fn since(&self, since: u64) -> &[ChangeRecord] {
        let idx = self.records.partition_point(|r| r.version <= since);
        &self.records[idx..]
    }

    /// Total records retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops records with `version <= upto` (checkpointing).
    pub fn truncate_before(&mut self, upto: u64) {
        let idx = self.records.partition_point(|r| r.version <= upto);
        self.records.drain(..idx);
    }

    /// Keeps only the newest record of each scope. [`Journal::since`]
    /// still yields the same set of scopes for every version, because a
    /// scope changed after `v` exactly when its newest record is newer
    /// than `v`; only the count of records per scope is lost.
    pub fn compact(&mut self) {
        let mut newest: Vec<ChangeRecord> = Vec::with_capacity(self.records.len());
        for rec in self.records.drain(..).rev() {
            if !newest.iter().any(|n| n.scope == rec.scope) {
                newest.push(rec);
            }
        }
        newest.reverse();
        self.records = newest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(version: u64, db: &str) -> ChangeRecord {
        ChangeRecord { version, scope: ChangeScope::Database { db: Name::new(db) } }
    }

    #[test]
    fn since_partitions_correctly() {
        let mut j = Journal::new();
        for v in 1..=5 {
            j.push(rec(v, "euter"));
        }
        assert_eq!(j.since(0).len(), 5);
        assert_eq!(j.since(3).len(), 2);
        assert_eq!(j.since(5).len(), 0);
    }

    #[test]
    fn truncate_drops_old() {
        let mut j = Journal::new();
        for v in 1..=5 {
            j.push(rec(v, "euter"));
        }
        j.truncate_before(3);
        assert_eq!(j.len(), 2);
        assert_eq!(j.since(0).len(), 2);
    }

    #[test]
    fn compact_keeps_the_scopes_changed_since_every_version() {
        let mut j = Journal::new();
        for (v, db) in [(1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "a")] {
            j.push(rec(v, db));
        }
        let scopes_since = |j: &Journal, v| {
            let mut dbs: Vec<String> = j
                .since(v)
                .iter()
                .map(|r| match &r.scope {
                    ChangeScope::Database { db } => db.as_str().to_string(),
                    other => panic!("{other:?}"),
                })
                .collect();
            dbs.sort();
            dbs.dedup();
            dbs
        };
        let before: Vec<_> = (0..=5).map(|v| scopes_since(&j, v)).collect();
        j.compact();
        assert_eq!(j.len(), 3);
        assert_eq!((0..=5).map(|v| scopes_since(&j, v)).collect::<Vec<_>>(), before);
    }

    #[test]
    fn scope_touches() {
        let r = ChangeScope::Relation { db: Name::new("euter"), rel: Name::new("r") };
        assert!(r.touches("euter", "r"));
        assert!(!r.touches("euter", "s"));
        assert!(!r.touches("chwab", "r"));
        assert!(r.touches_db("euter"));

        let d = ChangeScope::Database { db: Name::new("euter") };
        assert!(d.touches("euter", "anything"));
        assert!(!d.touches("chwab", "r"));

        assert!(ChangeScope::Universe.touches("x", "y"));
    }
}
