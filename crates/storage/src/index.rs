//! Secondary indexes over relation attributes.
//!
//! An index maps the value of one attribute to the (whole) tuples carrying
//! it. Two kinds exist: hash indexes serve equality probes, B-tree indexes
//! additionally serve range probes (`<`, `<=`, `>`, `>=`). Because IDL
//! updates can restructure a relation arbitrarily, indexes are rebuilt from
//! the relation's current contents whenever the store's journal shows the
//! relation changed since the index was built (lazy maintenance).
//!
//! Index entries are copy-on-write *handles* onto the relation's own
//! tuples (`Value` clones are O(1) Arc bumps), so building an index never
//! deep-copies tuple contents, and lookups hand back borrowed slices over
//! those shared handles — no cloning on the probe path either.

use idl_object::{Name, SetObj, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// Which index structure to build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IndexKind {
    /// Equality probes only.
    Hash,
    /// Equality and range probes.
    BTree,
}

/// A built index over one attribute of one relation.
#[derive(Debug, PartialEq)]
pub enum Index {
    /// Hash-backed.
    Hash(HashMap<Value, Vec<Value>>),
    /// Ordered.
    BTree(BTreeMap<Value, Vec<Value>>),
}

impl Index {
    /// Builds an index of `kind` on `attr` over the tuples of `rel`.
    ///
    /// Tuples without the attribute are not indexed (they can never satisfy
    /// a `.attr α c` probe through the index; scans still see them).
    pub fn build(kind: IndexKind, rel: &SetObj, attr: &Name) -> Index {
        match kind {
            IndexKind::Hash => {
                let mut m: HashMap<Value, Vec<Value>> = HashMap::new();
                for t in rel.iter() {
                    if let Some(v) = t.as_tuple().and_then(|t| t.get(attr.as_str())) {
                        m.entry(v.clone()).or_default().push(t.clone());
                    }
                }
                Index::Hash(m)
            }
            IndexKind::BTree => {
                let mut m: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
                for t in rel.iter() {
                    if let Some(v) = t.as_tuple().and_then(|t| t.get(attr.as_str())) {
                        m.entry(v.clone()).or_default().push(t.clone());
                    }
                }
                Index::BTree(m)
            }
        }
    }

    /// This index after the `gone` tuples left its relation and the
    /// `added` ones joined it, each in `Ord` order (as [`SetObj::diff`]
    /// returns them): equal to a build over the new relation, at the cost
    /// of a copy of the entries and a re-sort of the keys that changed,
    /// not of hashing every tuple again.
    pub fn patched(&self, attr: &Name, gone: &[Value], added: &[Value]) -> Index {
        let key_of = |t: &Value| t.as_tuple().and_then(|t| t.get(attr.as_str())).cloned();
        // changed key → (tuples that left it, tuples that joined it)
        let mut changes: BTreeMap<Value, (Vec<&Value>, Vec<&Value>)> = BTreeMap::new();
        for t in gone {
            if let Some(k) = key_of(t) {
                changes.entry(k).or_default().0.push(t);
            }
        }
        for t in added {
            if let Some(k) = key_of(t) {
                changes.entry(k).or_default().1.push(t);
            }
        }
        let mut out = match self {
            Index::Hash(m) => Index::Hash(m.clone()),
            Index::BTree(m) => Index::BTree(m.clone()),
        };
        for (key, (left, joined)) in changes {
            let mut tuples: Vec<Value> = out
                .lookup_eq(&key)
                .iter()
                .filter(|t| left.binary_search(t).is_err())
                .chain(joined)
                .cloned()
                .collect();
            tuples.sort();
            match &mut out {
                Index::Hash(m) if tuples.is_empty() => drop(m.remove(&key)),
                Index::Hash(m) => drop(m.insert(key, tuples)),
                Index::BTree(m) if tuples.is_empty() => drop(m.remove(&key)),
                Index::BTree(m) => drop(m.insert(key, tuples)),
            }
        }
        out
    }

    /// Tuples whose indexed attribute equals `key`.
    pub fn lookup_eq(&self, key: &Value) -> &[Value] {
        match self {
            Index::Hash(m) => m.get(key).map_or(&[], Vec::as_slice),
            Index::BTree(m) => m.get(key).map_or(&[], Vec::as_slice),
        }
    }

    /// Tuples whose indexed attribute lies in the given bounds (B-tree
    /// indexes only; hash indexes return `None`).
    ///
    /// NB: bounds follow the *structural* order on [`Value`]. The evaluator
    /// only pushes range probes down when the key type matches the stored
    /// type, where structural and query order agree.
    pub fn lookup_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Option<Vec<&Value>> {
        match self {
            Index::Hash(_) => None,
            Index::BTree(m) => {
                let mut out = Vec::new();
                for (_k, tuples) in m.range::<Value, _>((lower, upper)) {
                    out.extend(tuples.iter());
                }
                Some(out)
            }
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match self {
            Index::Hash(m) => m.len(),
            Index::BTree(m) => m.len(),
        }
    }

    /// Total indexed tuples.
    pub fn entry_count(&self) -> usize {
        match self {
            Index::Hash(m) => m.values().map(Vec::len).sum(),
            Index::BTree(m) => m.values().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl_object::tuple;

    fn rel() -> SetObj {
        let mut s = SetObj::new();
        for (code, price) in [("hp", 50i64), ("ibm", 160), ("hp2", 50)] {
            s.insert(tuple! { stkCode: code, clsPrice: price });
        }
        // heterogeneous straggler without the attribute
        s.insert(tuple! { other: 1i64 });
        s
    }

    #[test]
    fn hash_eq_lookup() {
        let idx = Index::build(IndexKind::Hash, &rel(), &Name::new("clsPrice"));
        assert_eq!(idx.lookup_eq(&Value::int(50)).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::int(160)).len(), 1);
        assert_eq!(idx.lookup_eq(&Value::int(999)).len(), 0);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entry_count(), 3, "tuple without attr is skipped");
        assert!(idx.lookup_range(Bound::Unbounded, Bound::Unbounded).is_none());
    }

    #[test]
    fn patched_equals_a_build_over_the_new_relation() {
        let old = rel();
        let mut new = old.clone();
        new.remove(&tuple! { stkCode: "hp", clsPrice: 50i64 });
        new.remove(&tuple! { stkCode: "ibm", clsPrice: 160i64 });
        new.insert(tuple! { stkCode: "sun", clsPrice: 50i64 });
        new.insert(tuple! { stkCode: "dec", clsPrice: 7i64 });
        new.insert(tuple! { stkCode: "hp", clsPrice: 50.0f64 });
        new.insert(tuple! { other: 2i64 });
        let (gone, added) = old.diff(&new);
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            for attr in ["clsPrice", "stkCode", "other"] {
                let attr = Name::new(attr);
                let patched = Index::build(kind, &old, &attr).patched(&attr, &gone, &added);
                assert_eq!(patched, Index::build(kind, &new, &attr), "{kind:?} on {attr}");
            }
        }
    }

    #[test]
    fn btree_range_lookup() {
        let idx = Index::build(IndexKind::BTree, &rel(), &Name::new("clsPrice"));
        let hits = idx.lookup_range(Bound::Excluded(&Value::int(50)), Bound::Unbounded).unwrap();
        assert_eq!(hits.len(), 1);
        let hits = idx
            .lookup_range(Bound::Included(&Value::int(50)), Bound::Included(&Value::int(160)))
            .unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn string_keys() {
        let idx = Index::build(IndexKind::Hash, &rel(), &Name::new("stkCode"));
        assert_eq!(idx.lookup_eq(&Value::str("hp")).len(), 1);
    }

    #[test]
    fn entries_share_interiors_with_the_relation() {
        let r = rel();
        let idx = Index::build(IndexKind::Hash, &r, &Name::new("stkCode"));
        let hit = &idx.lookup_eq(&Value::str("hp"))[0];
        let orig = r
            .iter()
            .find(|t| t.as_tuple().is_some_and(|t| t.get("stkCode") == Some(&Value::str("hp"))))
            .unwrap();
        assert!(
            hit.as_tuple().unwrap().shares_with(orig.as_tuple().unwrap()),
            "index stores CoW handles, not deep copies"
        );
    }
}
