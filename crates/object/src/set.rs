//! Set objects: value-based sets of heterogeneous objects.

use crate::{sharing, Value};
use serde::{Deserialize, Serialize};
use std::collections::btree_set::{self, BTreeSet};
use std::sync::Arc;

/// A set object `{o1, o2, …}` (paper §3).
///
/// * **Value-based**: membership and equality are structural; inserting an
///   element twice is a no-op.
/// * **Heterogeneous**: members may be any mix of atoms, tuples of varying
///   arity, and sets — the property the paper relies on for attribute
///   deletion from a *single* tuple (§5.2).
/// * **Deterministic**: iteration is in the total `Ord` order on [`Value`],
///   so answers, displays and fixpoints are reproducible.
///
/// The interior set is behind an [`Arc`]: `clone` is an O(1) handle copy
/// and every `&mut` accessor routes through copy-on-write
/// (`Arc::make_mut`). Sharing is invisible to the value semantics —
/// `Eq`/`Ord`/`Hash` stay structural (with a pointer-equality fast path)
/// and the serde byte format is the bare set, unchanged.
#[derive(Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SetObj {
    elems: Arc<BTreeSet<Value>>,
}

impl SetObj {
    /// An empty set.
    pub fn new() -> Self {
        SetObj { elems: Arc::new(BTreeSet::new()) }
    }

    /// Copy-on-write access to the interior set: deep-copies it first iff
    /// it is shared with another handle (and counts the break).
    fn elems_mut(&mut self) -> &mut BTreeSet<Value> {
        if Arc::strong_count(&self.elems) > 1 {
            sharing::record_cow_break();
        }
        Arc::make_mut(&mut self.elems)
    }

    /// Number of (distinct) elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: impl Into<Value>) -> bool {
        let value = value.into();
        // Read-check first: a duplicate insert must not break sharing.
        if self.elems.contains(&value) {
            return false;
        }
        self.elems_mut().insert(value)
    }

    /// Structural membership test.
    pub fn contains(&self, value: &Value) -> bool {
        self.elems.contains(value)
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &Value) -> bool {
        // Read-check first: a miss must not break sharing.
        if !self.elems.contains(value) {
            return false;
        }
        self.elems_mut().remove(value)
    }

    /// Removes every element satisfying the predicate, returning how many
    /// were removed. This is the engine of the set-minus update `-(exp)`.
    pub fn remove_if(&mut self, mut pred: impl FnMut(&Value) -> bool) -> usize {
        if Arc::strong_count(&self.elems) > 1 {
            // Scan read-only first so a no-match sweep keeps sharing intact.
            if !self.elems.iter().any(&mut pred) {
                return 0;
            }
            sharing::record_cow_break();
        }
        let elems = Arc::make_mut(&mut self.elems);
        let before = elems.len();
        elems.retain(|v| !pred(v));
        before - elems.len()
    }

    /// Drains all elements satisfying the predicate, returning them. Used by
    /// updates that must *modify* matching elements (remove + re-insert,
    /// since elements of a `BTreeSet` are immutable in place).
    pub fn take_if(&mut self, mut pred: impl FnMut(&Value) -> bool) -> Vec<Value> {
        let taken: Vec<Value> = self.elems.iter().filter(|v| pred(v)).cloned().collect();
        if taken.is_empty() {
            return taken;
        }
        let elems = self.elems_mut();
        for v in &taken {
            elems.remove(v);
        }
        taken
    }

    /// Iterates elements in `Ord` order.
    pub fn iter(&self) -> btree_set::Iter<'_, Value> {
        self.elems.iter()
    }

    /// Set union (value-based).
    pub fn union_with(&mut self, other: &SetObj) {
        if self.is_empty() {
            // Adopt the other handle wholesale — keeps its sharing intact.
            *self = other.clone();
            return;
        }
        // Read-check first: a no-op union must not break sharing.
        if other.iter().all(|v| self.elems.contains(v)) {
            return;
        }
        let elems = self.elems_mut();
        for v in other.iter() {
            elems.insert(v.clone());
        }
    }

    /// The elements only in `self` and the elements only in `newer`, each
    /// in `Ord` order: one merge walk over the two sorted sets.
    pub fn diff(&self, newer: &SetObj) -> (Vec<Value>, Vec<Value>) {
        let (mut gone, mut added) = (Vec::new(), Vec::new());
        let (mut old_it, mut new_it) = (self.iter().peekable(), newer.iter().peekable());
        loop {
            match (old_it.peek(), new_it.peek()) {
                (Some(a), Some(b)) => match a.cmp(b) {
                    std::cmp::Ordering::Less => gone.extend(old_it.next().cloned()),
                    std::cmp::Ordering::Greater => added.extend(new_it.next().cloned()),
                    std::cmp::Ordering::Equal => {
                        old_it.next();
                        new_it.next();
                    }
                },
                _ => {
                    gone.extend(old_it.cloned());
                    added.extend(new_it.cloned());
                    return (gone, added);
                }
            }
        }
    }

    /// Whether `self` and `other` share one interior allocation (their
    /// equality is then decided without a structural walk). Test/telemetry
    /// introspection only — never affects semantics.
    pub fn shares_with(&self, other: &SetObj) -> bool {
        Arc::ptr_eq(&self.elems, &other.elems)
    }
}

impl Clone for SetObj {
    /// O(1): bumps the interior reference count (counted by
    /// [`sharing::SharingCounters::set_clones`]).
    fn clone(&self) -> Self {
        sharing::record_set_clone();
        SetObj { elems: Arc::clone(&self.elems) }
    }
}

impl PartialEq for SetObj {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.elems, &other.elems) {
            sharing::record_ptr_eq_hit();
            return true;
        }
        self.elems == other.elems
    }
}

impl Eq for SetObj {}

impl PartialOrd for SetObj {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SetObj {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.elems, &other.elems) {
            sharing::record_ptr_eq_hit();
            return std::cmp::Ordering::Equal;
        }
        self.elems.cmp(&other.elems)
    }
}

impl std::hash::Hash for SetObj {
    /// Structural: hashes the interior set, so a shared and an unshared
    /// handle with equal contents hash identically.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (*self.elems).hash(state);
    }
}

impl std::fmt::Debug for SetObj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.elems.iter()).finish()
    }
}

impl IntoIterator for SetObj {
    type Item = Value;
    type IntoIter = btree_set::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        match Arc::try_unwrap(self.elems) {
            Ok(set) => set.into_iter(),
            Err(shared) => {
                sharing::record_cow_break();
                (*shared).clone().into_iter()
            }
        }
    }
}

impl<'a> IntoIterator for &'a SetObj {
    type Item = &'a Value;
    type IntoIter = btree_set::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.elems.iter()
    }
}

impl<V: Into<Value>> FromIterator<V> for SetObj {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        SetObj { elems: Arc::new(iter.into_iter().map(Into::into).collect()) }
    }
}

impl<V: Into<Value>> Extend<V> for SetObj {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_dedups() {
        let mut s = SetObj::new();
        assert!(s.insert(Value::int(1)));
        assert!(!s.insert(Value::int(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn heterogeneous_members() {
        let mut s = SetObj::new();
        s.insert(Value::int(1));
        s.insert(tuple! { a: 1i64 });
        s.insert(tuple! { a: 1i64, b: 2i64 }); // different arity, same set
        s.insert(Value::empty_set());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn remove_if_counts() {
        let mut s: SetObj = (0..10i64).map(Value::int).collect();
        let removed = s.remove_if(|v| v.as_atom().unwrap().as_int().unwrap() % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(s.len(), 5);
        assert!(!s.contains(&Value::int(0)));
        assert!(s.contains(&Value::int(1)));
    }

    #[test]
    fn diff_walks_both_sets_once() {
        let old: SetObj = [1i64, 2, 4, 6].into_iter().map(Value::int).collect();
        let new: SetObj = [2i64, 3, 6, 7, 8].into_iter().map(Value::int).collect();
        let ints = |v: Vec<Value>| -> Vec<i64> {
            v.iter().map(|x| x.as_atom().unwrap().as_int().unwrap()).collect()
        };
        let (gone, added) = old.diff(&new);
        assert_eq!((ints(gone), ints(added)), (vec![1, 4], vec![3, 7, 8]));
        let (gone, added) = old.diff(&old.clone());
        assert!(gone.is_empty() && added.is_empty());
        let (gone, added) = SetObj::new().diff(&old);
        assert_eq!((gone.len(), added.len()), (0, 4));
    }

    #[test]
    fn take_if_drains() {
        let mut s: SetObj = (0..4i64).map(Value::int).collect();
        let taken = s.take_if(|v| v.as_atom().unwrap().as_int().unwrap() >= 2);
        assert_eq!(taken.len(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union() {
        let mut a: SetObj = [1i64, 2].into_iter().map(Value::int).collect();
        let b: SetObj = [2i64, 3].into_iter().map(Value::int).collect();
        a.union_with(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn clone_shares_until_written() {
        let a: SetObj = (0..4i64).map(Value::int).collect();
        let mut b = a.clone();
        assert!(a.shares_with(&b));
        b.insert(Value::int(99));
        assert!(!a.shares_with(&b), "write broke the sharing");
        assert_eq!(a.len(), 4, "original untouched");
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn noop_writes_keep_sharing() {
        let a: SetObj = (0..4i64).map(Value::int).collect();
        let mut b = a.clone();
        assert!(!b.insert(Value::int(0)), "duplicate insert");
        assert!(!b.remove(&Value::int(77)), "absent remove");
        assert_eq!(b.remove_if(|v| v == &Value::int(77)), 0, "no-match sweep");
        assert!(b.take_if(|v| v == &Value::int(77)).is_empty(), "no-match drain");
        let mut c = a.clone();
        c.union_with(&b);
        assert!(a.shares_with(&b), "no-op writes must not deep-copy");
        assert!(a.shares_with(&c), "subset union must not deep-copy");
    }

    #[test]
    fn into_iter_on_shared_handle() {
        let a: SetObj = (0..3i64).map(Value::int).collect();
        let b = a.clone();
        assert_eq!(b.into_iter().count(), 3);
        assert_eq!(a.len(), 3, "surviving handle unaffected");
    }
}
