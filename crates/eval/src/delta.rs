//! Delta relations for semi-naive fixpoint evaluation (DESIGN.md
//! "Semi-naive delta scheduling").
//!
//! One fixpoint iteration's *new* derived facts, grouped by the concrete
//! `(db, rel)` they were inserted into. The next iteration joins these
//! delta relations against the full store — `(Δ ⋈ full)` instead of
//! `full × full` — via [`crate::physical::PhysOp::DeltaScan`], and the
//! rule scheduler wakes only rules whose bodies overlap the changed
//! patterns.
//!
//! Writes that are not representable as relation rows (scalar `=` heads,
//! inserts into nested sets below the relation level, whole-database
//! effects) are recorded as *coarse* patterns instead: they still wake
//! dependent rules, but those rules fall back to a full re-evaluation —
//! delta joins are only sound over row-level inserts.
//!
//! A relation (or database) slot that did not exist before a fact
//! materialised it is a **schematic delta** — the paper's "new stock in
//! `euter` defines a new relation" wrinkle. Those are reported as
//! `new_rels` and counted (`FixpointStats::new_relations`,
//! `MaintenanceStats::schematic_creates`); no plan depends on them, since a
//! plan with a variable relation position enumerates relations when it
//! runs ([`crate::compile`]).

use crate::rules::PredPat;
use idl_object::{Name, Value};
use std::collections::BTreeMap;

/// Concrete per-relation delta rows: `(db, rel)` → facts first derived in
/// the previous iteration. Shared read-only by every worker of the next
/// iteration; values are O(1) structural-sharing clones of the stored
/// rows.
pub type DeltaTable = BTreeMap<(Name, Name), Vec<Value>>;

/// Everything one fixpoint iteration changed.
#[derive(Clone, Debug, Default)]
pub struct DeltaLog {
    /// Row-level inserts, grouped by concrete relation.
    pub rels: DeltaTable,
    /// Changes not representable as relation rows (scalar heads, nested
    /// writes): pattern-level wake information only.
    pub coarse: Vec<PredPat>,
    /// Relation (or database) slots that materialised fresh this
    /// iteration — schematic deltas.
    pub new_rels: Vec<PredPat>,
}

impl DeltaLog {
    /// Whether the iteration changed anything at all.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty() && self.coarse.is_empty()
    }

    /// Row-level facts recorded.
    pub fn fact_count(&self) -> usize {
        self.rels.values().map(Vec::len).sum()
    }

    /// The patterns a dependent rule's body must overlap to be woken:
    /// one concrete pattern per touched relation plus every coarse
    /// pattern, deduplicated.
    pub fn changed_patterns(&self) -> Vec<PredPat> {
        let mut out: Vec<PredPat> = self
            .rels
            .keys()
            .map(|(db, rel)| PredPat { db: Some(db.clone()), rel: Some(rel.clone()) })
            .collect();
        out.extend(self.coarse.iter().cloned());
        out.sort();
        out.dedup();
        out
    }

    /// Whether any coarse (non-row-representable) change overlaps `pat` —
    /// if so, a rule reading `pat` must re-evaluate in full, because the
    /// delta table cannot express what changed.
    pub fn coarse_overlaps(&self, pat: &PredPat) -> bool {
        self.coarse.iter().any(|c| c.overlaps(pat))
    }
}

/// Collector threaded through [`crate::rules::make_true_logged`]: tracks
/// the attribute path from the universe root and records row inserts,
/// coarse writes and schematic (new-slot) events into a [`DeltaLog`].
#[derive(Debug)]
pub struct DeltaSink {
    path: Vec<Name>,
    enabled: bool,
    /// The accumulated log (meaningful only when `enabled`).
    pub log: DeltaLog,
}

impl DeltaSink {
    /// A recording sink.
    pub fn new() -> Self {
        DeltaSink { path: Vec::new(), enabled: true, log: DeltaLog::default() }
    }

    /// A sink that records nothing (used by the plain [`make_true`]
    /// wrapper so callers outside the fixpoint pay no cloning cost).
    ///
    /// [`make_true`]: crate::rules::make_true
    pub fn disabled() -> Self {
        DeltaSink { path: Vec::new(), enabled: false, log: DeltaLog::default() }
    }

    /// Whether this sink records (gates the fact clone at insert sites).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn enter(&mut self, name: &Name) {
        if self.enabled {
            self.path.push(name.clone());
        }
    }

    pub(crate) fn leave(&mut self) {
        if self.enabled {
            self.path.pop();
        }
    }

    /// The attribute slot just entered did not exist before: at relation
    /// depth this is a schematic delta (a data-dependent relation
    /// materialised); at database depth, a whole new database.
    pub(crate) fn created_slot(&mut self) {
        if !self.enabled {
            return;
        }
        match self.path.len() {
            1 => self.log.new_rels.push(PredPat { db: Some(self.path[0].clone()), rel: None }),
            2 => self
                .log
                .new_rels
                .push(PredPat { db: Some(self.path[0].clone()), rel: Some(self.path[1].clone()) }),
            _ => {}
        }
    }

    /// A set insert that was new. Row-level (exactly `db.rel`) inserts
    /// feed the delta table; anything deeper or shallower is coarse.
    pub(crate) fn set_inserted(&mut self, fact: Value) {
        if !self.enabled {
            return;
        }
        match self.path.len() {
            2 => self
                .log
                .rels
                .entry((self.path[0].clone(), self.path[1].clone()))
                .or_default()
                .push(fact),
            _ => self.coarse_here(),
        }
    }

    /// A scalar (`=` head) overwrite that changed the stored value.
    pub(crate) fn scalar_written(&mut self) {
        if self.enabled {
            self.coarse_here();
        }
    }

    fn coarse_here(&mut self) {
        self.log
            .coarse
            .push(PredPat { db: self.path.first().cloned(), rel: self.path.get(1).cloned() });
    }
}

impl Default for DeltaSink {
    fn default() -> Self {
        DeltaSink::new()
    }
}
