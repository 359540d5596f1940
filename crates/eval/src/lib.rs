//! # `idl-eval` — evaluation engine for IDL
//!
//! Implements the semantics of *Krishnamurthy, Litwin & Kent, SIGMOD '91*:
//!
//! * **§4.2 query evaluation** — answers are *sets of grounding
//!   substitutions*; satisfaction is defined recursively over the three
//!   object categories, with higher-order variables enumerating attribute
//!   names ([`query`]);
//! * **§5.2 update evaluation** — `+`/`-` expressions as decrees of truth /
//!   falsehood henceforth, including null-atom semantics, attribute
//!   creation/deletion on single tuples, and query-dependent updates
//!   ([`update`]);
//! * **§6 rules and higher-order views** — stratified fixpoint
//!   materialisation where a single rule can define a data-dependent number
//!   of relations ([`rules`]);
//! * **§7 update programs** — named parameterised collections of update and
//!   query expressions with top-down parameter passing, binding-signature
//!   checking, a static non-recursion check, and view-update dispatch
//!   ([`program`]); a clause body runs through the same item loop, and the
//!   same transaction, as the request that calls it ([`request`]);
//! * a **planner** that reorders conjuncts and exploits the storage layer's
//!   indexes, with a naive reference mode kept for differential testing and
//!   the ablation benchmarks ([`plan`], [`query::EvalOptions`]);
//! * a **physical plan IR** compiled once per expression and executed many
//!   times — across substitutions, fixpoint iterations and worker threads —
//!   with each rule set's plans compiled once and request plans memoized by
//!   canonical expression hash ([`physical`], [`compile`]);
//! * **static binding analysis** approximating the paper's "compile time
//!   analysis … to check the validity of the call" ([`analyze`]).

#![warn(missing_docs)]

pub mod analyze;
pub mod arith;
pub mod compile;
pub mod delta;
pub mod error;
pub mod maintain;
pub mod physical;
pub mod plan;
pub mod program;
pub mod query;
pub mod request;
pub mod rules;
pub mod subst;
pub mod update;

pub use compile::{compile_expr, compile_items, PlanCache};
pub use delta::{DeltaLog, DeltaSink};
pub use error::{EvalError, EvalResult};
pub use maintain::{diff_update, MaintainedViews, UpdateDelta};
pub use physical::{CompiledItems, PhysOp};
pub use program::{ProgramKey, ProgramRegistry};
pub use query::{default_threads, EvalOptions, Evaluator};
pub use request::{run_request, RequestOutcome};
pub use rules::{FixpointStats, MaintenanceStats, PredPat, RuleEngine, RuleSetError, StratumStats};
pub use subst::{AnswerSet, Subst};
