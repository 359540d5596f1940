//! Evaluation errors.

use idl_lang::Var;
use idl_object::{Kind, Name};
use std::fmt;

/// Errors raised during evaluation of queries, updates, rules or programs.
#[derive(Clone, PartialEq, Debug)]
pub enum EvalError {
    /// A term needed a ground value but a variable was unbound (e.g. an
    /// arithmetic operand, a `+` payload, or a non-equality comparison with
    /// an unbound variable).
    Uninstantiated(Var),
    /// An arithmetic operation on non-numeric / incompatible operands.
    BadArith(String),
    /// Update expression applied to an object of the wrong category
    /// (§5.2: "the expression is in error and the results are undefined" —
    /// we define them: a reported error).
    KindMismatch {
        /// Category the expression requires.
        expected: Kind,
        /// Category of the object found.
        found: Kind,
        /// What was being evaluated, for the message.
        context: String,
    },
    /// A higher-order attribute variable was bound to a non-string object.
    BadAttrBinding(Var),
    /// Update attempted on a derived (view) object without a registered
    /// view-update program (§7.1: `+`/`-` are "allowed only on extensional
    /// objects").
    UpdateOnDerived(String),
    /// Call to an unknown update program.
    NoSuchProgram(String),
    /// An update-program call left required parameters unbound
    /// (binding-signature violation, §7.1's `insStk` discussion).
    InsufficientBindings {
        /// Program name.
        program: String,
        /// The parameter that must be bound.
        missing: Name,
    },
    /// An argument was supplied that is not in the program's signature.
    UnknownParameter {
        /// Program name.
        program: String,
        /// The unexpected parameter.
        param: Name,
    },
    /// Update programs may not be (mutually) recursive (§7.1).
    RecursiveProgram(String),
    /// Rule set is not stratified through negation.
    NotStratified(String),
    /// Fixpoint iteration exceeded the safety bound.
    FixpointDiverged(usize),
    /// Query evaluation result exceeded the configured limit.
    TooManyResults(usize),
    /// Malformed expression for the operation attempted.
    Malformed(String),
    /// Underlying storage failure.
    Storage(String),
    /// A request that wrote broke a declared key, type or foreign key; it
    /// was rolled back.
    Schema(Vec<idl_storage::schema::Violation>),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Uninstantiated(v) => {
                write!(f, "variable {v} is not sufficiently instantiated")
            }
            EvalError::BadArith(m) => write!(f, "arithmetic error: {m}"),
            EvalError::KindMismatch { expected, found, context } => {
                write!(f, "{context}: expected a {expected} object, found a {found} object")
            }
            EvalError::BadAttrBinding(v) => {
                write!(f, "attribute variable {v} bound to a non-name object")
            }
            EvalError::UpdateOnDerived(p) => {
                write!(f, "cannot update derived object {p} directly; define an update program")
            }
            EvalError::NoSuchProgram(p) => write!(f, "no update program named {p}"),
            EvalError::InsufficientBindings { program, missing } => {
                write!(f, "call to {program} requires parameter .{missing} to be bound")
            }
            EvalError::UnknownParameter { program, param } => {
                write!(f, "program {program} has no parameter .{param}")
            }
            EvalError::RecursiveProgram(p) => {
                write!(f, "update program {p} is recursive (disallowed, §7.1)")
            }
            EvalError::NotStratified(m) => write!(f, "rule set is not stratified: {m}"),
            EvalError::FixpointDiverged(n) => {
                write!(f, "view fixpoint did not converge within {n} iterations")
            }
            EvalError::TooManyResults(n) => write!(f, "query exceeded result limit of {n}"),
            EvalError::Malformed(m) => write!(f, "malformed expression: {m}"),
            EvalError::Storage(m) => write!(f, "storage error: {m}"),
            EvalError::Schema(violations) => {
                write!(f, "schema violation(s), request rolled back:")?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<idl_storage::StorageError> for EvalError {
    fn from(e: idl_storage::StorageError) -> Self {
        EvalError::Storage(e.to_string())
    }
}

/// Result alias.
pub type EvalResult<T> = Result<T, EvalError>;
