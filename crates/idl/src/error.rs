//! Engine-level errors, with stable machine-readable codes.
//!
//! Every [`EngineError`] maps to one code from the table in
//! `LANGUAGE.md` (`E-PARSE`, `E-UNSAFE`, `E-POISONED`, …). The codes are
//! the wire contract of `idl-server`: clients branch on
//! [`EngineError::code`], never on `Display` strings, which remain free
//! to improve between releases.

use serde::content::{Content, Error as ContentError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Any failure surfaced by the engine.
#[derive(Clone, PartialEq, Debug)]
pub enum EngineError {
    /// Source text failed to parse.
    Parse(idl_lang::ParseError),
    /// Evaluation failed (queries, updates, programs).
    Eval(idl_eval::EvalError),
    /// Rule installation / stratification failed.
    Rules(String),
    /// Storage failure.
    Storage(String),
    /// Declared-schema constraints violated; the request was rolled back.
    Schema(Vec<idl_storage::schema::Violation>),
    /// API misuse (e.g. `query` on a source with several statements).
    Usage(String),
    /// A durable engine refused work after an unacknowledged log failure;
    /// reopen to recover (see [`crate::durable`]).
    Poisoned(String),
    /// An error received over the `idl-server` wire: the stable code plus
    /// the server's rendered message. This is what a deserialised
    /// [`EngineError`] becomes on the client side.
    Remote {
        /// Stable machine-readable code (`E-PARSE`, `E-UNSAFE`, …).
        code: String,
        /// Human-readable rendering from the server.
        message: String,
    },
}

impl EngineError {
    /// The stable machine-readable code for this error (see LANGUAGE.md,
    /// "Error codes"). Codes are part of the wire contract: they never
    /// change meaning, while `Display` messages may.
    pub fn code(&self) -> &str {
        match self {
            EngineError::Parse(_) => "E-PARSE",
            EngineError::Eval(e) => eval_code(e),
            EngineError::Rules(_) => "E-RULES",
            EngineError::Storage(_) => "E-STORAGE",
            EngineError::Schema(_) => "E-SCHEMA",
            EngineError::Usage(_) => "E-USAGE",
            EngineError::Poisoned(_) => "E-POISONED",
            EngineError::Remote { code, .. } => code,
        }
    }
}

/// Code for an evaluation error (one level finer than `E-EVAL`, so wire
/// clients can distinguish unsafe bindings from limits from divergence).
fn eval_code(e: &idl_eval::EvalError) -> &'static str {
    use idl_eval::EvalError as E;
    match e {
        E::Uninstantiated(_) | E::BadAttrBinding(_) => "E-UNSAFE",
        E::BadArith(_) => "E-ARITH",
        E::KindMismatch { .. } => "E-KIND",
        E::UpdateOnDerived(_) => "E-DERIVED",
        E::NoSuchProgram(_)
        | E::InsufficientBindings { .. }
        | E::UnknownParameter { .. }
        | E::RecursiveProgram(_) => "E-PROGRAM",
        E::NotStratified(_) => "E-STRATIFY",
        E::FixpointDiverged(_) => "E-DIVERGED",
        E::TooManyResults(_) => "E-LIMIT",
        E::Malformed(_) => "E-MALFORMED",
        E::Storage(_) => "E-STORAGE",
        E::Schema(_) => "E-SCHEMA",
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Rules(m) => write!(f, "rule error: {m}"),
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::Schema(violations) => {
                write!(f, "schema violation(s), request rolled back:")?;
                for v in violations {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
            EngineError::Usage(m) => write!(f, "usage error: {m}"),
            EngineError::Poisoned(m) => {
                write!(
                    f,
                    "durable engine poisoned by an earlier log failure ({m}); reopen to recover"
                )
            }
            EngineError::Remote { code, message } => write!(f, "[{code}] {message}"),
        }
    }
}

// Errors cross the wire as `{"code": …, "message": …}`. Deserialisation
// intentionally rebuilds the `Remote` variant rather than the original:
// the structured payload (spans, violation lists) stays server-side, and
// clients get exactly the stable contract — a code and a message.
impl Serialize for EngineError {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("code".into(), Content::Str(self.code().to_string())),
            ("message".into(), Content::Str(self.to_string())),
        ])
    }
}

impl Deserialize for EngineError {
    fn from_content(content: &Content) -> Result<Self, ContentError> {
        let code = match content.get("code") {
            Some(Content::Str(s)) => s.clone(),
            _ => return Err(ContentError("engine error needs a string `code`".into())),
        };
        let message = match content.get("message") {
            Some(Content::Str(s)) => s.clone(),
            _ => return Err(ContentError("engine error needs a string `message`".into())),
        };
        Ok(EngineError::Remote { code, message })
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<idl_lang::ParseError> for EngineError {
    fn from(e: idl_lang::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<idl_eval::EvalError> for EngineError {
    fn from(e: idl_eval::EvalError) -> Self {
        match e {
            idl_eval::EvalError::Schema(violations) => EngineError::Schema(violations),
            e => EngineError::Eval(e),
        }
    }
}

impl From<idl_eval::RuleSetError> for EngineError {
    fn from(e: idl_eval::RuleSetError) -> Self {
        EngineError::Rules(e.to_string())
    }
}

impl From<idl_storage::StorageError> for EngineError {
    fn from(e: idl_storage::StorageError) -> Self {
        EngineError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_round_trip() {
        let e = EngineError::Usage("two statements".into());
        assert_eq!(e.code(), "E-USAGE");
        let json = serde_json::to_string(&e).unwrap();
        let back: EngineError = serde_json::from_str(&json).unwrap();
        match &back {
            EngineError::Remote { code, message } => {
                assert_eq!(code, "E-USAGE");
                assert_eq!(message, &e.to_string());
            }
            other => panic!("expected Remote, got {other:?}"),
        }
        assert_eq!(back.code(), "E-USAGE", "remote errors keep their code");
    }

    #[test]
    fn eval_errors_get_fine_grained_codes() {
        let e = EngineError::Eval(idl_eval::EvalError::Uninstantiated(idl_lang::Var::new("X")));
        assert_eq!(e.code(), "E-UNSAFE");
        let e = EngineError::Eval(idl_eval::EvalError::TooManyResults(10));
        assert_eq!(e.code(), "E-LIMIT");
        let e = EngineError::Poisoned("sync log: ENOSPC".into());
        assert_eq!(e.code(), "E-POISONED");
    }
}
