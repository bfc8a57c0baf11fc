//! The workspace-wide error type.

use ldiv_microdata::MicrodataError;
use std::fmt;

/// Every failure the anonymization stack can surface, from CLI argument
/// parsing down to algorithm infeasibility.
///
/// Crate-local error types (`TdsError`, `MicrodataError`, the CLI's
/// former `String` errors) all convert into this enum, so callers handle
/// one type and the CLI maps it to exit codes with
/// [`LdivError::exit_code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdivError {
    /// No l-diverse publication exists for the input (Lemma 1).
    Infeasible(
        /// The underlying feasibility diagnosis.
        MicrodataError,
    ),
    /// The diversity parameter is out of range.
    InvalidL(
        /// The rejected value.
        u32,
    ),
    /// A mechanism name not present in the registry.
    UnknownMechanism {
        /// The name that failed to resolve.
        requested: String,
        /// Names the registry does know, sorted.
        known: Vec<String>,
    },
    /// A parameter combination a mechanism cannot honour.
    InvalidParams(
        /// Human-readable description.
        String,
    ),
    /// Malformed command-line invocation (maps to exit code 2).
    Usage(
        /// Human-readable description.
        String,
    ),
    /// File or stream I/O failure, annotated with the path.
    Io(
        /// Human-readable description including the path.
        String,
    ),
    /// A mechanism-specific runtime failure.
    Algorithm(
        /// Human-readable description.
        String,
    ),
    /// An internal invariant was violated — a bug, never expected on
    /// valid inputs.
    Internal(
        /// Description of the violated invariant.
        String,
    ),
    /// The run's time budget ([`Params::deadline`](crate::Params::deadline),
    /// `--deadline-ms`) elapsed before the
    /// publication was ready. The server maps this to HTTP 504.
    DeadlineExceeded,
}

impl LdivError {
    /// The process exit code the CLI contract assigns to this error:
    /// `2` for usage mistakes, `1` for every runtime/user error
    /// (success is `0`).
    pub fn exit_code(&self) -> i32 {
        match self {
            LdivError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for LdivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdivError::Infeasible(e) => write!(f, "{e}"),
            LdivError::InvalidL(l) => write!(f, "invalid diversity parameter l = {l}"),
            LdivError::UnknownMechanism { requested, known } => write!(
                f,
                "unknown mechanism '{requested}' (known: {})",
                known.join(", ")
            ),
            LdivError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            LdivError::Usage(msg) => write!(f, "{msg}"),
            LdivError::Io(msg) => write!(f, "{msg}"),
            LdivError::Algorithm(msg) => write!(f, "{msg}"),
            LdivError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            LdivError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded: the run's time budget elapsed before completion"
                )
            }
        }
    }
}

impl std::error::Error for LdivError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LdivError::Infeasible(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MicrodataError> for LdivError {
    fn from(e: MicrodataError) -> Self {
        LdivError::Infeasible(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_cli_contract() {
        assert_eq!(LdivError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(LdivError::InvalidL(0).exit_code(), 1);
        assert_eq!(LdivError::DeadlineExceeded.exit_code(), 1);
        assert!(LdivError::DeadlineExceeded.to_string().contains("deadline"));
        assert_eq!(
            LdivError::Io("missing.csv: not found".into()).exit_code(),
            1
        );
    }

    #[test]
    fn display_and_source_chain() {
        use std::error::Error as _;
        let e = LdivError::Infeasible(MicrodataError::Infeasible {
            l: 3,
            n: 4,
            max_sa_count: 2,
        });
        assert!(e.to_string().contains("3-diverse"));
        assert!(e.source().is_some());
        assert!(LdivError::InvalidL(0).source().is_none());
    }

    #[test]
    fn unknown_mechanism_lists_known_names() {
        let e = LdivError::UnknownMechanism {
            requested: "tp#".into(),
            known: vec!["tp".into(), "tp+".into()],
        };
        let s = e.to_string();
        assert!(s.contains("tp#") && s.contains("tp, tp+"), "{s}");
    }
}
