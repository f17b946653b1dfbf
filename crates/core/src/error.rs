//! Typed errors for session construction and configuration.
//!
//! Everything a user can get wrong — bad thresholds, MDs without master
//! data, schema mismatches, unparsable rule text — surfaces as a value of
//! one of these enums instead of a panic.

use std::fmt;

use uniclean_model::ModelError;
use uniclean_rules::{ParseError, RuleSetError};

/// An invalid [`crate::CleanConfig`] field.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A threshold is NaN or infinite.
    NonFinite {
        /// Field name (`eta`, `delta_entropy`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A threshold lies outside its documented `[0, 1]` range.
    OutOfRange {
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A count that must be at least 1 is 0 (`max_erepair_rounds`,
    /// `max_hrepair_rounds`).
    ZeroLimit {
        /// Field name.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ConfigError::OutOfRange { field, value } => {
                write!(f, "{field} must be in [0,1], got {value}")
            }
            ConfigError::ZeroLimit { field } => write!(f, "{field} must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a [`crate::Cleaner`] could not be built (or a rule file not turned
/// into a session).
#[derive(Clone, Debug, PartialEq)]
pub enum CleanError {
    /// The builder was finished without [`crate::CleanerBuilder::rules`].
    MissingRules,
    /// The configuration failed validation.
    Config(ConfigError),
    /// The rule set contains MDs but the master source is
    /// [`crate::MasterSource::None`].
    MdsWithoutMaster,
    /// An external master relation's schema differs from the rule set's
    /// master schema.
    MasterSchemaMismatch {
        /// Rendered schema the rule set expects (`name(attr, …)`), so a
        /// mismatch is diagnosable even when both schemas share a name.
        expected: String,
        /// Rendered schema of the supplied relation.
        found: String,
    },
    /// [`crate::MasterSource::SelfSnapshot`] needs MDs authored against a
    /// (renamed) master schema, but the rule set has none.
    MissingSelfSchema,
    /// The self-snapshot master schema does not mirror the data schema
    /// positionally.
    SelfSchemaMismatch {
        /// Arity of the data schema.
        data_arity: usize,
        /// Arity of the master schema.
        master_arity: usize,
    },
    /// Rule text failed to parse.
    Parse(ParseError),
    /// Rules were inconsistent with each other or their schemas.
    Rules(RuleSetError),
    /// A [`crate::RepairState`] was handed to a [`crate::Cleaner`] other
    /// than the one that created it (`clean_delta` relies on the state's
    /// structures matching the session's rules, master and config).
    ForeignState,
    /// A `clean_delta` batch tuple does not fit the data schema.
    BatchArityMismatch {
        /// Arity of the data schema.
        expected: usize,
        /// Arity of the offending batch tuple.
        found: usize,
    },
    /// A model-layer construction invariant failed — a row's arity did
    /// not match its schema, or a confidence left `[0, 1]`. Raised by the
    /// typed relation/cell constructors (`Relation::try_new`,
    /// `Relation::try_push_row`, `Cell::try_new`) and surfaced here so
    /// session-level code can bubble ingest failures as one error type.
    Model(ModelError),
}

impl fmt::Display for CleanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CleanError::MissingRules => {
                write!(f, "no rule set supplied: call CleanerBuilder::rules before build")
            }
            CleanError::Config(e) => write!(f, "invalid cleaning configuration: {e}"),
            CleanError::MdsWithoutMaster => {
                write!(f, "rule set contains MDs but no master relation was supplied")
            }
            CleanError::MasterSchemaMismatch { expected, found } => write!(
                f,
                "master relation schema `{found}` does not match the rule set's master schema `{expected}`"
            ),
            CleanError::MissingSelfSchema => {
                write!(f, "self-matching needs MDs with a (renamed) master schema")
            }
            CleanError::SelfSchemaMismatch { data_arity, master_arity } => write!(
                f,
                "self-matching master schema must mirror the data schema \
                 (data arity {data_arity}, master arity {master_arity})"
            ),
            CleanError::Parse(e) => write!(f, "{e}"),
            CleanError::Rules(e) => write!(f, "{e}"),
            CleanError::ForeignState => write!(
                f,
                "repair state belongs to a different Cleaner session; \
                 pass it back to the cleaner that created it"
            ),
            CleanError::BatchArityMismatch { expected, found } => write!(
                f,
                "batch tuple arity {found} does not match the data schema arity {expected}"
            ),
            CleanError::Model(e) => write!(f, "invalid relation data: {e}"),
        }
    }
}

impl std::error::Error for CleanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CleanError::Config(e) => Some(e),
            CleanError::Parse(e) => Some(e),
            CleanError::Rules(e) => Some(e),
            CleanError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CleanError {
    fn from(e: ConfigError) -> Self {
        CleanError::Config(e)
    }
}

impl From<ParseError> for CleanError {
    fn from(e: ParseError) -> Self {
        CleanError::Parse(e)
    }
}

impl From<RuleSetError> for CleanError {
    fn from(e: RuleSetError) -> Self {
        CleanError::Rules(e)
    }
}

impl From<ModelError> for CleanError {
    fn from(e: ModelError) -> Self {
        CleanError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_the_historic_panic_phrases() {
        // The CLI prints these messages and tests match on substrings of
        // them; they must not drift silently.
        assert!(CleanError::MdsWithoutMaster
            .to_string()
            .contains("no master relation"));
        assert!(CleanError::MissingSelfSchema
            .to_string()
            .contains("(renamed) master schema"));
        assert!(CleanError::SelfSchemaMismatch {
            data_arity: 3,
            master_arity: 2
        }
        .to_string()
        .contains("mirror the data schema"));
        assert!(CleanError::Config(ConfigError::ZeroLimit {
            field: "max_erepair_rounds"
        })
        .to_string()
        .contains("invalid cleaning configuration"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e = CleanError::Config(ConfigError::OutOfRange {
            field: "eta",
            value: 1.5,
        });
        assert!(e.source().unwrap().to_string().contains("eta"));
        assert!(CleanError::MissingRules.source().is_none());
        let e = CleanError::from(ModelError::ConfidenceOutOfRange { cf: 2.0 });
        assert!(e.to_string().contains("invalid relation data"));
        assert!(e.source().unwrap().to_string().contains('2'));
    }
}
