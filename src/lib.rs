//! # UniClean
//!
//! A from-scratch Rust reproduction of **"Interaction between Record
//! Matching and Data Repairing"** (Fan, Ma, Tang, Yu — SIGMOD 2011; extended
//! JDIQ version), a data-cleaning system that *unifies* record matching
//! (matching dependencies against master data) and data repairing
//! (conditional functional dependencies) into one rule-based process.
//!
//! The public API is the [`Cleaner`] session: an owned, reusable, thread-
//! shareable engine built once from rules + a [`MasterSource`] + a
//! [`CleanConfig`], then applied to any number of dirty relations.
//! Construction is fallible and typed — every misuse is a [`CleanError`],
//! never a panic.
//!
//! ## Quickstart
//!
//! ```
//! use uniclean::{CleanConfig, Cleaner, MasterSource, Phase};
//! use uniclean::model::{Relation, Schema, Tuple, TupleId, Value};
//! use uniclean::rules::{parse_rules, RuleSet};
//!
//! // A CFD in the paper's notation: area code 131 means Edinburgh.
//! let tran = Schema::of_strings("tran", &["AC", "city"]);
//! let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None)?;
//! let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
//!
//! // Build a session. CFD-only rules need no master data; record matching
//! // would use `.master(MasterSource::external(master_relation))` or
//! // `MasterSource::SelfSnapshot` for master-free deduplication.
//! let cleaner = Cleaner::builder()
//!     .rules(rules)
//!     .master(MasterSource::None)
//!     .config(CleanConfig::default())
//!     .build()?;
//!
//! // One dirty tuple; clean it through all three phases.
//! let dirty = Relation::new(tran, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
//! let result = cleaner.clean(&dirty, Phase::Full);
//!
//! assert!(result.consistent);
//! assert_eq!(
//!     result.repaired.tuple(TupleId(0)).value(uniclean::model::AttrId(1)),
//!     &Value::str("Edi"),
//! );
//! # Ok::<(), uniclean::CleanError>(())
//! ```
//!
//! Builder misuse is an `Err`, not a crash:
//!
//! ```
//! use uniclean::{CleanConfig, Cleaner, CleanError, MasterSource};
//! use uniclean::model::Schema;
//! use uniclean::rules::{parse_rules, RuleSet};
//!
//! let tran = Schema::of_strings("tran", &["LN", "phn"]);
//! let card = Schema::of_strings("card", &["LN", "tel"]);
//! let parsed = parse_rules("md m: tran[LN] = card[LN] -> tran[phn] <=> card[tel]", &tran, Some(&card)).unwrap();
//! let rules = RuleSet::new(tran, Some(card), vec![], parsed.positive_mds, vec![]);
//!
//! // MDs need master data: `MasterSource::None` is a typed error.
//! let err = Cleaner::builder().rules(rules).build().unwrap_err();
//! assert_eq!(err, CleanError::MdsWithoutMaster);
//! ```
//!
//! ## Workspace layout
//!
//! This façade crate re-exports the workspace crates under stable paths:
//!
//! * [`model`] — schemas, confidence-annotated tuples, relations, cost model;
//! * [`similarity`] — similarity predicates, generalized suffix tree, top-l
//!   LCS blocking;
//! * [`rules`] — CFDs and (positive/negative) MDs, satisfaction, violations,
//!   parsing;
//! * [`reasoning`] — consistency / implication / termination / determinism
//!   analyses (§4 of the paper);
//! * [`core`] — the three cleaning phases (`cRepair`, `eRepair`, `hRepair`)
//!   and the [`Cleaner`] session;
//! * [`server`] — cleaning-as-a-service: a sharded daemon hosting named
//!   relations with streaming ingest and online violation queries over
//!   line-delimited JSON/TCP (`uniclean serve`);
//! * [`baselines`] — SortN matching and Quaid repairing, the paper's
//!   comparators;
//! * [`datagen`] — synthetic HOSP / DBLP / TPC-H-like workloads with noise,
//!   duplicates and ground truth;
//! * [`metrics`] — precision / recall / F-measure for both tasks.
//!
//! See `examples/quickstart.rs` for the paper's running example (the credit
//! card fraud of Example 1.1) executed end to end, and the `uniclean` CLI
//! (`src/bin/uniclean.rs`) for file-based cleaning
//! (`uniclean clean --data d.csv --rules r.rules --master m.csv`).

pub use uniclean_baselines as baselines;
pub use uniclean_client as client;
pub use uniclean_core as core;
pub use uniclean_datagen as datagen;
pub use uniclean_discovery as discovery;
pub use uniclean_metrics as metrics;
pub use uniclean_model as model;
pub use uniclean_reasoning as reasoning;
pub use uniclean_rules as rules;
pub use uniclean_server as server;
pub use uniclean_similarity as similarity;

// The session API is the front door — re-export it at the crate root so
// `use uniclean::{Cleaner, MasterSource, Phase}` is all a caller needs.
pub use uniclean_core::{
    CleanConfig, CleanError, CleanResult, Cleaner, CleanerBuilder, ConfigError, MasterSource,
    NoOpObserver, Phase, PhaseObserver, PhaseStats, PhaseTimings, PreparedCleaner, RepairState,
    TupleViolation, ViolationKind,
};
