//! UniClean core — the three-phase cleaning system of the paper (§3.2).
//!
//! ```text
//!           dirty D ──► cRepair ──► eRepair ──► hRepair ──► repair Dr
//!                     confidence     entropy     heuristic
//!                    deterministic  reliable     possible
//!                        fixes        fixes        fixes
//! ```
//!
//! * [`crepair`] — deterministic fixes from confidence analysis and master
//!   data (§5, Figs 4–5);
//! * [`erepair`] — reliable fixes from information entropy (§6, Fig 6),
//!   backed by the 2-in-1 hash-table + AVL structure of §6.3
//!   ([`two_in_one`], [`avl`]);
//! * [`hrepair`] — possible fixes via equivalence classes and the cost
//!   model (§7, extending Cong et al.), preserving deterministic fixes
//!   (Corollary 7.1);
//! * [`session`] — the [`Cleaner`] session API: builder construction,
//!   [`MasterSource`] (external / self-snapshot / none), typed
//!   [`CleanError`]s, the [`PhaseObserver`] instrumentation hook, and the
//!   persistent [`PreparedCleaner`] (rules/index/config built once per
//!   session, shared by every call);
//! * [`incremental`] — incremental cleaning: the per-relation
//!   [`RepairState`] and [`Cleaner::clean_delta`], which absorb appended
//!   batches by continuing the persisted `cRepair` fixpoint and reusing
//!   the warm structures, bit-identical to a from-scratch reclean;
//! * [`phase`] — the one [`Phase`] type (phase identity and pipeline
//!   prefix selector, consolidated in 0.4);
//! * [`pipeline`] — [`CleanResult`], the result of one cleaning run;
//! * [`master_index`] — blocked access to master data (exact hash index for
//!   equality premises — interned to dense symbols on the fast path — and
//!   the §5.2 LCS suffix-tree blocker for edit-distance premises);
//! * [`parallel`] — the scoped-thread chunk–merge–apply fan-out the phases
//!   use for their read-heavy stages, bit-identical at every thread count;
//! * [`fix`] — per-cell fix records and phase statistics;
//! * [`entropy`] — the paper's base-`k` entropy `H(ϕ | Y = ȳ)` (§6.1).

pub mod avl;
pub mod config;
pub mod crepair;
pub mod entropy;
pub mod erepair;
pub mod error;
pub mod fix;
pub mod hrepair;
pub mod incremental;
pub mod master_index;
mod md_cache;
pub mod parallel;
mod pattern_syms;
pub mod phase;
pub mod pipeline;
pub mod session;
pub mod two_in_one;

/// Re-export of the similarity crate, so downstream layers (server, CLI)
/// can reach kernel dispatch introspection ([`similarity::simd`]) without a
/// direct dependency.
pub use uniclean_similarity as similarity;

pub use config::CleanConfig;
pub use crepair::c_repair;
pub use erepair::e_repair;
pub use error::{CleanError, ConfigError};
pub use fix::{FixRecord, FixReport};
pub use hrepair::h_repair;
pub use incremental::{RepairState, TupleViolation, ViolationKind};
pub use master_index::{IndexPolicy, MasterIndex, ProbeScratch};
pub use parallel::effective_parallelism;
pub use phase::Phase;
pub use pipeline::CleanResult;
pub use session::{
    Cleaner, CleanerBuilder, MasterSource, NoOpObserver, PhaseObserver, PhaseStats, PhaseTimings,
    PreparedCleaner,
};
