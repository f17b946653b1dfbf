//! The owned, reusable cleaning session: [`Cleaner`], built through
//! [`Cleaner::builder`], backed by a persistent [`PreparedCleaner`].
//!
//! The paper describes *one* unified process over record matching (MDs)
//! and repairing (CFDs); this module makes the public API match. A single
//! phase loop drives `cRepair → eRepair → hRepair` regardless of where
//! master data comes from — an external relation (§1, Fig 1), the data
//! itself via per-phase snapshots (§9's master-free adaptation), or
//! nowhere (CFD-only repairing). The [`MasterSource`] enum picks the
//! variant; the loop body is shared.
//!
//! The engine is layered in two:
//!
//! * [`PreparedCleaner`] — everything that depends only on the rules,
//!   the master data and the configuration: normalized rules, the §5.2
//!   master access paths ([`MasterIndex`]). Built
//!   **once** per session by [`CleanerBuilder::build`] and shared
//!   (`Arc`) by every call — a service pays rule/index preparation once,
//!   not per request.
//! * [`RepairState`](crate::RepairState) — everything that depends on one
//!   relation: the working data, the `cRepair` fixpoint, the 2-in-1
//!   structures and warm caches. Created by [`Cleaner::begin`] and evolved
//!   in place by [`Cleaner::clean_delta`] as batches arrive.
//!
//! Construction is fallible and typed: every misuse is a [`CleanError`]
//! from [`CleanerBuilder::build`], never a panic. A built `Cleaner`
//! owns `Arc`s of its rules and master data, so it can live in a service
//! and be shared across threads for many `clean` calls.
//!
//! Instrumentation flows through one surface: [`PhaseObserver`] receives
//! per-phase timing and fix counts as the run progresses, and the same
//! [`PhaseStats`] records land in [`CleanResult::phases`].

use std::sync::Arc;
use std::time::Instant;

use uniclean_model::{repair_cost, Relation};
use uniclean_rules::{satisfies_all, RuleSet};

use crate::config::CleanConfig;
use crate::crepair::{c_run, CFixpoint};
use crate::erepair::e_run;
use crate::error::CleanError;
use crate::fix::FixReport;
use crate::hrepair::h_repair;
use crate::incremental::StateCapture;
use crate::master_index::MasterIndex;
use crate::md_cache::MdMatchCache;
use crate::phase::Phase;
use crate::pipeline::CleanResult;
use crate::two_in_one::TwoInOne;

/// Where the master relation `Dm` comes from.
#[derive(Clone, Debug, Default)]
pub enum MasterSource {
    /// An external, correct master relation (the paper's main setting,
    /// §2.1: master data is "consistent and accurate").
    External(Arc<Relation>),
    /// Master-free mode (§1/§9): before each phase a snapshot of the
    /// current repair state is rendered into the MDs' master schema, so
    /// matches are found *within* `D` and each phase sees the previous
    /// phase's repairs. The rule set must be authored with a master schema
    /// that mirrors the data schema positionally (e.g. a renamed clone).
    /// Deterministic fixes lose their master-data warranty in this mode.
    SelfSnapshot,
    /// No master data: CFD-only repairing (the experiments' `Uni(CFD)`).
    /// Building a cleaner whose rules contain MDs over this source fails
    /// with [`CleanError::MdsWithoutMaster`].
    #[default]
    None,
}

impl MasterSource {
    /// Convenience constructor accepting either a `Relation` or an
    /// `Arc<Relation>`.
    pub fn external(dm: impl Into<Arc<Relation>>) -> Self {
        MasterSource::External(dm.into())
    }
}

/// Timing and fix-count record of one executed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseStats {
    /// Which phase ran.
    pub phase: Phase,
    /// Wall-clock seconds the phase took (excluding snapshot/index
    /// construction for [`MasterSource::SelfSnapshot`], matching how the
    /// paper reports per-algorithm times).
    pub seconds: f64,
    /// Fixes the phase applied.
    pub fixes: usize,
}

/// Streaming instrumentation hook: benches, progress bars and telemetry
/// all consume this one surface instead of poking at hardcoded fields.
pub trait PhaseObserver {
    /// A phase is about to run.
    fn on_phase_start(&mut self, _phase: Phase) {}
    /// A phase finished with the given stats.
    fn on_phase_end(&mut self, _stats: &PhaseStats) {}
}

/// Observer that ignores everything (the default for [`Cleaner::clean`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpObserver;

impl PhaseObserver for NoOpObserver {}

/// Observer that records every phase's stats — the plain "give me the
/// timings" consumer the bench harness uses.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Stats in execution order.
    pub stats: Vec<PhaseStats>,
}

impl PhaseObserver for PhaseTimings {
    fn on_phase_end(&mut self, stats: &PhaseStats) {
        self.stats.push(*stats);
    }
}

impl PhaseTimings {
    /// Seconds per phase in fixed (c, e, h) order; phases that did not run
    /// report 0.
    pub fn seconds(&self) -> [f64; 3] {
        seconds_by_phase(&self.stats)
    }
}

/// Map phase stats into fixed (c, e, h) slots — the shared backing of
/// [`PhaseTimings::seconds`] and [`CleanResult::phase_seconds`].
pub(crate) fn seconds_by_phase(stats: &[PhaseStats]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for s in stats {
        out[s.phase.index()] = s.seconds;
    }
    out
}

/// The immutable, per-session half of the engine: normalized rules, master
/// source, validated configuration and prebuilt §5.2 master access paths.
/// Constructed **once** by [`CleanerBuilder::build`] and reused —
/// unchanged — by every [`Cleaner::clean`], [`Cleaner::begin`] and
/// [`Cleaner::clean_delta`] call.
pub struct PreparedCleaner {
    rules: Arc<RuleSet>,
    master: MasterSource,
    /// Prebuilt §5.2 access paths for [`MasterSource::External`]; the
    /// self-snapshot mode rebuilds per phase instead.
    index: Option<MasterIndex>,
    config: CleanConfig,
}

impl PreparedCleaner {
    /// The rule set `Θ = Σ ∪ Γ`.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// The master source this session cleans against.
    pub fn master(&self) -> &MasterSource {
        &self.master
    }

    /// The prebuilt master access paths ([`MasterSource::External`] only).
    pub fn master_index(&self) -> Option<&MasterIndex> {
        self.index.as_ref()
    }

    /// The validated configuration (with `self_match` already set to match
    /// the master source).
    pub fn config(&self) -> &CleanConfig {
        &self.config
    }

    /// The `(Dm, index)` pair phases see under [`MasterSource::External`]
    /// and [`MasterSource::None`] (the per-phase self-snapshot is handled
    /// by the phase loop itself).
    pub(crate) fn external_view(&self) -> (Option<&Relation>, Option<&MasterIndex>) {
        match &self.master {
            MasterSource::External(m) => (Some(m), self.index.as_ref()),
            _ => (None, None),
        }
    }

    /// Render the current repair state into the MDs' master schema
    /// (self-snapshot mode only; `build` guarantees the schema exists and
    /// mirrors the data schema). A columnar-store clone — no row tuples
    /// are materialized.
    pub(crate) fn snapshot(&self, work: &Relation) -> Relation {
        let master_schema = self
            .rules
            .master_schema()
            .expect("Cleaner::build verified the self-snapshot schema")
            .clone();
        Relation::with_schema(master_schema, work)
    }

    /// The master view the §3.2 acceptance check runs against, given the
    /// final repair state. Returns a borrow for external masters and an
    /// owned snapshot (stored in `storage`) otherwise.
    pub(crate) fn acceptance_master<'a>(
        &'a self,
        work: &Relation,
        storage: &'a mut Option<Relation>,
    ) -> &'a Relation {
        match &self.master {
            MasterSource::External(m) => m,
            MasterSource::SelfSnapshot => storage.insert(self.snapshot(work)),
            MasterSource::None => storage.insert(Relation::empty(self.rules.schema().clone())),
        }
    }
}

/// The shared phase loop: run the pipeline prefix on `work`, streaming
/// stats to `observer`. With `capture`, the per-relation structures a
/// [`RepairState`](crate::RepairState) persists are stashed as the run
/// passes through them — the captured run is bit-identical to an
/// uncaptured one (capturing only clones).
pub(crate) fn run_phases(
    prepared: &PreparedCleaner,
    work: &mut Relation,
    phase: Phase,
    observer: &mut dyn PhaseObserver,
    mut capture: Option<&mut StateCapture>,
) -> (FixReport, Vec<PhaseStats>) {
    let rules = &prepared.rules;
    let cfg = &prepared.config;
    let mut report = FixReport::new();
    let mut phases = Vec::with_capacity(phase.through().len());

    for &kind in phase.through() {
        // Per-phase master view. External masters reuse the access
        // paths built at `build` time; the self-snapshot re-renders the
        // current repair state so each phase sees the previous phase's
        // fixes (the §9 interleaving).
        let snapshot_storage;
        let (dm, index): (Option<&Relation>, Option<&MasterIndex>) = match &prepared.master {
            MasterSource::External(m) => (Some(m), prepared.index.as_ref()),
            MasterSource::SelfSnapshot => {
                let snap = prepared.snapshot(work);
                let idx = MasterIndex::build_parallel(
                    rules.mds(),
                    &snap,
                    cfg.interning,
                    cfg.effective_parallelism(),
                );
                snapshot_storage = (snap, idx);
                (Some(&snapshot_storage.0), Some(&snapshot_storage.1))
            }
            MasterSource::None => (None, None),
        };

        observer.on_phase_start(kind);
        let fixes_before = report.len();
        let started = Instant::now();
        let fixes = match kind {
            Phase::CRepair => {
                let mut fx = CFixpoint::new(rules, work.len(), cfg.self_match);
                let rep = c_run(work, dm, rules, index, cfg, &mut fx, 0, None);
                if let Some(cap) = capture.as_deref_mut() {
                    cap.cfix = Some(fx);
                    cap.post_c = Some(work.clone());
                }
                rep
            }
            Phase::ERepair => {
                let mut structure =
                    TwoInOne::build_with(rules, work, cfg.interning, cfg.effective_parallelism());
                let mut cache = MdMatchCache::new(rules, work.len(), cfg.self_match);
                if let Some(cap) = capture.as_deref_mut() {
                    cap.two = Some(structure.clone());
                }
                let rep = e_run(work, dm, rules, index, cfg, &mut structure, &mut cache);
                if let Some(cap) = capture.as_deref_mut() {
                    cap.e_cache = Some(cache);
                }
                rep
            }
            Phase::HRepair => h_repair(work, dm, rules, index, cfg),
        };
        report.extend(fixes);
        let stats = PhaseStats {
            phase: kind,
            seconds: started.elapsed().as_secs_f64(),
            fixes: report.len() - fixes_before,
        };
        observer.on_phase_end(&stats);
        phases.push(stats);
    }
    (report, phases)
}

/// An owned, reusable cleaning session: a shared [`PreparedCleaner`]
/// behind an `Arc`, cheap to clone across threads.
///
/// ```
/// use std::sync::Arc;
/// use uniclean_core::{Cleaner, CleanConfig, MasterSource, Phase};
/// use uniclean_model::{Relation, Schema, Tuple};
/// use uniclean_rules::{parse_rules, RuleSet};
///
/// let tran = Schema::of_strings("tran", &["AC", "city"]);
/// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
/// let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
///
/// let cleaner = Cleaner::builder()
///     .rules(rules)
///     .master(MasterSource::None)
///     .config(CleanConfig::default())
///     .build()
///     .unwrap();
/// let dirty = Relation::new(tran, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
/// let result = cleaner.clean(&dirty, Phase::Full);
/// assert!(result.consistent);
/// ```
pub struct Cleaner {
    prepared: Arc<PreparedCleaner>,
}

impl std::fmt::Debug for Cleaner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Summaries only: a service logging `{:?}` must not dump a
        // multi-thousand-tuple master relation.
        let prepared = &self.prepared;
        let master = match &prepared.master {
            MasterSource::External(dm) => {
                format!("External({}, {} tuples)", dm.schema().name(), dm.len())
            }
            MasterSource::SelfSnapshot => "SelfSnapshot".to_string(),
            MasterSource::None => "None".to_string(),
        };
        f.debug_struct("Cleaner")
            .field("schema", &prepared.rules.schema().name())
            .field("cfds", &prepared.rules.cfds().len())
            .field("mds", &prepared.rules.mds().len())
            .field("master", &master)
            .field("config", &prepared.config)
            .finish_non_exhaustive()
    }
}

impl Cleaner {
    /// Start building a session.
    pub fn builder() -> CleanerBuilder {
        CleanerBuilder::default()
    }

    /// The persistent, per-session half of the engine.
    pub fn prepared(&self) -> &Arc<PreparedCleaner> {
        &self.prepared
    }

    /// The rule set `Θ = Σ ∪ Γ`.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.prepared.rules
    }

    /// The master source this session cleans against.
    pub fn master(&self) -> &MasterSource {
        &self.prepared.master
    }

    /// The validated configuration (with `self_match` already set to match
    /// the master source).
    pub fn config(&self) -> &CleanConfig {
        &self.prepared.config
    }

    /// Clean `d`, running phases up to and including `phase`.
    pub fn clean(&self, d: &Relation, phase: Phase) -> CleanResult {
        self.clean_observed(d, phase, &mut NoOpObserver)
    }

    /// [`Cleaner::clean`] with a [`PhaseObserver`] receiving per-phase
    /// timing and fix counts as the run progresses.
    pub fn clean_observed(
        &self,
        d: &Relation,
        phase: Phase,
        observer: &mut dyn PhaseObserver,
    ) -> CleanResult {
        let mut work = d.clone();
        let (report, phases) = run_phases(&self.prepared, &mut work, phase, observer, None);

        // Acceptance (§3.2): `Dr ⊨ Σ` and `(Dr, Dm) ⊨ Γ`, checked against
        // whatever master view the final state implies.
        let rules = &self.prepared.rules;
        let mut storage = None;
        let dm_final = self.prepared.acceptance_master(&work, &mut storage);
        let consistent = satisfies_all(rules.cfds(), rules.mds(), &work, dm_final);
        let cost = repair_cost(d, &work);
        CleanResult {
            repaired: work,
            report,
            cost,
            consistent,
            phases,
        }
    }
}

/// Configures and validates a [`Cleaner`].
#[derive(Clone, Default)]
pub struct CleanerBuilder {
    rules: Option<Arc<RuleSet>>,
    master: MasterSource,
    config: CleanConfig,
}

impl CleanerBuilder {
    /// The rule set to clean with (required). Accepts a `RuleSet` or a
    /// shared `Arc<RuleSet>`.
    pub fn rules(mut self, rules: impl Into<Arc<RuleSet>>) -> Self {
        self.rules = Some(rules.into());
        self
    }

    /// Where master data comes from (default: [`MasterSource::None`]).
    pub fn master(mut self, master: MasterSource) -> Self {
        self.master = master;
        self
    }

    /// Thresholds and limits (default: [`CleanConfig::default`]).
    /// `self_match` is forced on for [`MasterSource::SelfSnapshot`];
    /// otherwise the flag is honored as given (a caller supplying its own
    /// data snapshot as an External master keeps the self-exclusion guard).
    pub fn config(mut self, config: CleanConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker threads for the parallel phase internals (shorthand for
    /// setting [`CleanConfig::parallelism`] after [`Self::config`]).
    /// `1` runs the exact single-threaded path; any setting produces
    /// bit-identical output — see [`crate::parallel`].
    pub fn parallelism(mut self, threads: std::num::NonZeroUsize) -> Self {
        self.config.parallelism = Some(threads);
        self
    }

    /// Validate everything and assemble the session.
    ///
    /// Errors (never panics on user input):
    /// * [`CleanError::MissingRules`] — no rule set given;
    /// * [`CleanError::Config`] — thresholds out of range, non-finite, or
    ///   zero limits;
    /// * [`CleanError::MdsWithoutMaster`] — MDs over [`MasterSource::None`];
    /// * [`CleanError::MasterSchemaMismatch`] — external master relation
    ///   whose schema differs from the rule set's master schema;
    /// * [`CleanError::MissingSelfSchema`] / [`CleanError::SelfSchemaMismatch`]
    ///   — self-snapshot without a positionally mirroring master schema.
    pub fn build(self) -> Result<Cleaner, CleanError> {
        let rules = self.rules.ok_or(CleanError::MissingRules)?;
        let mut config = self.config;
        // SelfSnapshot requires the self-exclusion guard; for the other
        // sources the caller's flag is honored (a caller may supply its own
        // data snapshot as an External master and still want the guard).
        if matches!(self.master, MasterSource::SelfSnapshot) {
            config.self_match = true;
        }
        config.validate()?;

        match &self.master {
            MasterSource::External(dm) => {
                if let Some(expected) = rules.master_schema() {
                    if expected.as_ref() != dm.schema().as_ref() {
                        return Err(CleanError::MasterSchemaMismatch {
                            expected: expected.to_string(),
                            found: dm.schema().to_string(),
                        });
                    }
                }
            }
            MasterSource::SelfSnapshot => {
                let master_schema = rules.master_schema().ok_or(CleanError::MissingSelfSchema)?;
                if master_schema.arity() != rules.schema().arity() {
                    return Err(CleanError::SelfSchemaMismatch {
                        data_arity: rules.schema().arity(),
                        master_arity: master_schema.arity(),
                    });
                }
            }
            MasterSource::None => {
                if !rules.mds().is_empty() {
                    return Err(CleanError::MdsWithoutMaster);
                }
            }
        }

        let index = match &self.master {
            MasterSource::External(dm) => Some(MasterIndex::build_parallel(
                rules.mds(),
                dm,
                config.interning,
                config.effective_parallelism(),
            )),
            _ => None,
        };
        Ok(Cleaner {
            prepared: Arc::new(PreparedCleaner {
                rules,
                master: self.master,
                index,
                config,
            }),
        })
    }
}
