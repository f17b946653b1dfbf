//! Incremental cleaning: a persistent [`RepairState`] plus
//! [`Cleaner::clean_delta`].
//!
//! A long-lived service does not receive whole relations — it receives a
//! relation once and then *batches of appended tuples*. Re-running the
//! unified fixpoint from scratch on every batch throws away everything the
//! previous run learned. This module keeps that knowledge alive:
//!
//! * the **`cRepair` fixpoint** (`CFixpoint`) persists between calls.
//!   `cRepair` is a monotone, write-once inference whose outcome is
//!   independent of rule-application order (§5.2), so appending a batch
//!   and *continuing* the old fixpoint — seeding only the new tuples — is
//!   a legal application order of the from-scratch run over the
//!   concatenated relation. Cost: O(batch + cascade), not O(|D|).
//! * the **2-in-1 structure** persists pinned to the post-`cRepair`
//!   state: batch tuples enter by insert-time group/entropy deltas
//!   ([`TwoInOne::insert_tuples`]), never by rebuild, and each `eRepair`
//!   run works on a clone.
//! * the **MD witness cache** persists across calls
//!   (`MdMatchCache::begin_run`): premises untouched by any repair are
//!   never re-verified — re-verification is targeted at exactly the
//!   tuples whose cells the batch or its cascade rewrote.
//! * the **acceptance check** (`Dr ⊨ Σ`, `(Dr, Dm) ⊨ Γ`) — the single
//!   most expensive part of a full `clean` call on MD-heavy workloads, an
//!   O(|D|·|Dm|) scan — is maintained by `ConsistencyIndex`: per-tuple
//!   MD verdicts and per-group CFD counters updated from the diff of the
//!   final relations, so a delta call re-verifies only changed tuples.
//!
//! **Escalation.** The continuation is only kept when it provably equals
//! the from-scratch run. A batch cascade that *repairs previously settled
//! tuples* is still legal (any application order yields the same fixes) —
//! the state keeps those writes and refreshes the structures pinned to
//! the old post-`cRepair` relation. What cannot be reproduced by a
//! continuation is *conflicting asserted evidence racing for one cell*
//! (the one order-dependent situation in `cRepair`): the `CGuard`
//! detects it and the state falls back to a full reclean of the
//! concatenated relation. The [`MasterSource::SelfSnapshot`] mode always
//! escalates — its master view is the evolving data itself, so nothing
//! prepared can be reused.
//!
//! **Contract.** `clean` + repeated `clean_delta` leaves the state's
//! repaired relation bit-identical — cell values, confidences and marks —
//! to a from-scratch [`Cleaner::clean`] over the concatenated input, along
//! with the same cost and acceptance verdict (`tests/incremental.rs` pins
//! this with a property test across parallelism and interning settings).
//! The `eRepair`/`hRepair` phases re-derive their fixes from the persisted
//! post-`cRepair` state on every call (their decisions are global); the
//! warm caches cover `cRepair`'s and `eRepair`'s MD premise verification
//! and the acceptance scan. `hRepair` still recomputes its own witness
//! lists per round (uncached today), so on `Phase::Full` states a delta
//! call's floor is one `hRepair` pass over the relation.

use std::sync::Arc;
use std::time::Instant;

use uniclean_model::{repair_cost, FxHashMap, Relation, Row, Tuple, TupleId, Value};
use uniclean_rules::{Md, RuleSet};

use crate::crepair::{c_run, CFixpoint, CGuard};
use crate::erepair::e_run;
use crate::error::CleanError;
use crate::fix::FixReport;
use crate::hrepair::h_repair;
use crate::md_cache::MdMatchCache;
use crate::phase::Phase;
use crate::pipeline::CleanResult;
use crate::session::{
    run_phases, Cleaner, MasterSource, NoOpObserver, PhaseObserver, PhaseStats, PreparedCleaner,
};
use crate::two_in_one::TwoInOne;

/// Per-relation structures stashed while [`run_phases`] passes through
/// them (capturing only clones — the run itself is unchanged).
#[derive(Default)]
pub(crate) struct StateCapture {
    /// The relation right after `cRepair`.
    pub(crate) post_c: Option<Relation>,
    /// The live `cRepair` fixpoint machine.
    pub(crate) cfix: Option<CFixpoint>,
    /// The 2-in-1 structure pinned to the post-`cRepair` state.
    pub(crate) two: Option<TwoInOne>,
    /// The `eRepair` witness cache (volatile entries tracked).
    pub(crate) e_cache: Option<MdMatchCache>,
}

/// The persistent, per-relation state of an incremental cleaning session.
///
/// Created by [`Cleaner::begin`], advanced by [`Cleaner::clean_delta`].
/// Owns the concatenated original input, the current repair, the live
/// `cRepair` fixpoint, the post-`cRepair` 2-in-1 structure, warm witness
/// caches and the incremental acceptance index.
pub struct RepairState {
    pub(crate) prepared: Arc<PreparedCleaner>,
    phase: Phase,
    /// Concatenated original (dirty) input — the §3.1 cost baseline and
    /// the escalation input.
    base: Relation,
    /// The `cRepair` fixpoint of `base`, evolved in place by
    /// continuations.
    post_c: Relation,
    /// The current repair (last call's output).
    repaired: Relation,
    cfix: Option<CFixpoint>,
    two: Option<TwoInOne>,
    e_cache: Option<MdMatchCache>,
    cons: ConsistencyIndex,
    consistent: bool,
    cost: f64,
    /// Every fix applied across the session, in application order
    /// (re-derived `eRepair`/`hRepair` fixes appear once per call).
    log: FixReport,
    escalations: usize,
    deltas: usize,
}

impl RepairState {
    /// The current repaired relation.
    pub fn repaired(&self) -> &Relation {
        &self.repaired
    }

    /// The concatenated original input the state has absorbed.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// Tuples currently covered.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Is the state empty?
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Does the current repair satisfy `Σ` and `Γ`?
    pub fn consistent(&self) -> bool {
        self.consistent
    }

    /// `cost(Dr, D)` over the concatenated input (§3.1 model).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The phase prefix this state runs (fixed at [`Cleaner::begin`]).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Cumulative fix log across the initial clean and every delta call.
    pub fn log(&self) -> &FixReport {
        &self.log
    }

    /// How many `clean_delta` calls fell back to a full reclean.
    pub fn escalations(&self) -> usize {
        self.escalations
    }

    /// How many `clean_delta` calls this state has absorbed.
    pub fn deltas(&self) -> usize {
        self.deltas
    }

    /// Is tuple `tid` of the current repair accepted — does it violate no
    /// CFD and no MD? The per-tuple slice of [`RepairState::consistent`]:
    /// the relation-level verdict holds exactly when every tuple is
    /// accepted. Served from the maintained acceptance index, **without
    /// running a phase**: the CFD half reads the live group counters, the
    /// MD half reads the materialized per-tuple verdicts when present and
    /// falls back to one targeted master scan for this tuple otherwise.
    ///
    /// A tuple in a variable-CFD group holding two distinct non-null RHS
    /// values is rejected along with the whole group — group violations
    /// are attributed to every member, since repairing any of them could
    /// resolve the clash.
    ///
    /// Panics if `tid` is out of range (callers serving untrusted ids
    /// should bound-check against [`RepairState::len`] first).
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple, TupleId};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// // cRepair alone cannot touch this low-confidence cell, so the
    /// // violation survives into the repair — and the index reports it.
    /// let d = Relation::new(s, vec![Tuple::of_strs(&["131", "Ldn"], 0.0)]);
    /// let (state, result) = cleaner.begin(&d, Phase::CRepair);
    /// assert!(!result.consistent);
    /// assert!(!state.is_accepted(TupleId(0)));
    /// assert_eq!(state.violations(TupleId(0))[0].rule, "phi1");
    /// ```
    pub fn is_accepted(&self, tid: TupleId) -> bool {
        let rules = self.prepared.rules();
        let t = self.repaired.tuple(tid);
        if !self.cons.tuple_cfd_ok(rules, t) {
            return false;
        }
        if rules.mds().is_empty() {
            return true;
        }
        if let Some(ok) = self.cons.tuple_md_ok_cached(tid) {
            return ok;
        }
        let mut storage = None;
        let dm = self
            .prepared
            .acceptance_master(&self.repaired, &mut storage);
        md_tuple_ok(rules, self.cons.premise_orders(), t, dm)
    }

    /// The rules rejecting tuple `tid` of the current repair — empty
    /// exactly when [`RepairState::is_accepted`] holds. Like
    /// `is_accepted`, answered online from the acceptance index plus (for
    /// MDs) one targeted scan of the master view for this tuple; no phase
    /// runs. Rules appear in declaration order, CFDs before MDs.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase, ViolationKind};
    /// use uniclean_model::{Relation, Schema, Tuple, TupleId};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC] -> [city])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// // Two equally-confident witnesses for one area code: cRepair
    /// // cannot decide, so both group members stay in violation.
    /// let d = Relation::new(
    ///     s,
    ///     vec![
    ///         Tuple::of_strs(&["131", "Edi"], 0.0),
    ///         Tuple::of_strs(&["131", "Ldn"], 0.0),
    ///     ],
    /// );
    /// let (state, _) = cleaner.begin(&d, Phase::CRepair);
    /// let v = state.violations(TupleId(1));
    /// assert_eq!(v.len(), 1);
    /// assert_eq!(v[0].rule, "phi1");
    /// assert_eq!(v[0].kind, ViolationKind::VariableCfd);
    /// ```
    pub fn violations(&self, tid: TupleId) -> Vec<TupleViolation> {
        let rules = self.prepared.rules();
        let t = self.repaired.tuple(tid);
        let mut out = self.cons.tuple_cfd_violations(rules, t);
        if !rules.mds().is_empty() {
            let mut storage = None;
            let dm = self
                .prepared
                .acceptance_master(&self.repaired, &mut storage);
            for (md, order) in rules.mds().iter().zip(self.cons.premise_orders()) {
                if !md_single_ok(md, order, t, dm) {
                    out.push(TupleViolation {
                        rule: md.name().to_string(),
                        kind: ViolationKind::Md,
                    });
                }
            }
        }
        out
    }
}

/// Which rule family rejected a tuple (see [`RepairState::violations`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A constant CFD: the tuple matches the LHS pattern but not the RHS
    /// constant.
    ConstantCfd,
    /// A variable CFD: the tuple's LHS group holds two or more distinct
    /// non-null RHS values (the violation is attributed to every group
    /// member).
    VariableCfd,
    /// An MD: some master tuple matches every premise but disagrees on
    /// the RHS attribute.
    Md,
}

/// One rule rejecting one tuple, as reported by
/// [`RepairState::violations`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TupleViolation {
    /// Name of the violated rule (as written in the rule text).
    pub rule: String,
    /// Which rule family it belongs to.
    pub kind: ViolationKind,
}

impl std::fmt::Debug for RepairState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairState")
            .field("tuples", &self.base.len())
            .field("phase", &self.phase)
            .field("consistent", &self.consistent)
            .field("deltas", &self.deltas)
            .field("escalations", &self.escalations)
            .finish_non_exhaustive()
    }
}

impl Cleaner {
    /// Clean `d` and keep the session state alive for incremental
    /// [`Cleaner::clean_delta`] calls. The returned state's repair equals
    /// [`Cleaner::clean`] on `d` exactly.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, CleanConfig, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let d = Relation::new(s, vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
    /// let (mut state, first) = cleaner.begin(&d, Phase::Full);
    /// assert!(first.consistent);
    ///
    /// // A batch arrives: only the new tuples are cleaned.
    /// let batch = vec![Tuple::of_strs(&["131", "Lds"], 0.5)];
    /// let next = cleaner.clean_delta(&mut state, &batch).unwrap();
    /// assert_eq!(next.repaired.len(), 2);
    /// assert!(next.consistent);
    /// ```
    pub fn begin(&self, d: &Relation, phase: Phase) -> (RepairState, CleanResult) {
        self.begin_observed(d, phase, &mut NoOpObserver)
    }

    /// [`Cleaner::begin`] with a [`PhaseObserver`] receiving per-phase
    /// timing and fix counts as the initial clean progresses.
    pub fn begin_observed(
        &self,
        d: &Relation,
        phase: Phase,
        observer: &mut dyn PhaseObserver,
    ) -> (RepairState, CleanResult) {
        full_clean(self.prepared().clone(), d.clone(), phase, 0, 0, observer)
    }

    /// A [`RepairState`] over **zero tuples** — the serving shape, where a
    /// relation is registered first and fed purely by
    /// [`Cleaner::clean_delta`] batches. Equivalent to
    /// [`Cleaner::begin`] on an empty relation of the session's data
    /// schema; the pinned contract (`tests/incremental.rs`) is that
    /// `begin_empty` + `clean_delta(batch)` leaves the state bit-identical
    /// to `begin(batch)`.
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let mut state = cleaner.begin_empty(Phase::Full);
    /// assert!(state.is_empty());
    /// assert!(state.consistent());
    ///
    /// let batch = vec![Tuple::of_strs(&["131", "Ldn"], 0.5)];
    /// let result = cleaner.clean_delta(&mut state, &batch).unwrap();
    /// assert!(result.consistent);
    /// assert_eq!(state.len(), 1);
    /// ```
    pub fn begin_empty(&self, phase: Phase) -> RepairState {
        let base = Relation::empty(self.prepared().rules().schema().clone());
        full_clean(
            self.prepared().clone(),
            base,
            phase,
            0,
            0,
            &mut NoOpObserver,
        )
        .0
    }

    /// Absorb a batch of appended tuples into `state` incrementally.
    ///
    /// The appended tuples are cleaned *against* the existing state: the
    /// persisted `cRepair` fixpoint continues over them, the 2-in-1
    /// structures extend by insert-time deltas, and MD/CFD premises are
    /// re-verified only where the batch (or its cascade) touched them.
    /// When a batch repair invalidates previously settled tuples the call
    /// transparently escalates to a full reclean of the concatenated
    /// relation (see [`RepairState::escalations`]).
    ///
    /// After the call, `state.repaired()` is **bit-identical** to
    /// `self.clean(&concatenated, state.phase()).repaired` — same values,
    /// confidences and marks, same cost and acceptance verdict. The
    /// returned [`CleanResult`] reports the fixes this call applied (on
    /// the fast path: the batch's deterministic cascade plus the
    /// re-derived reliable/possible fixes).
    ///
    /// Errors: [`CleanError::ForeignState`] when `state` was produced by a
    /// different [`Cleaner`]; [`CleanError::BatchArityMismatch`] when a
    /// batch tuple does not fit the data schema;
    /// [`CleanError::Model`] when a batch cell carries a confidence
    /// outside `[0, 1]` (validated in release builds too).
    ///
    /// ```
    /// use uniclean_core::{Cleaner, Phase};
    /// use uniclean_model::{Relation, Schema, Tuple};
    /// use uniclean_rules::{parse_rules, RuleSet};
    ///
    /// let s = Schema::of_strings("tran", &["AC", "city"]);
    /// let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &s, None).unwrap();
    /// let rules = RuleSet::cfds_only(s.clone(), parsed.cfds);
    /// let cleaner = Cleaner::builder().rules(rules).build().unwrap();
    ///
    /// let base = Relation::new(s.clone(), vec![Tuple::of_strs(&["131", "Ldn"], 0.5)]);
    /// let (mut state, _) = cleaner.begin(&base, Phase::Full);
    ///
    /// // Batches arrive over time; each call absorbs one incrementally.
    /// for city in ["Lds", "Gla"] {
    ///     let batch = vec![Tuple::of_strs(&["131", city], 0.5)];
    ///     let result = cleaner.clean_delta(&mut state, &batch).unwrap();
    ///     assert!(result.consistent);
    /// }
    /// // The state equals a from-scratch clean of all three tuples:
    /// assert_eq!(state.len(), 3);
    /// assert!(state
    ///     .repaired()
    ///     .rows()
    ///     .all(|t| t.value(s.attr_id_or_panic("city")) == &uniclean_model::Value::str("Edi")));
    /// ```
    pub fn clean_delta(
        &self,
        state: &mut RepairState,
        batch: &[Tuple],
    ) -> Result<CleanResult, CleanError> {
        self.clean_delta_observed(state, batch, &mut NoOpObserver)
    }

    /// [`Cleaner::clean_delta`] with a [`PhaseObserver`] receiving
    /// per-phase timing and fix counts as the delta call progresses — the
    /// same hook [`Cleaner::clean_observed`] offers for one-shot cleans,
    /// so a long-lived service can meter its incremental path through the
    /// one instrumentation surface. A call that escalates reports the
    /// reclean's phases; the aborted `cRepair` continuation attempt then
    /// appears as an `on_phase_start` without a matching end.
    pub fn clean_delta_observed(
        &self,
        state: &mut RepairState,
        batch: &[Tuple],
        observer: &mut dyn PhaseObserver,
    ) -> Result<CleanResult, CleanError> {
        if !Arc::ptr_eq(&state.prepared, self.prepared()) {
            return Err(CleanError::ForeignState);
        }
        let prepared = state.prepared.clone();
        let arity = prepared.rules().schema().arity();
        if let Some(t) = batch.iter().find(|t| t.arity() != arity) {
            return Err(CleanError::BatchArityMismatch {
                expected: arity,
                found: t.arity(),
            });
        }
        // Ingest validation in release builds too: a confidence outside
        // [0, 1] would skew the η-threshold seeding and the cost model
        // silently (`Cell::new` only debug-asserts the range).
        for t in batch {
            t.validate_cf()?;
        }

        let settled = state.base.len();
        for t in batch {
            state.base.push(t.clone());
        }

        // No reusable structures (self-snapshot master): full reclean.
        if state.cfix.is_none() {
            return Ok(escalate(state, observer));
        }

        let rules = prepared.rules().clone();
        let cfg = prepared.config().clone();
        let mut phases = Vec::new();

        // cRepair: continue the persisted fixpoint over the batch only.
        for t in batch {
            state.post_c.push(t.clone());
        }
        let fx = state.cfix.as_mut().expect("checked above");
        fx.grow(batch.len());
        let mut guard = CGuard::new(settled);
        let (dm, index) = prepared.external_view();
        observer.on_phase_start(Phase::CRepair);
        let started = Instant::now();
        let c_report = c_run(
            &mut state.post_c,
            dm,
            &rules,
            index,
            &cfg,
            fx,
            settled,
            Some(&mut guard),
        );
        if guard.hazard {
            return Ok(escalate(state, observer));
        }
        let stats = PhaseStats {
            phase: Phase::CRepair,
            seconds: started.elapsed().as_secs_f64(),
            fixes: c_report.len(),
        };
        observer.on_phase_end(&stats);
        phases.push(stats);

        let mut report = c_report;
        let mut work;
        if state.phase >= Phase::ERepair {
            // eRepair re-derives its (globally decided) fixes from the
            // persisted post-cRepair state: extend the persistent 2-in-1 by
            // insert-time deltas, run on a clone, serve premise
            // verification from the warm cross-call cache.
            let cache = state.e_cache.as_mut().expect("captured with cfix");
            let two = state.two.as_mut().expect("captured with cfix");
            cache.grow(batch.len());
            cache.begin_run();
            if guard.settled_writes > 0 {
                // The batch's deterministic cascade legitimately rewrote
                // settled tuples (kept — a continuation is a legal §5.2
                // application order). The 2-in-1 structure pinned to the
                // old post-cRepair state is stale in a way insert-time
                // deltas cannot express without perturbing group-id order,
                // so rebuild it; witness-cache entries are dropped only for
                // the cells the cascade actually touched.
                *two = TwoInOne::build_with(
                    &rules,
                    &state.post_c,
                    cfg.interning,
                    cfg.effective_parallelism(),
                );
                for rec in report.records() {
                    cache.invalidate(rec.tuple, rec.attr);
                }
            } else {
                two.insert_tuples(&rules, &state.post_c, settled);
            }
            let mut structure = two.clone();
            work = state.post_c.clone();
            observer.on_phase_start(Phase::ERepair);
            let started = Instant::now();
            let e_report = e_run(&mut work, dm, &rules, index, &cfg, &mut structure, cache);
            let stats = PhaseStats {
                phase: Phase::ERepair,
                seconds: started.elapsed().as_secs_f64(),
                fixes: e_report.len(),
            };
            observer.on_phase_end(&stats);
            phases.push(stats);
            report.extend(e_report);

            if state.phase >= Phase::HRepair {
                observer.on_phase_start(Phase::HRepair);
                let started = Instant::now();
                let h_report = h_repair(&mut work, dm, &rules, index, &cfg);
                let stats = PhaseStats {
                    phase: Phase::HRepair,
                    seconds: started.elapsed().as_secs_f64(),
                    fixes: h_report.len(),
                };
                observer.on_phase_end(&stats);
                phases.push(stats);
                report.extend(h_report);
            }
        } else {
            work = state.post_c.clone();
        }

        // Targeted acceptance re-verification: only tuples whose final
        // cells changed (plus the batch) are re-checked against Σ and Γ.
        let mut storage = None;
        let dm_final = prepared.acceptance_master(&work, &mut storage);
        state.cons.update(&rules, dm_final, &state.repaired, &work);
        let consistent = state.cons.consistent();
        let cost = repair_cost(&state.base, &work);

        state.repaired = work;
        state.consistent = consistent;
        state.cost = cost;
        state.log.extend(report.clone());
        state.deltas += 1;
        Ok(CleanResult {
            repaired: state.repaired.clone(),
            report,
            cost,
            consistent,
            phases,
        })
    }
}

/// Full (re)clean of `base`, capturing every persistent structure.
fn full_clean(
    prepared: Arc<PreparedCleaner>,
    base: Relation,
    phase: Phase,
    escalations: usize,
    deltas: usize,
    observer: &mut dyn PhaseObserver,
) -> (RepairState, CleanResult) {
    let mut work = base.clone();
    // Self-snapshot masters re-render per phase; nothing per-relation can
    // be pinned, so deltas always escalate (capture stays empty).
    let capturable = !matches!(prepared.master(), MasterSource::SelfSnapshot);
    let mut capture = StateCapture::default();
    let (report, phases) = run_phases(
        &prepared,
        &mut work,
        phase,
        observer,
        capturable.then_some(&mut capture),
    );

    let rules = prepared.rules().clone();
    let mut storage = None;
    let dm_final = prepared.acceptance_master(&work, &mut storage);
    let cons = ConsistencyIndex::build(&rules, &work, dm_final);
    let consistent = cons.consistent();
    let cost = repair_cost(&base, &work);

    let result = CleanResult {
        repaired: work.clone(),
        report: report.clone(),
        cost,
        consistent,
        phases,
    };
    let post_c = capture.post_c.take().unwrap_or_else(|| work.clone());
    let state = RepairState {
        prepared,
        phase,
        base,
        post_c,
        repaired: work,
        cfix: capture.cfix,
        two: capture.two,
        e_cache: capture.e_cache,
        cons,
        consistent,
        cost,
        log: report,
        escalations,
        deltas,
    };
    (state, result)
}

/// Fall back to a from-scratch clean of the concatenated relation,
/// replacing every persistent structure.
fn escalate(state: &mut RepairState, observer: &mut dyn PhaseObserver) -> CleanResult {
    let prepared = state.prepared.clone();
    let base = std::mem::replace(
        &mut state.base,
        Relation::empty(prepared.rules().schema().clone()),
    );
    let (mut fresh, result) = full_clean(
        prepared,
        base,
        state.phase,
        state.escalations + 1,
        state.deltas + 1,
        observer,
    );
    // The session-wide log keeps its history; append this reclean's fixes.
    let mut log = std::mem::take(&mut state.log);
    log.extend(result.report.clone());
    fresh.log = log;
    *state = fresh;
    result
}

// ---------------------------------------------------------------------------
// Incremental acceptance checking.
// ---------------------------------------------------------------------------

/// Per-group state of one variable CFD in the acceptance index.
#[derive(Default)]
struct VGroupCount {
    /// Members (tuples matching the LHS pattern with this key).
    members: usize,
    /// Distinct non-null RHS value counts.
    counts: FxHashMap<Value, usize>,
}

impl VGroupCount {
    /// Violating under SQL null semantics: two or more distinct non-null
    /// RHS values.
    fn bad(&self) -> bool {
        self.counts.len() >= 2
    }
}

/// Incrementally maintained §3.2 acceptance state: the same verdict as
/// `satisfies_all(Σ, Γ, Dr, Dm)` (SQL null semantics), but updatable from
/// a per-tuple diff instead of a from-scratch O(|D|·|Dm|) scan.
///
/// The MD half mirrors `satisfies_all`'s short-circuit: per-tuple MD
/// verdicts are only materialized once the CFD half holds (before that,
/// the reference check never reaches `Γ` either). Once materialized they
/// are maintained from the diff, so a delta call re-verifies MDs for
/// changed tuples only — on MD-heavy workloads this turns the dominant
/// O(|D|·|Dm|) acceptance scan into O(|changed|·|Dm|).
pub(crate) struct ConsistencyIndex {
    /// Per constant CFD: violating tuple count.
    ccfd_bad: Vec<usize>,
    /// Per variable CFD: group table and violating-group count.
    vgroups: Vec<FxHashMap<Vec<Value>, VGroupCount>>,
    vcfd_bad: Vec<usize>,
    /// Per tuple: does it satisfy every MD against the master view?
    /// Lazily materialized (see struct docs), then kept in sync.
    md_ok: Option<Vec<bool>>,
    md_bad: usize,
    /// Per MD: premise indices ordered cheapest-first (equality before
    /// similarity) — precomputed once, used by every `md_tuple_ok` call.
    premise_orders: Vec<Vec<usize>>,
    consistent: bool,
}

impl ConsistencyIndex {
    /// Build from scratch over a final relation and its acceptance master.
    pub(crate) fn build(rules: &RuleSet, d: &Relation, dm: &Relation) -> Self {
        use uniclean_similarity::SimilarityPredicate;
        let n_c = rules.cfds().iter().filter(|c| c.is_constant()).count();
        let n_v = rules.cfds().len() - n_c;
        let premise_orders = rules
            .mds()
            .iter()
            .map(|md| {
                let mut order: Vec<usize> = (0..md.premises().len()).collect();
                order.sort_by_key(|&i| match md.premises()[i].pred {
                    SimilarityPredicate::Equal => 0,
                    _ => 1,
                });
                order
            })
            .collect();
        let mut me = ConsistencyIndex {
            ccfd_bad: vec![0; n_c],
            vgroups: (0..n_v).map(|_| FxHashMap::default()).collect(),
            vcfd_bad: vec![0; n_v],
            md_ok: None,
            md_bad: 0,
            premise_orders,
            consistent: false,
        };
        for (_, t) in d.iter() {
            me.apply_cfds(rules, t, 1);
        }
        me.refresh_verdict(rules, d, dm);
        me
    }

    /// The verdict as of the last build/update: `Dr ⊨ Σ` and
    /// `(Dr, Dm) ⊨ Γ`.
    pub(crate) fn consistent(&self) -> bool {
        self.consistent
    }

    /// Per-MD premise evaluation orders (cheapest-first), for callers
    /// running targeted [`md_tuple_ok`]/[`md_single_ok`] probes.
    pub(crate) fn premise_orders(&self) -> &[Vec<usize>] {
        &self.premise_orders
    }

    /// The per-tuple MD verdict, if the lazily-built table has been
    /// materialized (`None` means the CFD half never held, so MD verdicts
    /// were never needed — compute a targeted probe instead).
    pub(crate) fn tuple_md_ok_cached(&self, tid: TupleId) -> Option<bool> {
        self.md_ok.as_ref().map(|ok| ok[tid.index()])
    }

    /// Does `t` violate no CFD? Constant CFDs are checked directly against
    /// the tuple; variable CFDs read the maintained group table (a tuple in
    /// a violating group is rejected with the whole group).
    pub(crate) fn tuple_cfd_ok<'t>(&self, rules: &RuleSet, t: impl Row<'t>) -> bool {
        self.tuple_cfd_violations(rules, t).is_empty()
    }

    /// The CFDs rejecting `t`, in declaration order.
    pub(crate) fn tuple_cfd_violations<'t>(
        &self,
        rules: &RuleSet,
        t: impl Row<'t>,
    ) -> Vec<TupleViolation> {
        let mut out = Vec::new();
        let mut vi = 0usize;
        for cfd in rules.cfds() {
            if cfd.is_constant() {
                if cfd.lhs_matches(t) {
                    let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
                    if !t.value(cfd.rhs()[0]).eq_nullable(want) {
                        out.push(TupleViolation {
                            rule: cfd.name().to_string(),
                            kind: ViolationKind::ConstantCfd,
                        });
                    }
                }
            } else {
                let slot = vi;
                vi += 1;
                if cfd.lhs_matches(t) {
                    let key = t.project(cfd.lhs());
                    if self.vgroups[slot].get(&key).is_some_and(|g| g.bad()) {
                        out.push(TupleViolation {
                            rule: cfd.name().to_string(),
                            kind: ViolationKind::VariableCfd,
                        });
                    }
                }
            }
        }
        out
    }

    fn cfds_ok(&self) -> bool {
        self.ccfd_bad.iter().all(|&n| n == 0) && self.vcfd_bad.iter().all(|&n| n == 0)
    }

    /// Re-verify against the new final relation: `prev` is the previous
    /// final (a prefix of `new` tuple-wise); only tuples whose cell values
    /// changed, plus appended tuples, are re-checked.
    pub(crate) fn update(
        &mut self,
        rules: &RuleSet,
        dm: &Relation,
        prev: &Relation,
        new: &Relation,
    ) {
        for i in 0..prev.len() {
            let (a, b) = (prev.tuple(TupleId::from(i)), new.tuple(TupleId::from(i)));
            let changed = a
                .cells()
                .zip(b.cells())
                .any(|(ca, cb)| ca.value != cb.value);
            if changed {
                self.apply_cfds(rules, a, -1);
                self.apply_cfds(rules, b, 1);
                if let Some(md_ok) = &mut self.md_ok {
                    let ok = md_tuple_ok(rules, &self.premise_orders, b, dm);
                    if md_ok[i] != ok {
                        md_ok[i] = ok;
                        if ok {
                            self.md_bad -= 1;
                        } else {
                            self.md_bad += 1;
                        }
                    }
                }
            }
        }
        for i in prev.len()..new.len() {
            let t = new.tuple(TupleId::from(i));
            self.apply_cfds(rules, t, 1);
            if let Some(md_ok) = &mut self.md_ok {
                let ok = md_tuple_ok(rules, &self.premise_orders, t, dm);
                md_ok.push(ok);
                if !ok {
                    self.md_bad += 1;
                }
            }
        }
        self.refresh_verdict(rules, new, dm);
    }

    /// Combine the halves, materializing the MD verdicts on first need —
    /// exactly when the reference `satisfies_all`'s `&&` would first
    /// evaluate its `Γ` side.
    fn refresh_verdict(&mut self, rules: &RuleSet, d: &Relation, dm: &Relation) {
        if !self.cfds_ok() {
            self.consistent = false;
            return;
        }
        if self.md_ok.is_none() {
            let mut md_ok = Vec::with_capacity(d.len());
            let mut bad = 0usize;
            for (_, t) in d.iter() {
                let ok = md_tuple_ok(rules, &self.premise_orders, t, dm);
                md_ok.push(ok);
                if !ok {
                    bad += 1;
                }
            }
            self.md_ok = Some(md_ok);
            self.md_bad = bad;
        }
        self.consistent = self.md_bad == 0;
    }

    /// Add (`delta = 1`) or remove (`-1`) one tuple's CFD contributions.
    fn apply_cfds<'t>(&mut self, rules: &RuleSet, t: impl Row<'t>, delta: isize) {
        let (mut ci, mut vi) = (0usize, 0usize);
        for cfd in rules.cfds() {
            if cfd.is_constant() {
                let slot = ci;
                ci += 1;
                if !cfd.lhs_matches(t) {
                    continue;
                }
                let want = cfd.rhs_pattern()[0].as_const().expect("constant CFD");
                if !t.value(cfd.rhs()[0]).eq_nullable(want) {
                    self.ccfd_bad[slot] = self.ccfd_bad[slot]
                        .checked_add_signed(delta)
                        .expect("violation count underflow");
                }
            } else {
                let slot = vi;
                vi += 1;
                if !cfd.lhs_matches(t) {
                    continue;
                }
                let key = t.project(cfd.lhs());
                let rhs = t.value(cfd.rhs()[0]);
                let group = self.vgroups[slot].entry(key.clone()).or_default();
                let was_bad = group.bad();
                match delta {
                    1 => {
                        group.members += 1;
                        if !rhs.is_null() {
                            *group.counts.entry(rhs.clone()).or_insert(0) += 1;
                        }
                    }
                    -1 => {
                        group.members -= 1;
                        if !rhs.is_null() {
                            let c = group
                                .counts
                                .get_mut(rhs)
                                .expect("removing an uncounted value");
                            *c -= 1;
                            if *c == 0 {
                                group.counts.remove(rhs);
                            }
                        }
                    }
                    _ => unreachable!("delta is ±1"),
                }
                let now_bad = group.bad();
                let empty = group.members == 0;
                if was_bad != now_bad {
                    if now_bad {
                        self.vcfd_bad[slot] += 1;
                    } else {
                        self.vcfd_bad[slot] -= 1;
                    }
                }
                if empty {
                    self.vgroups[slot].remove(&key);
                }
            }
        }
    }
}

/// Does `t` satisfy every MD against `dm` (SQL null semantics, §7)? The
/// per-tuple slice of the reference `md_violations` scan, with one
/// verdict-preserving twist: premises are evaluated cheapest-first
/// (equality before similarity), so a master tuple that fails an equality
/// premise never pays for an edit-distance computation. The conjunction's
/// value is unchanged.
fn md_tuple_ok<'t>(
    rules: &RuleSet,
    premise_orders: &[Vec<usize>],
    t: impl Row<'t>,
    dm: &Relation,
) -> bool {
    rules
        .mds()
        .iter()
        .zip(premise_orders)
        .all(|(md, order)| md_single_ok(md, order, t, dm))
}

/// The single-MD slice of [`md_tuple_ok`], for per-rule violation
/// reporting ([`RepairState::violations`]).
fn md_single_ok<'t>(md: &Md, order: &[usize], t: impl Row<'t>, dm: &Relation) -> bool {
    let (e, f) = md.rhs()[0];
    dm.rows().all(|s| {
        let matched = order.iter().all(|&i| {
            let p = &md.premises()[i];
            let tv = t.value(p.attr);
            let sv = s.value(p.master_attr);
            !tv.is_null() && !sv.is_null() && p.pred.matches(&tv.render(), &sv.render())
        });
        !matched || t.value(e).eq_nullable(s.value(f))
    })
}
