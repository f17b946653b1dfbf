//! The batch workloads: one `Cleaner` per seeded instance, then
//! `clean(&dirty, Phase::Full)` round robin over the instances for the
//! run's seconds.
//!
//! The traced run, on the first instance, chains the public phase
//! functions on a copy of the dirty relation — `c_repair` → `e_repair` →
//! `h_repair`, then
//! `satisfies_all` and `repair_cost` — checks that the chain reproduces
//! `clean(Full)` exactly, and attributes `clean_s` to those layers plus a
//! stated residual. It also times a standalone `TwoInOne::build` and a
//! master-index probe pass.

use std::num::NonZeroUsize;
use std::time::Instant;

use uniclean_core::two_in_one::TwoInOne;
use uniclean_core::{
    c_repair, e_repair, h_repair, CleanConfig, CleanResult, Cleaner, MasterIndex, MasterSource,
    Phase, ProbeScratch,
};
use uniclean_datagen::{dblp_similarity_workload, hosp_workload, GenParams, Workload};
use uniclean_model::json::relation_to_json;
use uniclean_model::{repair_cost, Json, Relation};
use uniclean_rules::satisfies_all;

use crate::stats::{median, residual};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Report, RunCfg};

#[derive(Clone, Copy)]
pub struct Spec {
    tuples: usize,
    master: usize,
    /// Seeded instances per run. The timed loop cycles through them and
    /// repair quality is their mean, so one run's figures do not hang on
    /// one draw of the generator.
    instances: usize,
    smoke_tuples: usize,
    smoke_master: usize,
    smoke_instances: usize,
    generate: fn(&GenParams) -> Workload,
}

pub const HOSP: Spec = Spec {
    tuples: 10_000,
    master: 2_000,
    instances: 1,
    smoke_tuples: 300,
    smoke_master: 100,
    smoke_instances: 1,
    generate: hosp_workload,
};

pub const DBLP_SIM: Spec = Spec {
    tuples: 1_000,
    master: 300,
    instances: 8,
    smoke_tuples: 200,
    smoke_master: 60,
    smoke_instances: 2,
    generate: dblp_similarity_workload,
};

/// The generator seed of instance `i` of a run with seed `seed`: the
/// run's seed for the first instance, and distinct from every other run's
/// instances for seeds below a million.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(1_000_000 * i as u64)
}

/// Sessions built and dropped after each timed call, for `setup_s`.
const BUILDS_PER_CALL: usize = 10;

/// The paper's §8 configuration on one engine thread.
pub fn paper_config() -> CleanConfig {
    CleanConfig {
        eta: 1.0,
        delta_entropy: 0.8,
        parallelism: NonZeroUsize::new(1),
        ..CleanConfig::default()
    }
}

fn build(w: &Workload) -> Result<Cleaner, String> {
    Cleaner::builder()
        .rules(w.rules.clone())
        .master(MasterSource::external(w.master.clone()))
        .config(paper_config())
        .build()
        .map_err(|e| format!("Cleaner::build: {e}"))
}

/// Two repaired relations agree cell for cell: value, confidence, mark.
fn same_cells(a: &Relation, b: &Relation) -> bool {
    relation_to_json(a).render() == relation_to_json(b).render()
}

pub fn run(spec: Spec, cfg: &RunCfg, report: &mut Report) -> Result<(), String> {
    let (tuples, master, instances) = if cfg.smoke {
        (spec.smoke_tuples, spec.smoke_master, spec.smoke_instances)
    } else {
        (spec.tuples, spec.master, spec.instances)
    };
    let ws: Vec<Workload> = (0..instances)
        .map(|i| {
            (spec.generate)(&GenParams {
                tuples,
                master_tuples: master,
                seed: instance_seed(cfg.seed, i),
                ..GenParams::default()
            })
        })
        .collect();
    let w = &ws[0];
    report.info("instances", Json::Num(instances as f64));
    report.info(
        "instance_seeds",
        Json::Arr(
            (0..instances)
                .map(|i| Json::Num(instance_seed(cfg.seed, i) as f64))
                .collect(),
        ),
    );
    report.info("tuples", Json::Num(w.dirty.len() as f64));
    report.info("master_tuples", Json::Num(w.master.len() as f64));
    report.info(
        "rules",
        Json::Num((w.rules.cfds().len() + w.rules.mds().len()) as f64),
    );

    // Set-up: one session per instance.
    let mut builds = Vec::new();
    let mut cleaners = Vec::with_capacity(instances);
    for w in &ws {
        let t = Instant::now();
        cleaners.push(build(w)?);
        builds.push(t.elapsed().as_secs_f64());
    }

    // Timed: clean(Full) round robin over the instances, every instance
    // at least once and the first twice, then while another call is
    // expected to end within the run's seconds. After each call a few
    // more sessions are built and dropped, so `setup_s` is a median over
    // the whole run rather than over one moment of the host's speed.
    let mut times: Vec<f64> = Vec::new();
    let mut firsts: Vec<Option<CleanResult>> = vec![None; instances];
    let timed = Instant::now();
    while times.len() <= instances
        || timed.elapsed().as_secs_f64() + times.last().unwrap() <= cfg.seconds
    {
        let i = times.len() % instances;
        let t = Instant::now();
        let r = cleaners[i].clean(&ws[i].dirty, Phase::Full);
        times.push(t.elapsed().as_secs_f64());
        report.ops.record(r.consistent);
        match &firsts[i] {
            None => firsts[i] = Some(r),
            Some(f) => report.check(
                f.cost.to_bits() == r.cost.to_bits() && same_cells(&f.repaired, &r.repaired),
                || format!("repeated clean(Full) calls on instance {i} disagree"),
            ),
        }
        for _ in 0..BUILDS_PER_CALL {
            let t = Instant::now();
            std::hint::black_box(build(&ws[i])?);
            builds.push(t.elapsed().as_secs_f64());
        }
    }
    report.set("setup_s", median(&builds).unwrap());
    report.info("session_builds", Json::Num(builds.len() as f64));
    let results: Vec<CleanResult> = firsts.into_iter().map(Option::unwrap).collect();
    report.info("clean_calls", Json::Num(times.len() as f64));
    report.info(
        "clean_call_ms",
        Json::Arr(times.iter().map(|t| Json::Num((t * 1e3).round())).collect()),
    );
    report.set("op_p50_ms", median(&times).unwrap() * 1e3);
    let (mut precision, mut recall, mut f1) = (0.0, 0.0, 0.0);
    for (i, (w, r)) in ws.iter().zip(&results).enumerate() {
        report.check(r.consistent, || {
            format!("clean(Full) left instance {i} inconsistent")
        });
        let q = uniclean_metrics::repair_quality(&w.dirty, &r.repaired, &w.truth);
        precision += q.precision;
        recall += q.recall;
        f1 += q.f1();
    }
    let n = instances as f64;
    report.set("repair_precision", precision / n);
    report.set("repair_recall", recall / n);
    report.set("repair_f1", f1 / n);
    report.set(
        "peak_rss_mb",
        peak_rss_mb("self").ok_or("cannot read VmHWM")?,
    );

    if cfg.traced {
        traced(w, &cleaners[0], &results[0], report)?;
    }
    Ok(())
}

/// Traced chains, each right after an untraced `clean(Full)`, so the
/// layers and the wall clock they are subtracted from are measured under
/// the same host conditions.
const PAIRS: usize = 3;

fn traced(
    w: &Workload,
    cleaner: &Cleaner,
    reference: &CleanResult,
    report: &mut Report,
) -> Result<(), String> {
    let mut t = Tracer::default();
    let config = cleaner.prepared().config().clone();
    let rules = cleaner.rules().clone();
    let MasterSource::External(dm) = cleaner.master() else {
        return Err("batch workloads clean against an external master".into());
    };
    let idx = cleaner.prepared().master_index();

    t.span("core.session.build", || build(w))?;
    t.span("core.master_index.build", || {
        MasterIndex::build_parallel(rules.mds(), dm, config.interning, 1)
    });

    let mut paired = Vec::with_capacity(PAIRS);
    let mut fixes = [0; 3];
    let (mut work, mut post_c) = (w.dirty.clone(), w.dirty.clone());
    for _ in 0..PAIRS {
        let started = Instant::now();
        std::hint::black_box(cleaner.clean(&w.dirty, Phase::Full));
        paired.push(started.elapsed().as_secs_f64());

        let chain = t.begin("core.pipeline");
        work = w.dirty.clone();
        fixes[0] = t.span("core.crepair", || {
            c_repair(&mut work, Some(dm), &rules, idx, &config).len()
        });
        post_c = work.clone();
        fixes[1] = t.span("core.erepair", || {
            e_repair(&mut work, Some(dm), &rules, idx, &config).len()
        });
        fixes[2] = t.span("core.hrepair", || {
            h_repair(&mut work, Some(dm), &rules, idx, &config).len()
        });
        let consistent = t.span("rules.satisfaction", || {
            satisfies_all(rules.cfds(), rules.mds(), &work, dm)
        });
        let cost = t.span("model.cost", || repair_cost(&w.dirty, &work));
        t.end(chain);
        report.check(
            consistent
                && same_cells(&work, &reference.repaired)
                && cost.to_bits() == reference.cost.to_bits(),
            || "the traced phase chain does not reproduce clean(Full)".to_string(),
        );
    }
    let clean_s = median(&paired).unwrap();

    // eRepair builds this structure internally; timed alone, not summed.
    t.span("core.two_in_one.build", || {
        TwoInOne::build_with(&rules, &post_c, config.interning, 1).len()
    });

    // Probe pass: every repaired tuple through candidate generation, then
    // through verification, for each MD.
    let (mut candidates, mut verified) = (0u64, 0u64);
    if let Some(idx) = idx {
        let mut scratch = ProbeScratch::new();
        let span = t.begin("core.master_index.candidate");
        for (mi, md) in rules.mds().iter().enumerate() {
            for (_, tuple) in work.iter() {
                idx.for_each_candidate(mi, md, tuple, &mut scratch, |_| candidates += 1);
            }
        }
        t.end(span);
        // Candidates are now cached in `scratch`, so this pass is
        // dominated by premise verification.
        let mut out = Vec::new();
        let span = t.begin("core.master_index.verify");
        for (mi, md) in rules.mds().iter().enumerate() {
            for (_, tuple) in work.iter() {
                idx.matches_into(mi, md, tuple, dm, None, &mut scratch, &mut out);
                verified += out.len() as u64;
            }
        }
        t.end(span);
    }

    let layer_s = |span: &str| median(&t.durations(span)).unwrap_or(0.0);
    let layers = [
        ("core.crepair", "core.crepair.s"),
        ("core.erepair", "core.erepair.s"),
        ("core.hrepair", "core.hrepair.s"),
        ("rules.satisfaction", "rules.satisfaction.s"),
        ("model.cost", "model.cost.s"),
    ];
    let mut summed = Vec::new();
    for (span, metric) in layers {
        report.set(metric, layer_s(span));
        summed.push(layer_s(span));
    }
    let rest = residual(clean_s, &summed);
    report.set("core.pipeline.residual_s", rest);
    report.set("core.pipeline.residual_share", rest / clean_s);
    report.set("core.session.build_s", t.total("core.session.build"));
    report.set(
        "core.master_index.build_s",
        t.total("core.master_index.build"),
    );
    report.set("core.two_in_one.build_s", t.total("core.two_in_one.build"));
    report.set("core.crepair.fixes", fixes[0] as f64);
    report.set("core.erepair.fixes", fixes[1] as f64);
    report.set("core.hrepair.fixes", fixes[2] as f64);
    report.set(
        "rules.satisfaction.pairs",
        (w.dirty.len() * dm.len() * rules.mds().len()) as f64,
    );
    report.set(
        "core.master_index.candidate_s",
        t.total("core.master_index.candidate"),
    );
    report.set(
        "core.master_index.verify_s",
        t.total("core.master_index.verify"),
    );
    report.set("core.master_index.candidates", candidates as f64);
    report.set("core.master_index.verified", verified as f64);
    report.set(
        "core.master_index.useful_ratio",
        if candidates == 0 {
            0.0
        } else {
            verified as f64 / candidates as f64
        },
    );
    let chain_s = layer_s("core.pipeline");
    report.set("trace.overhead_share", (chain_s - clean_s) / clean_s);

    t.print_summary();
    println!("attribution clean_s = {clean_s:.4} s (median of {PAIRS} paired untraced calls)");
    for (span, _) in layers {
        let s = layer_s(span);
        println!(
            "attribution   {span:<20} {s:>9.4} s  {:>6.1}%",
            100.0 * s / clean_s
        );
    }
    println!(
        "attribution   {:<20} {rest:>9.4} s  {:>6.1}%",
        "residual",
        100.0 * rest / clean_s
    );
    Ok(())
}
