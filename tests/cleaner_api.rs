//! The `Cleaner` session API contract: builder misuse surfaces as typed
//! errors (never panics), the three master sources share one pipeline, the
//! observer hook streams per-phase stats, and the session reproduces the
//! paper's Example 1.1.

use std::sync::Arc;

use uniclean::model::{Relation, Schema, Tuple, TupleId, Value};
use uniclean::rules::{parse_rules, RuleSet};

mod common;
use common::example_1_1;
use uniclean::{
    CleanConfig, CleanError, Cleaner, ConfigError, MasterSource, Phase, PhaseObserver, PhaseStats,
    PhaseTimings,
};

/// A tiny MD-only rule set over `tran`/`card`.
fn md_rules() -> RuleSet {
    let tran = Schema::of_strings("tran", &["LN", "phn"]);
    let card = Schema::of_strings("card", &["LN", "tel"]);
    let parsed = parse_rules(
        "md m: tran[LN] = card[LN] -> tran[phn] <=> card[tel]",
        &tran,
        Some(&card),
    )
    .unwrap();
    RuleSet::new(tran, Some(card), vec![], parsed.positive_mds, vec![])
}

// ---------------------------------------------------------------------
// Builder misuse matrix
// ---------------------------------------------------------------------

#[test]
fn builder_without_rules_is_a_typed_error() {
    let err = Cleaner::builder().build().unwrap_err();
    assert_eq!(err, CleanError::MissingRules);
}

#[test]
fn mds_without_master_are_a_typed_error() {
    let err = Cleaner::builder()
        .rules(md_rules())
        .master(MasterSource::None)
        .build()
        .unwrap_err();
    assert_eq!(err, CleanError::MdsWithoutMaster);
    assert!(err.to_string().contains("no master relation"));
}

#[test]
fn invalid_config_is_a_typed_error() {
    let tran = Schema::of_strings("tran", &["AC", "city"]);
    let parsed = parse_rules("cfd c: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
    let rules = RuleSet::cfds_only(tran, parsed.cfds);

    for (cfg, expected) in [
        (
            CleanConfig {
                eta: 2.0,
                ..CleanConfig::default()
            },
            CleanError::Config(ConfigError::OutOfRange {
                field: "eta",
                value: 2.0,
            }),
        ),
        (
            CleanConfig {
                delta_entropy: f64::NAN,
                ..CleanConfig::default()
            },
            CleanError::Config(ConfigError::NonFinite {
                field: "delta_entropy",
                value: f64::NAN,
            }),
        ),
        (
            CleanConfig {
                max_erepair_rounds: 0,
                ..CleanConfig::default()
            },
            CleanError::Config(ConfigError::ZeroLimit {
                field: "max_erepair_rounds",
            }),
        ),
        (
            CleanConfig {
                max_hrepair_rounds: 0,
                ..CleanConfig::default()
            },
            CleanError::Config(ConfigError::ZeroLimit {
                field: "max_hrepair_rounds",
            }),
        ),
    ] {
        let err = Cleaner::builder()
            .rules(rules.clone())
            .config(cfg)
            .build()
            .unwrap_err();
        // NaN != NaN, so compare the rendered form.
        assert_eq!(err.to_string(), expected.to_string());
    }
}

#[test]
fn external_master_with_wrong_schema_is_a_typed_error() {
    let rules = md_rules();
    let wrong = Schema::of_strings("ledger", &["LN", "tel", "extra"]);
    let master = Relation::new(wrong, vec![Tuple::of_strs(&["Brady", "123", "x"], 1.0)]);
    let err = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        CleanError::MasterSchemaMismatch {
            expected: "card(LN, tel)".into(),
            found: "ledger(LN, tel, extra)".into()
        }
    );
}

#[test]
fn same_name_schema_mismatch_is_still_diagnosable() {
    // Both schemas are named `card`; the error must expose the attribute
    // difference, not just the (identical) names.
    let rules = md_rules();
    let impostor = Schema::of_strings("card", &["LN", "phone"]);
    let master = Relation::new(impostor, vec![Tuple::of_strs(&["Brady", "123"], 1.0)]);
    let err = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("card(LN, tel)"), "{msg}");
    assert!(msg.contains("card(LN, phone)"), "{msg}");
}

#[test]
fn self_snapshot_without_master_schema_is_a_typed_error() {
    let tran = Schema::of_strings("tran", &["AC", "city"]);
    let parsed = parse_rules("cfd c: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
    let rules = RuleSet::cfds_only(tran, parsed.cfds);
    let err = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::SelfSnapshot)
        .build()
        .unwrap_err();
    assert_eq!(err, CleanError::MissingSelfSchema);
}

#[test]
fn self_snapshot_with_mismatched_arity_is_a_typed_error() {
    // The MDs' master schema has 2 attributes; the data schema has 3 — a
    // positional snapshot cannot mirror it.
    let tran = Schema::of_strings("tran", &["LN", "phn", "extra"]);
    let selfm = Schema::of_strings("tranm", &["LN", "phn"]);
    let parsed = parse_rules(
        "md m: tran[LN] = tranm[LN] -> tran[phn] <=> tranm[phn]",
        &tran,
        Some(&selfm),
    )
    .unwrap();
    let rules = RuleSet::new(tran, Some(selfm), vec![], parsed.positive_mds, vec![]);
    let err = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::SelfSnapshot)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        CleanError::SelfSchemaMismatch {
            data_arity: 3,
            master_arity: 2
        }
    );
}

// ---------------------------------------------------------------------
// Equivalence with the paper's results
// ---------------------------------------------------------------------

#[test]
fn cleaner_reproduces_example_1_1_end_to_end() {
    let (tran, rules, dirty, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            delta_entropy: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    let result = cleaner.clean(&dirty, Phase::Full);
    assert!(result.consistent);

    let get = |t: u32, a: &str| {
        result
            .repaired
            .tuple(TupleId(t))
            .value(tran.attr_id_or_panic(a))
            .clone()
    };
    assert_eq!(get(2, "city"), Value::str("Ldn"), "ϕ2 repairs t3[city]");
    assert_eq!(get(2, "FN"), Value::str("Robert"), "ϕ4 normalizes t3[FN]");
    assert_eq!(get(2, "phn"), Value::str("3887644"), "ψ corrects t3[phn]");
    assert_eq!(get(3, "St"), Value::str("5 Wren St"), "ϕ3 enriches t4[St]");
    assert_eq!(get(3, "post"), Value::str("WC1H 9SE"), "ϕ3 fixes t4[post]");
    for a in ["FN", "LN", "St", "city", "AC", "post", "phn"] {
        assert_eq!(get(2, a), get(3, a), "t3/t4 must agree on {a}");
    }
}

// ---------------------------------------------------------------------
// Session reuse and the observer surface
// ---------------------------------------------------------------------

#[test]
fn a_session_is_reusable_and_shareable_across_threads() {
    let (_, rules, dirty, master) = example_1_1();
    let cleaner = Arc::new(
        Cleaner::builder()
            .rules(rules)
            .master(MasterSource::external(master))
            .config(CleanConfig {
                eta: 0.8,
                ..CleanConfig::default()
            })
            .build()
            .unwrap(),
    );
    let baseline = cleaner.clean(&dirty, Phase::Full);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let cleaner = Arc::clone(&cleaner);
            let dirty = dirty.clone();
            std::thread::spawn(move || cleaner.clean(&dirty, Phase::Full))
        })
        .collect();
    for h in handles {
        let r = h.join().expect("no panic in worker threads");
        assert_eq!(r.repaired.diff_cells(&baseline.repaired), 0);
        assert_eq!(r.report.len(), baseline.report.len());
    }
}

#[test]
fn observer_streams_the_same_stats_the_result_records() {
    let (_, rules, dirty, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();

    let mut timings = PhaseTimings::default();
    let result = cleaner.clean_observed(&dirty, Phase::Full, &mut timings);

    assert_eq!(timings.stats, result.phases);
    assert_eq!(
        timings.stats.iter().map(|s| s.phase).collect::<Vec<_>>(),
        vec![Phase::CRepair, Phase::ERepair, Phase::HRepair]
    );
    assert_eq!(
        timings.stats.iter().map(|s| s.fixes).sum::<usize>(),
        result.report.len(),
        "per-phase fix counts partition the report"
    );
    // The [f64; 3] view maps phases to fixed slots.
    let secs = result.phase_seconds();
    assert_eq!(secs, timings.seconds());
    assert!(secs.iter().all(|s| *s >= 0.0));
}

#[test]
fn custom_observers_see_start_and_end_in_order() {
    #[derive(Default)]
    struct Log(Vec<String>);
    impl PhaseObserver for Log {
        fn on_phase_start(&mut self, phase: Phase) {
            self.0.push(format!("start {}", phase.label()));
        }
        fn on_phase_end(&mut self, stats: &PhaseStats) {
            self.0.push(format!("end {}", stats.phase.label()));
        }
    }

    let (_, rules, dirty, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    let mut log = Log::default();
    cleaner.clean_observed(&dirty, Phase::CERepair, &mut log);
    assert_eq!(
        log.0,
        vec![
            "start cRepair",
            "end cRepair",
            "start eRepair",
            "end eRepair"
        ]
    );
}

#[test]
fn caller_set_self_match_survives_an_external_master() {
    // A caller may pass its own data snapshot as an External master and
    // rely on the self-exclusion guard; the builder must not clear it.
    let (_, rules, _, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules.clone())
        .master(MasterSource::external(master.clone()))
        .config(CleanConfig {
            self_match: true,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    assert!(cleaner.config().self_match);
    // External with the flag unset keeps it unset.
    let cleaner = Cleaner::builder()
        .rules(rules.clone())
        .master(MasterSource::external(master))
        .config(CleanConfig {
            self_match: false,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    assert!(!cleaner.config().self_match);
    // SelfSnapshot forces the guard on regardless of the caller's flag.
    let tran = Schema::of_strings("tran", &["LN", "phn"]);
    let selfm = Schema::of_strings("tranm", &["LN", "phn"]);
    let parsed = parse_rules(
        "md psi: tran[LN] = tranm[LN] -> tran[phn] <=> tranm[phn]",
        &tran,
        Some(&selfm),
    )
    .unwrap();
    let self_rules = RuleSet::new(tran, Some(selfm), vec![], parsed.positive_mds, vec![]);
    let cleaner = Cleaner::builder()
        .rules(self_rules)
        .master(MasterSource::SelfSnapshot)
        .config(CleanConfig {
            self_match: false,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    assert!(
        cleaner.config().self_match,
        "SelfSnapshot must force the self-exclusion guard on"
    );
}

#[test]
fn debug_output_stays_compact_for_large_masters() {
    let (_, rules, _, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    let dbg = format!("{cleaner:?}");
    assert!(dbg.contains("External(card, 2 tuples)"), "{dbg}");
    assert!(
        !dbg.contains("Robert"),
        "master tuples must not be dumped: {dbg}"
    );
}

#[test]
fn phases_vector_tracks_the_requested_prefix() {
    let (_, rules, dirty, master) = example_1_1();
    let cleaner = Cleaner::builder()
        .rules(rules)
        .master(MasterSource::external(master))
        .config(CleanConfig {
            eta: 0.8,
            ..CleanConfig::default()
        })
        .build()
        .unwrap();
    assert_eq!(cleaner.clean(&dirty, Phase::CRepair).phases.len(), 1);
    assert_eq!(cleaner.clean(&dirty, Phase::CERepair).phases.len(), 2);
    assert_eq!(cleaner.clean(&dirty, Phase::Full).phases.len(), 3);
}
