//! The UniClean pipeline (§3.2, Fig 2): cRepair → eRepair → hRepair.
//!
//! "Various fixes are found by executing three algorithms consecutively …
//! There is no need to iterate the processes for the three types of fixes."
//! The pipeline also computes the §3.1 repair cost and verifies the
//! acceptance conditions of the data cleaning problem: `Dr ⊨ Σ` and
//! `(Dr, Dm) ⊨ Γ` (under SQL null semantics, §7).
//!
//! The phase loop itself lives in [`crate::session`] behind the
//! [`Cleaner`](crate::Cleaner) session API; this module keeps the phase
//! selector ([`Phase`]) and the run result ([`CleanResult`]).

use uniclean_model::{FixMark, Relation};

use crate::fix::FixReport;
use crate::session::PhaseStats;

// The phase selector historically lived here; it is now one type with the
// phase identity (see `crate::phase`) and re-exported from both paths.
pub use crate::phase::Phase;

/// Result of a cleaning run.
#[derive(Clone, Debug)]
pub struct CleanResult {
    /// The (partially) repaired relation.
    pub repaired: Relation,
    /// Every fix applied, in order, across phases.
    pub report: FixReport,
    /// `cost(Dr, D)` under the §3.1 model.
    pub cost: f64,
    /// Did the final relation satisfy `Σ` and `Γ` (null semantics)? Always
    /// expected after `Phase::Full`; `false` can only arise from frozen
    /// conflicts, which contradict the correctness assumptions on master
    /// data and confidence (§5.1).
    pub consistent: bool,
    /// Per-phase timing and fix counts, in execution order. The same
    /// records stream through [`crate::PhaseObserver`] during the run.
    pub phases: Vec<PhaseStats>,
}

impl CleanResult {
    /// Fix counts by final mark: (deterministic, reliable, possible).
    pub fn fix_counts(&self) -> (usize, usize, usize) {
        (
            self.report.count_final(FixMark::Deterministic),
            self.report.count_final(FixMark::Reliable),
            self.report.count_final(FixMark::Possible),
        )
    }

    /// Wall-clock seconds spent in each phase, in fixed (c, e, h) order;
    /// phases that did not run report 0.
    pub fn phase_seconds(&self) -> [f64; 3] {
        crate::session::seconds_by_phase(&self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CleanConfig;
    use crate::session::{Cleaner, MasterSource};
    use std::sync::Arc;
    use uniclean_model::{Schema, Tuple, TupleId, Value};
    use uniclean_rules::{parse_rules, RuleSet};

    /// The full Example 1.1 scenario: master data Dm (Fig 1a), dirty D
    /// (Fig 1b), rules ϕ1–ϕ4 and ψ. The pipeline must discover the fraud:
    /// t3 and t4 refer to the same person.
    fn example_1_1() -> (Arc<Schema>, Arc<Schema>, RuleSet, Relation, Relation) {
        let tran = Schema::of_strings(
            "tran",
            &["FN", "LN", "St", "city", "AC", "post", "phn", "gd"],
        );
        let card = Schema::of_strings(
            "card",
            &["FN", "LN", "St", "city", "AC", "zip", "tel", "gd"],
        );
        let text = "cfd phi1: tran([AC=131] -> [city=Edi])\n\
                    cfd phi2: tran([AC=020] -> [city=Ldn])\n\
                    cfd phi3: tran([city, phn] -> [St, AC, post])\n\
                    cfd phi4: tran([FN=Bob] -> [FN=Robert])\n\
                    md psi: tran[LN] = card[LN] AND tran[city] = card[city] AND tran[St] = card[St] AND tran[post] = card[zip] AND tran[FN] ~lev(4) card[FN] -> tran[FN] <=> card[FN], tran[phn] <=> card[tel]";
        let parsed = parse_rules(text, &tran, Some(&card)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(card.clone()),
            parsed.cfds,
            parsed.positive_mds,
            parsed.negative_mds,
        );

        let dm = Relation::new(
            card.clone(),
            vec![
                Tuple::of_strs(
                    &[
                        "Mark",
                        "Smith",
                        "10 Oak St",
                        "Edi",
                        "131",
                        "EH8 9LE",
                        "3256778",
                        "Male",
                    ],
                    1.0,
                ),
                Tuple::of_strs(
                    &[
                        "Robert",
                        "Brady",
                        "5 Wren St",
                        "Ldn",
                        "020",
                        "WC1H 9SE",
                        "3887644",
                        "Male",
                    ],
                    1.0,
                ),
            ],
        );

        // Fig 1(b) with its cf rows.
        let mk = |vals: &[&str], cfs: &[f64]| {
            let mut t = Tuple::of_strs(vals, 0.0);
            for (i, &c) in cfs.iter().enumerate() {
                let a = uniclean_model::AttrId::from(i);
                let v = t.value(a).clone();
                t.set(a, v, c, FixMark::Untouched);
            }
            t
        };
        let t1 = mk(
            &[
                "M.",
                "Smith",
                "10 Oak St",
                "Ldn",
                "131",
                "EH8 9LE",
                "9999999",
                "Male",
            ],
            &[0.9, 1.0, 0.9, 0.5, 0.9, 0.9, 0.0, 0.8],
        );
        let t2 = mk(
            &[
                "Max",
                "Smith",
                "Po Box 25",
                "Edi",
                "131",
                "EH8 9AB",
                "3256778",
                "Male",
            ],
            &[0.7, 1.0, 0.5, 0.9, 0.7, 0.6, 0.8, 0.8],
        );
        let t3 = mk(
            &[
                "Bob",
                "Brady",
                "5 Wren St",
                "Edi",
                "020",
                "WC1H 9SE",
                "3887834",
                "Male",
            ],
            &[0.6, 1.0, 0.9, 0.2, 0.9, 0.8, 0.9, 0.8],
        );
        let t4 = mk(
            &[
                "Robert", "Brady", "", "Ldn", "020", "WC1E 7HX", "3887644", "Male",
            ],
            &[0.7, 1.0, 0.0, 0.5, 0.7, 0.3, 0.7, 0.8],
        );
        let mut t4 = t4;
        t4.set(
            tran.attr_id_or_panic("St"),
            Value::Null,
            0.0,
            FixMark::Untouched,
        );
        let d = Relation::new(tran.clone(), vec![t1, t2, t3, t4]);
        (tran, card, rules, d, dm)
    }

    fn cleaner(rules: &RuleSet, dm: &Relation, eta: f64) -> Cleaner {
        Cleaner::builder()
            .rules(rules.clone())
            .master(MasterSource::external(dm.clone()))
            .config(CleanConfig {
                eta,
                delta_entropy: 0.8,
                ..CleanConfig::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn example_1_1_end_to_end() {
        let (tran, _, rules, d, dm) = example_1_1();
        let uni = cleaner(&rules, &dm, 0.8);
        let result = uni.clean(&d, Phase::Full);
        assert!(result.consistent, "final repair must satisfy Σ and Γ");

        let get = |t: u32, a: &str| {
            result
                .repaired
                .tuple(TupleId(t))
                .value(tran.attr_id_or_panic(a))
                .clone()
        };
        // Steps (a)–(d) of Example 1.1 on t3/t4:
        assert_eq!(get(2, "city"), Value::str("Ldn"), "ϕ2 repairs t3[city]");
        assert_eq!(get(2, "FN"), Value::str("Robert"), "ϕ4 normalizes t3[FN]");
        assert_eq!(
            get(2, "phn"),
            Value::str("3887644"),
            "ψ corrects t3[phn] from s2"
        );
        assert_eq!(get(3, "St"), Value::str("5 Wren St"), "ϕ3 enriches t4[St]");
        assert_eq!(get(3, "post"), Value::str("WC1H 9SE"), "ϕ3 fixes t4[post]");
        // t3 and t4 now agree on all identity attributes: the fraud is
        // evident.
        for a in ["FN", "LN", "St", "city", "AC", "post", "phn"] {
            assert_eq!(get(2, a), get(3, a), "t3/t4 must agree on {a}");
        }
        // And t1 was matched against s1 (Example 5.2's deterministic path).
        assert_eq!(get(0, "city"), Value::str("Edi"));
        assert_eq!(get(0, "phn"), Value::str("3256778"));
    }

    #[test]
    fn phases_are_cumulative() {
        let (_, _, rules, d, dm) = example_1_1();
        let uni = cleaner(&rules, &dm, 0.8);
        let c = uni.clean(&d, Phase::CRepair);
        let ce = uni.clean(&d, Phase::CERepair);
        let full = uni.clean(&d, Phase::Full);
        assert!(c.report.len() <= ce.report.len());
        assert!(ce.report.len() <= full.report.len());
        assert_eq!(c.phases.len(), 1);
        assert_eq!(ce.phases.len(), 2);
        assert_eq!(full.phases.len(), 3);
        // Deterministic fixes are identical across runs (later phases never
        // undo them).
        assert_eq!(
            c.report.count_final(FixMark::Deterministic),
            full.report
                .records()
                .iter()
                .filter(|r| r.mark == FixMark::Deterministic)
                .map(|r| (r.tuple, r.attr))
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
        assert!(!c.consistent, "cRepair alone leaves violations here");
        assert!(full.consistent);
    }

    #[test]
    fn cost_is_zero_for_clean_input() {
        let tran = Schema::of_strings("tran", &["AC", "city"]);
        let parsed = parse_rules("cfd phi1: tran([AC=131] -> [city=Edi])", &tran, None).unwrap();
        let rules = RuleSet::cfds_only(tran.clone(), parsed.cfds);
        let d = Relation::new(tran, vec![Tuple::of_strs(&["131", "Edi"], 1.0)]);
        let uni = Cleaner::builder().rules(rules).build().unwrap();
        let r = uni.clean(&d, Phase::Full);
        assert_eq!(r.cost, 0.0);
        assert!(r.report.is_empty());
        assert!(r.consistent);
    }
}

#[cfg(test)]
mod self_matching_tests {
    use super::*;
    use crate::config::CleanConfig;
    use crate::session::{Cleaner, MasterSource};
    use uniclean_model::{Schema, Tuple, TupleId, Value};
    use uniclean_rules::{parse_rules, RuleSet};

    fn self_cleaner(rules: &RuleSet, eta: f64) -> Cleaner {
        Cleaner::builder()
            .rules(rules.clone())
            .master(MasterSource::SelfSnapshot)
            .config(CleanConfig {
                eta,
                ..CleanConfig::default()
            })
            .build()
            .unwrap()
    }

    /// Duplicate records of one person inside D, no master data: the MD
    /// matches them against the self-snapshot and repairing still closes
    /// the loop (the paper's master-free contention).
    #[test]
    fn duplicates_within_d_are_reconciled_without_master() {
        let tran = Schema::of_strings("tran", &["LN", "city", "AC", "phn"]);
        let selfm = Schema::of_strings("tranm", &["LN", "city", "AC", "phn"]);
        let text = "cfd phi2: tran([AC=020] -> [city=Ldn])\n\
                    md psi: tran[LN] = tranm[LN] AND tran[city] = tranm[city] -> tran[phn] <=> tranm[phn]";
        let parsed = parse_rules(text, &tran, Some(&selfm)).unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(selfm),
            parsed.cfds,
            parsed.positive_mds,
            vec![],
        );

        // Record A: phone verified (cf 1), city wrong. Record B: city
        // verified, phone unknown.
        let phn = tran.attr_id_or_panic("phn");
        let city = tran.attr_id_or_panic("city");
        let mut a = Tuple::of_strs(&["Brady", "Edi", "020", "3887644"], 1.0);
        a.set(city, Value::str("Edi"), 0.0, FixMark::Untouched);
        let mut b = Tuple::of_strs(&["Brady", "Ldn", "020", "0000000"], 1.0);
        b.set(phn, Value::str("0000000"), 0.0, FixMark::Untouched);
        let d = Relation::new(tran.clone(), vec![a, b]);

        let r = self_cleaner(&rules, 0.8).clean(&d, Phase::Full);
        assert!(r.consistent, "self-matching repair must satisfy Σ and Γ");
        // ϕ2 fixes A's city; the self-MD then identifies the two records
        // and B adopts A's verified phone.
        assert_eq!(r.repaired.tuple(TupleId(0)).value(city), &Value::str("Ldn"));
        assert_eq!(
            r.repaired.tuple(TupleId(1)).value(phn),
            &Value::str("3887644")
        );
    }

    /// A tuple must never assert itself through its own snapshot copy.
    #[test]
    fn no_self_confirmation() {
        let tran = Schema::of_strings("tran", &["LN", "phn"]);
        let selfm = Schema::of_strings("tranm", &["LN", "phn"]);
        let parsed = parse_rules(
            "md psi: tran[LN] = tranm[LN] -> tran[phn] <=> tranm[phn]",
            &tran,
            Some(&selfm),
        )
        .unwrap();
        let rules = RuleSet::new(
            tran.clone(),
            Some(selfm),
            vec![],
            parsed.positive_mds,
            vec![],
        );
        let mut t = Tuple::of_strs(&["Brady", "123"], 1.0);
        let phn = tran.attr_id_or_panic("phn");
        t.set(phn, Value::str("123"), 0.0, FixMark::Untouched);
        let d = Relation::new(tran, vec![t]);
        let r = self_cleaner(&rules, 0.8).clean(&d, Phase::CRepair);
        assert!(r.report.is_empty());
        assert_eq!(
            r.repaired.tuple(TupleId(0)).cf(phn),
            0.0,
            "no circular assertion"
        );
    }
}
