//! Property-based pruning-soundness oracle: over hundreds of random sets
//! of small DAGs, every pruning variant of `find_best_ft_plan` must honour
//! its contract against the exhaustive `2^n` enumeration of every
//! candidate — exact equality for the rule-3 family, one-sided
//! never-better soundness for the heuristic rules 1/2 — and the Eq. 9 path
//! memo must never under-report dominance.

use proptest::prelude::*;

use ftpde_analysis::prelude::*;
use ftpde_core::prelude::*;

/// Strategy: a random DAG-structured plan with `1..=max_ops` operators,
/// mirroring the generator of the core crate's proptests: each operator
/// picks up to two distinct earlier operators as inputs, random costs and
/// a random binding (free bindings dominate so the config space is rich).
fn arb_plan(max_ops: usize) -> impl Strategy<Value = PlanDag> {
    let op = (0.01f64..50.0, 0.0f64..20.0, 0u8..6, any::<u64>());
    collection::vec(op, 1..=max_ops).prop_map(|specs| {
        let mut b = PlanDag::builder();
        let mut ids: Vec<OpId> = Vec::new();
        for (i, (tr, tm, bind, seed)) in specs.into_iter().enumerate() {
            let mut inputs = Vec::new();
            if !ids.is_empty() {
                let a = (seed as usize) % (ids.len() + 1);
                if a < ids.len() {
                    inputs.push(ids[a]);
                }
                let c = ((seed >> 32) as usize) % (ids.len() + 1);
                if c < ids.len() && !inputs.contains(&ids[c]) {
                    inputs.push(ids[c]);
                }
            }
            let op = match bind {
                0..=3 => Operator::free(format!("op{i}"), tr, tm),
                4 => Operator::always_materialized(format!("op{i}"), tr, tm),
                _ => Operator::non_materializable(format!("op{i}"), tr, tm),
            };
            ids.push(b.add(op, &inputs).unwrap());
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline acceptance property: for every random set of
    /// candidate plans and MTBF, every pruning variant honours its
    /// contract. In particular the rule-3 family (rule 3 alone, rule 3 +
    /// memo, memo alone) selects a configuration with *exactly* the
    /// exhaustive optimum's dominant-path cost, and rules 1/2 never beat
    /// the optimum and stay within the documented slack. Several
    /// candidates let `bestT` carry across them, so rule 3's floor skips
    /// whole candidates.
    #[test]
    fn pruning_never_changes_the_selected_cost(
        candidates in collection::vec(arb_plan(7), 2..=6),
        mtbf in 1.0f64..1e5,
        mttr in 0.0f64..10.0,
    ) {
        let params = CostParams::new(mtbf, mttr);
        let report = check_pruning_soundness(&candidates, &params);
        let configs: u64 = candidates.iter().map(|c| 1u64 << c.free_count()).sum();
        prop_assert_eq!(report.reference.configs, configs);
        prop_assert!(
            report.all_sound(),
            "{} candidates, mtbf={mtbf}: {:?}",
            candidates.len(),
            report.first_violation()
        );
        // Spell the exact-equality contract out once more, directly.
        for o in report.outcomes.iter().filter(|o| o.exact) {
            prop_assert!(
                (o.pruned_cost - o.exhaustive_cost).abs() <= 1e-9,
                "{}: selected {} vs exhaustive {}",
                o.label.as_str(), o.pruned_cost, o.exhaustive_cost
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `PathMemo::dominates` never under-reports: replaying every recorded
    /// dominant path through a brute-force mirror, each claim of dominance
    /// is backed by a recorded entry that pairwise-dominates the probe.
    #[test]
    fn memo_never_under_reports(
        recorded in collection::vec(
            collection::vec(0.1f64..50.0, 1..6), 1..8),
        probes in collection::vec(
            collection::vec(0.1f64..50.0, 1..6), 1..8),
        mtbf in 1.0f64..1e4,
    ) {
        let params = CostParams::new(mtbf, 1.0);
        let total = |cs: &[f64]| cs.iter().map(|&t| params.op_cost(t)).sum::<f64>();
        let mut mirror = MemoMirror::new();
        for costs in &recorded {
            mirror.record(costs, total(costs));
        }
        prop_assert_eq!(mirror.recorded(), recorded.len());
        for probe in &probes {
            let mut sorted = probe.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            prop_assert!(
                mirror.claim_is_sound(&sorted),
                "memo claimed dominance over {sorted:?} with no dominating entry"
            );
            // And dominance claims are cost-sound, not just structural:
            // a dominated probe can never be cheaper than the reference
            // optimum implied by the recorded entries.
            if mirror.memo().dominates(&sorted) {
                let cheapest_dominating = recorded
                    .iter()
                    .map(|cs| total(cs))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(total(probe) >= cheapest_dominating - 1e-9);
            }
        }
    }

    /// The exhaustive reference itself is consistent: its chosen config's
    /// re-estimated cost reproduces the recorded optimum, and no
    /// enumerated config beats it.
    #[test]
    fn exhaustive_reference_is_a_true_minimum(plan in arb_plan(6), mtbf in 1.0f64..1e5) {
        let params = CostParams::new(mtbf, 1.0);
        let reference = exhaustive_best(std::slice::from_ref(&plan), &params);
        let re = estimate_ft_plan(&plan, &reference.config, &params);
        prop_assert!((re.dominant_cost - reference.dominant_cost).abs() < 1e-9);
        for config in MatConfig::enumerate(&plan) {
            let est = estimate_ft_plan(&plan, &config, &params);
            prop_assert!(est.dominant_cost >= reference.dominant_cost - 1e-9);
        }
    }

    /// The linter finds nothing to complain about on any generated
    /// fault-tolerant plan: generators produce only valid plans, and the
    /// production collapse/cost pipeline upholds every invariant the
    /// passes check (severity Warn is allowed — disconnected DAGs and
    /// diverging attempts are legal generator outputs).
    #[test]
    fn linter_is_clean_on_generated_ft_plans(plan in arb_plan(7), mask in any::<u64>()) {
        let n = plan.free_count();
        let config = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let validator = PlanValidator::new(CostParams::new(60.0, 1.0));
        let report = validator.validate_ft_plan("generated", &plan, &config);
        prop_assert!(report.is_clean(), "{}", report.render());
    }
}
