//! Property-based tests for the core cost model and plan machinery.
//!
//! These check the paper's analytic claims over randomly generated inputs:
//! the limit analysis of Eq. 4, monotonicity of attempts and operator cost,
//! structural invariants of collapsing, and the soundness of the pruning
//! memo (Eq. 9).

use proptest::prelude::*;

use ftpde_core::prelude::*;

mod common;
use common::arb_plan;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Eq. 3 vs Eq. 4: the exact wasted time never exceeds t/2 and
    /// converges to t/2 for MTBF >> t (the paper's limit analysis).
    #[test]
    fn wasted_exact_bounded_by_half(t in 0.0f64..1e4, mtbf in 0.1f64..1e7) {
        let p = CostParams::new(mtbf, 0.0).with_wasted_model(WastedTimeModel::Exact);
        let w = p.wasted_runtime(t);
        prop_assert!(w >= 0.0);
        prop_assert!(w <= t / 2.0 + 1e-9, "w = {w} > t/2 = {}", t / 2.0);
        if mtbf > 100.0 * t && t > 0.0 {
            prop_assert!((w - t / 2.0).abs() < t * 0.01, "w = {w} far from t/2");
        }
    }

    /// Attempts a(c) grow with operator runtime and shrink with MTBF.
    #[test]
    fn attempts_monotone(t in 0.01f64..1e3, dt in 0.01f64..1e3, mtbf in 1.0f64..1e5) {
        let p = CostParams::new(mtbf, 0.0);
        prop_assert!(p.attempts(t + dt) >= p.attempts(t) - 1e-12);
        let p2 = CostParams::new(mtbf * 2.0, 0.0);
        prop_assert!(p2.attempts(t) <= p.attempts(t) + 1e-12);
    }

    /// T(c) >= t(c): failures can only add runtime (Eq. 8).
    #[test]
    fn op_cost_dominates_runtime(t in 0.0f64..1e4, mtbf in 0.1f64..1e6, mttr in 0.0f64..100.0) {
        let p = CostParams::new(mtbf, mttr);
        prop_assert!(p.op_cost(t) >= t);
    }

    /// γ and η are complementary probabilities in [0, 1].
    #[test]
    fn probabilities_well_formed(t in 0.0f64..1e6, mtbf in 0.1f64..1e6) {
        let p = CostParams::new(mtbf, 0.0);
        let gamma = p.success_probability(t);
        let eta = p.failure_probability(t);
        prop_assert!((0.0..=1.0).contains(&gamma));
        prop_assert!((0.0..=1.0).contains(&eta));
        prop_assert!((gamma + eta - 1.0).abs() < 1e-12);
    }

    /// Collapsing preserves the operator set: every plan operator appears
    /// in at least one collapsed group, roots are materialization points,
    /// and collapsed edges are topological.
    #[test]
    fn collapse_structural_invariants(plan in arb_plan(12), mask in any::<u64>()) {
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);

        let mut covered = vec![false; plan.len()];
        for (cid, c) in pc.iter() {
            prop_assert!(
                cfg.materializes(c.root) || plan.consumers(c.root).is_empty(),
                "root must materialize or be a sink"
            );
            prop_assert!(c.members.contains(&c.root));
            for &m in &c.members {
                covered[m.index()] = true;
            }
            // Dominant path ends at the root and is made of members.
            prop_assert_eq!(*c.dominant_path.last().unwrap(), c.root);
            for &o in &c.dominant_path {
                prop_assert!(c.members.contains(&o));
            }
            for &inp in pc.inputs(cid) {
                prop_assert!(inp < cid);
            }
        }
        prop_assert!(covered.into_iter().all(|b| b), "every op belongs to some group");
    }

    /// The dominant path's cost is an upper bound over all paths, and the
    /// failure-free runtime of any path never exceeds its runtime under
    /// failures.
    #[test]
    fn dominant_path_is_maximal(plan in arb_plan(10), mask in any::<u64>(), mtbf in 1.0f64..1e5) {
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let params = CostParams::new(mtbf, 1.0);
        let est = estimate_ft_plan(&plan, &cfg, &params);
        prop_assert!(est.dominant_cost >= est.dominant_runtime - 1e-9);
        for path in ftpde_core::paths::all_paths(&est.collapsed) {
            let c = path_cost(&est.collapsed, &path, &params);
            prop_assert!(c <= est.dominant_cost + 1e-9);
        }
    }

    /// Rule-3 memo soundness: whenever the memo claims dominance, actually
    /// evaluating the cost function confirms T_Pt >= T_Ptm.
    #[test]
    fn memo_dominance_is_sound(
        memo_costs in collection::vec(0.1f64..50.0, 1..6),
        probe_costs in collection::vec(0.1f64..50.0, 1..6),
        mtbf in 1.0f64..1e4,
    ) {
        let params = CostParams::new(mtbf, 1.0);
        let cost_of = |cs: &[f64]| cs.iter().map(|&t| params.op_cost(t)).sum::<f64>();
        let mut memo = PathMemo::new();
        memo.record(&memo_costs, cost_of(&memo_costs));
        let mut sorted = probe_costs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        if memo.dominates(&sorted) {
            prop_assert!(
                cost_of(&probe_costs) >= cost_of(&memo_costs) - 1e-9,
                "memo claimed dominance but probe is cheaper"
            );
        }
    }

    /// The full search never returns a config worse than any config it
    /// enumerated exhaustively (cross-check against a direct scan) and the
    /// chosen config's estimate is internally consistent.
    #[test]
    fn search_result_is_consistent(plan in arb_plan(8), mtbf in 1.0f64..1e5) {
        let params = CostParams::new(mtbf, 1.0);
        let (best, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::none()).unwrap();
        // Re-estimating the winner reproduces its recorded cost.
        let re = estimate_ft_plan(&best.plan, &best.config, &params);
        prop_assert!((re.dominant_cost - best.estimate.dominant_cost).abs() < 1e-9);
        // Exhaustive cross-check.
        let exhaustive = MatConfig::enumerate(&plan)
            .map(|c| estimate_ft_plan(&plan, &c, &params).dominant_cost)
            .fold(f64::INFINITY, f64::min);
        prop_assert!((best.estimate.dominant_cost - exhaustive).abs() < 1e-9);
        prop_assert_eq!(stats.configs_enumerated, 1u64 << plan.free_count());
    }

    /// The search's pruning counters partition the configuration space:
    /// every candidate configuration is either explored to completion,
    /// pruned up front by rule 1 or rule 2, or abandoned mid-enumeration
    /// by rule 3 — under any combination of prune rules.
    #[test]
    fn pruning_counters_partition_config_space(
        plan in arb_plan(10),
        mtbf in 1.0f64..1e5,
        which in 0u8..5,
    ) {
        let opts = match which {
            0 => PruneOptions::none(),
            1 => PruneOptions::only(1),
            2 => PruneOptions::only(2),
            3 => PruneOptions::only(3),
            _ => PruneOptions::default(),
        };
        let params = CostParams::new(mtbf, 1.0);
        let (_, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &params, &opts).unwrap();
        prop_assert_eq!(
            stats.configs_explored + stats.configs_pruned_rule1 + stats.configs_pruned_rule2
                + stats.rule3_stops(),
            stats.configs_unpruned,
            "partition violated: {:?}", stats
        );
        prop_assert_eq!(
            stats.configs_enumerated,
            stats.configs_explored + stats.rule3_stops()
        );
    }

    /// Rules 1/2 mark only free operators, count what they mark, and rule
    /// 2 never unmarks what rule 1 marked.
    #[test]
    fn rules_only_bind_free_ops(plan in arb_plan(10), mtbf in 1.0f64..1e5) {
        let params = CostParams::new(mtbf, 1.0);
        let marked = |bound: &[bool]| plan.op_ids().filter(|o| bound[o.index()]).collect::<Vec<_>>();
        let mut bound = vec![false; plan.len()];
        let count1 = apply_rule1(&plan, &params, &mut bound);
        let marked1 = marked(&bound);
        prop_assert_eq!(marked1.len(), count1);
        let count2 = apply_rule2(&plan, &params, &mut bound);
        let marked12 = marked(&bound);
        prop_assert_eq!(marked12.len(), count1 + count2);
        prop_assert!(marked1.iter().all(|o| marked12.contains(o)));
        let mut bound = vec![false; plan.len()];
        let count2 = apply_rule2(&plan, &params, &mut bound);
        let marked2 = marked(&bound);
        prop_assert_eq!(marked2.len(), count2);
        for id in marked12.into_iter().chain(marked2) {
            prop_assert!(plan.op(id).is_free());
        }
    }

    /// Path enumeration agrees with the closed-form path count.
    #[test]
    fn path_count_matches_enumeration(plan in arb_plan(10), mask in any::<u64>()) {
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        let listed = ftpde_core::paths::all_paths(&pc);
        prop_assert_eq!(listed.len() as u64, ftpde_core::paths::count_paths(&pc));
        // Every enumerated path starts at a source and ends at a sink.
        for p in &listed {
            prop_assert!(pc.inputs(p[0]).is_empty());
            prop_assert!(pc.consumers(*p.last().unwrap()).is_empty());
        }
    }
}
