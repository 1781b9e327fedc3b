//! The search and the collapse against straightforward references.
//!
//! `reference_search` is `findBestFTPlan` without the rule-3 precheck:
//! every candidate is cloned and re-bound by rules 1 and 2 of its own
//! (`reference_rule1`, `reference_rule2`), every configuration is
//! collapsed afresh and its paths are evaluated one by one. Its
//! runtime-floor skip, when on, uses a floor of its own, folded over every
//! path of the plan.
//! `reference_collapse` builds each collapsed operator on its own, with
//! one backward closure and one dominant-path DP per root.
//! `find_best_ft_plan` and `CollapsedPlan::collapse` must agree with them
//! exactly: the same counters, the same winner and the same bits.

use std::ops::ControlFlow;

use proptest::prelude::*;

use ftpde_core::paths::for_each_path;
use ftpde_core::prelude::*;

mod common;
use common::arb_plan;

/// What the comparison checks of a winner: plan index (and the plan with
/// its post-pruning bindings), dominant-cost bits, configuration and
/// dominant path.
type Winner = (usize, PlanDag, u64, MatConfig, Vec<CId>);

fn winner(best: &BestFtPlan) -> Winner {
    (
        best.plan_index,
        best.plan.clone(),
        best.estimate.dominant_cost.to_bits(),
        best.config.clone(),
        best.estimate.dominant_path.clone(),
    )
}

/// The configuration-level counters of `s`: the rule-3 stops in one sum,
/// and no path counters.
fn config_level(s: &SearchStats) -> SearchStats {
    SearchStats {
        rule3_runtime_stops: s.rule3_stops(),
        rule3_estimate_stops: 0,
        rule3_memo_stops: 0,
        rule3_floor_stops: 0,
        paths_examined: 0,
        paths_costed: 0,
        ..*s
    }
}

/// `t({children..., p})` of rules 1 and 2 for the group of `p` and the
/// inputs `group`: `(max tr(child) + tr(p))·CONST_pipe + tm(p)`.
fn group_cost(plan: &PlanDag, p: OpId, group: &[OpId], params: &CostParams) -> f64 {
    let max_child_tr = group.iter().map(|&o| plan.op(o).run_cost).fold(0.0f64, f64::max);
    (max_child_tr + plan.op(p).run_cost) * params.pipe_const + plan.op(p).mat_cost
}

/// Rule 1 as a rewrite of `plan`: for each parent in `OpId` order, binds
/// its free inputs that it alone consumes non-materializable, all of them
/// or none, when their group with `p` (and `p`'s non-materializable
/// inputs) costs no more than any of them alone. Returns the bound
/// operators.
fn reference_rule1(plan: &mut PlanDag, params: &CostParams) -> Vec<OpId> {
    let mut marked = Vec::new();
    for p in plan.op_ids().collect::<Vec<_>>() {
        let free_children: Vec<OpId> = plan
            .inputs(p)
            .iter()
            .copied()
            .filter(|&o| plan.op(o).is_free() && plan.consumers(o) == [p])
            .collect();
        if free_children.is_empty() {
            continue;
        }
        let group: Vec<OpId> = plan
            .inputs(p)
            .iter()
            .copied()
            .filter(|&o| {
                free_children.contains(&o) || plan.op(o).binding == Binding::NonMaterializable
            })
            .collect();
        let collapsed = group_cost(plan, p, &group, params);
        let singleton = |o: OpId| plan.op(o).run_cost + plan.op(o).mat_cost;
        if free_children.iter().all(|&o| collapsed <= singleton(o)) {
            for &o in &free_children {
                plan.set_binding(o, Binding::NonMaterializable);
                marked.push(o);
            }
        }
    }
    marked
}

/// Rule 2 as a rewrite of `plan`: binds the free only input `o` of a unary
/// parent `p` that alone consumes it non-materializable when `γ(t({o, p}))`
/// reaches the success target. Returns the bound operators.
fn reference_rule2(plan: &mut PlanDag, params: &CostParams) -> Vec<OpId> {
    let mut marked = Vec::new();
    for p in plan.op_ids().collect::<Vec<_>>() {
        let inputs = plan.inputs(p);
        if inputs.len() != 1 {
            continue;
        }
        let o = inputs[0];
        if !plan.op(o).is_free() || plan.consumers(o) != [p] {
            continue;
        }
        let t_group = group_cost(plan, p, &[o], params);
        if params.success_probability(t_group) >= params.success_target {
            plan.set_binding(o, Binding::NonMaterializable);
            marked.push(o);
        }
    }
    marked
}

/// The longest source→sink path of `plan` under the weights
/// `pipe_const·tr(o)`, plus `tm(o)` for an always-materialized `o`, found
/// by walking every path and folding the weights in path order, then
/// shrunk by a relative 1e-9.
fn reference_floor(plan: &PlanDag, pipe_const: f64) -> f64 {
    fn walk(plan: &PlanDag, v: OpId, sum: f64, pipe_const: f64, longest: &mut f64) {
        let op = plan.op(v);
        let mat = if op.binding == Binding::AlwaysMaterialized { op.mat_cost } else { 0.0 };
        let sum = sum + (pipe_const * op.run_cost + mat);
        if plan.consumers(v).is_empty() {
            *longest = longest.max(sum);
        }
        for &w in plan.consumers(v) {
            walk(plan, w, sum, pipe_const, longest);
        }
    }
    let mut longest = 0.0;
    for source in plan.sources() {
        walk(plan, source, 0.0, pipe_const, &mut longest);
    }
    longest * (1.0 - 1e-9)
}

/// The search loop of Listing 1 with rules 1–3 as `find_best_ft_plan`
/// counts them, built only from public pieces, with or without rule 3's
/// runtime-floor skip of whole candidates. `None` when no configuration
/// has a finite estimate.
fn reference_search(
    candidates: &[PlanDag],
    params: &CostParams,
    opts: &PruneOptions,
    floor_skip: bool,
) -> Option<(Winner, SearchStats)> {
    enum Stop {
        Runtime,
        Estimate,
        Memo,
    }

    let mut stats = SearchStats::default();
    let mut memo = PathMemo::new();
    let mut best = None;
    let mut best_t = f64::INFINITY;
    for (plan_index, candidate) in candidates.iter().enumerate() {
        stats.plans_considered += 1;
        let free_ops = candidate.free_count() as u64;
        stats.configs_unpruned += 1 << free_ops;
        let mut plan = candidate.clone();
        let b1 = if opts.rule1 { reference_rule1(&mut plan, params).len() as u64 } else { 0 };
        let b2 = if opts.rule2 { reference_rule2(&mut plan, params).len() as u64 } else { 0 };
        stats.rule1_bound_ops += b1;
        stats.rule2_bound_ops += b2;
        stats.configs_pruned_rule1 += (1 << free_ops) - (1 << (free_ops - b1));
        stats.configs_pruned_rule2 += (1 << (free_ops - b1)) - (1 << (free_ops - b1 - b2));

        let floor = reference_floor(&plan, params.pipe_const);
        if floor_skip && opts.rule3 && floor.is_finite() && floor >= best_t {
            stats.configs_enumerated += 1 << plan.free_count();
            stats.rule3_floor_stops += 1 << plan.free_count();
            continue;
        }
        for config in MatConfig::enumerate(&plan) {
            stats.configs_enumerated += 1;
            let collapsed = CollapsedPlan::collapse(&plan, &config, params.pipe_const);
            let mut dominant = Vec::new();
            let mut dominant_cost = f64::NEG_INFINITY;
            let stop = for_each_path(&collapsed, |path| {
                stats.paths_examined += 1;
                if opts.rule3 && path_runtime(&collapsed, path) >= best_t {
                    return ControlFlow::Break(Stop::Runtime);
                }
                if opts.rule3_memo {
                    let mut sorted: Vec<f64> =
                        path.iter().map(|&c| collapsed.op(c).total_cost()).collect();
                    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                    if memo.dominates(&sorted) {
                        return ControlFlow::Break(Stop::Memo);
                    }
                }
                stats.paths_costed += 1;
                let t = path_cost(&collapsed, path, params);
                if t > dominant_cost {
                    dominant_cost = t;
                    dominant = path.to_vec();
                }
                if opts.rule3 && t >= best_t {
                    return ControlFlow::Break(Stop::Estimate);
                }
                ControlFlow::Continue(())
            });
            match stop {
                Some(Stop::Runtime) => stats.rule3_runtime_stops += 1,
                Some(Stop::Estimate) => stats.rule3_estimate_stops += 1,
                Some(Stop::Memo) => stats.rule3_memo_stops += 1,
                None => {
                    stats.configs_explored += 1;
                    if opts.rule3_memo {
                        let costs: Vec<f64> =
                            dominant.iter().map(|&c| collapsed.op(c).total_cost()).collect();
                        memo.record(&costs, dominant_cost);
                    }
                    if dominant_cost < best_t {
                        best_t = dominant_cost;
                        stats.best_updates += 1;
                        best = Some((
                            plan_index,
                            plan.clone(),
                            dominant_cost.to_bits(),
                            config,
                            dominant,
                        ));
                    }
                }
            }
        }
    }
    best.map(|w| (w, stats))
}

/// One collapsed operator with its input and consumer lists.
type RefOp = (CollapsedOp, Vec<CId>, Vec<CId>);

/// The collapse of §3.3, one root at a time: the root's group is the
/// backward closure through non-materialized inputs, and its dominant path
/// is a longest-path DP over the group's members alone.
fn reference_collapse(plan: &PlanDag, config: &MatConfig, pipe_const: f64) -> Vec<RefOp> {
    let is_root = |id: OpId| config.materializes(id) || plan.consumers(id).is_empty();
    let roots: Vec<OpId> = plan.op_ids().filter(|&id| is_root(id)).collect();
    let cid = |op: OpId| CId(roots.iter().position(|&r| r == op).unwrap() as u32);

    let mut out: Vec<RefOp> = Vec::new();
    for &root in &roots {
        let mut members = vec![root];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &u in plan.inputs(v) {
                if !config.materializes(u) && !members.contains(&u) {
                    members.push(u);
                    stack.push(u);
                }
            }
        }
        members.sort_unstable();

        let mut best = vec![0.0f64; plan.len()];
        let mut pred: Vec<Option<OpId>> = vec![None; plan.len()];
        for &v in &members {
            for &u in plan.inputs(v) {
                if members.contains(&u) && best[u.index()] > best[v.index()] {
                    best[v.index()] = best[u.index()];
                    pred[v.index()] = Some(u);
                }
            }
            best[v.index()] += plan.op(v).run_cost;
        }
        let mut dominant_path = vec![root];
        while let Some(p) = pred[dominant_path[dominant_path.len() - 1].index()] {
            dominant_path.push(p);
        }
        dominant_path.reverse();
        let raw = best[root.index()];
        let run_cost = if dominant_path.len() >= 2 { raw * pipe_const } else { raw };
        let mat_cost = if config.materializes(root) { plan.op(root).mat_cost } else { 0.0 };

        let mut inputs: Vec<CId> = members
            .iter()
            .flat_map(|&v| plan.inputs(v))
            .filter(|&&u| config.materializes(u))
            .map(|&u| cid(u))
            .collect();
        inputs.sort_unstable();
        inputs.dedup();
        let op = CollapsedOp { root, members, dominant_path, run_cost, mat_cost };
        out.push((op, inputs, Vec::new()));
    }
    for to in 0..out.len() {
        for from in out[to].1.clone() {
            out[from.index()].2.push(CId(to as u32));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Several candidates, so `bestT` and the memo carry across them, under
    /// every option set of the pruning-partition test. Half the draws have
    /// no repair time: the range alone never yields MTTR = 0 exactly.
    ///
    /// Against the reference without the floor skip, the winner and the
    /// configuration-level counters match: the skip abandons only
    /// configurations rule 3 abandons anyway, and examines fewer paths.
    #[test]
    fn search_matches_the_reference(
        candidates in collection::vec(arb_plan(8), 2..=6),
        mtbf in 1.0f64..1e5,
        mttr in 0.0f64..100.0,
        no_repair in any::<bool>(),
        pipe_const in 0.05f64..=1.0,
    ) {
        let mttr = if no_repair { 0.0 } else { mttr };
        let params = CostParams::new(mtbf, mttr).with_pipe_const(pipe_const);
        for opts in [
            PruneOptions::none(),
            PruneOptions::only(1),
            PruneOptions::only(2),
            PruneOptions::only(3),
            PruneOptions::default(),
        ] {
            let got = find_best_ft_plan(&candidates, &params, &opts);
            let want = reference_search(&candidates, &params, &opts, true);
            let unskipped = reference_search(&candidates, &params, &opts, false);
            match (got, want, unskipped) {
                (Ok((best, stats)), Some((want, want_stats)), Some((plain, plain_stats))) => {
                    prop_assert_eq!(stats, want_stats, "{:?}", opts);
                    prop_assert_eq!(winner(&best), want, "{:?}", opts);
                    prop_assert_eq!(winner(&best), plain, "{:?}", opts);
                    prop_assert_eq!(config_level(&stats), config_level(&plain_stats), "{:?}", opts);
                    prop_assert!(stats.paths_examined <= plain_stats.paths_examined, "{opts:?}");
                    prop_assert!(stats.paths_costed <= plain_stats.paths_costed, "{opts:?}");
                }
                (Err(CoreError::NoFiniteEstimate), None, None) => {}
                (got, want, plain) => prop_assert!(
                    false,
                    "{opts:?}: search {got:?}, reference {want:?}, without the skip {plain:?}"
                ),
            }
        }
    }

    /// Rules 1 and 2 mark in the search's mask exactly the operators the
    /// plan-rewriting reference rules bind, and count them alike: rule 1
    /// alone, rule 2 alone, and rule 2 after rule 1.
    #[test]
    fn mask_rules_bind_what_the_reference_rules_bind(
        plan in arb_plan(10),
        mtbf in 1.0f64..1e5,
        mttr in 0.0f64..100.0,
        pipe_const in 1e-9f64..=1.0,
    ) {
        let params = CostParams::new(mtbf, mttr).with_pipe_const(pipe_const);
        for (rule1, rule2) in [(true, false), (false, true), (true, true)] {
            let mut rewritten = plan.clone();
            let mut bound = vec![false; plan.len()];
            if rule1 {
                let want = reference_rule1(&mut rewritten, &params).len();
                prop_assert_eq!(apply_rule1(&plan, &params, &mut bound), want);
            }
            if rule2 {
                let want = reference_rule2(&mut rewritten, &params).len();
                prop_assert_eq!(apply_rule2(&plan, &params, &mut bound), want);
            }
            for id in plan.op_ids() {
                let rebound = rewritten.op(id).binding != plan.op(id).binding;
                prop_assert_eq!(bound[id.index()], rebound, "{:?} rules {:?}", id, (rule1, rule2));
            }
        }
    }

    #[test]
    fn collapse_matches_the_per_root_reference(
        plan in arb_plan(12),
        mask in any::<u64>(),
        pipe_const in 0.01f64..=1.0,
    ) {
        let config = MatConfig::from_free_bits(&plan, mask);
        let collapsed = CollapsedPlan::collapse(&plan, &config, pipe_const);
        let reference = reference_collapse(&plan, &config, pipe_const);
        prop_assert_eq!(collapsed.len(), reference.len());
        for ((id, c), (op, inputs, consumers)) in collapsed.iter().zip(&reference) {
            prop_assert_eq!(c, op);
            prop_assert_eq!(c.run_cost.to_bits(), op.run_cost.to_bits());
            prop_assert_eq!(c.mat_cost.to_bits(), op.mat_cost.to_bits());
            prop_assert_eq!(collapsed.inputs(id), &inputs[..]);
            prop_assert_eq!(collapsed.consumers(id), &consumers[..]);
        }
    }
}
