//! Human-readable explanations of plans, configurations and estimates.
//!
//! These renderers are pure string builders (no I/O), so examples, the
//! CLI and tests can all assert on them.

use std::fmt::Write as _;

use crate::collapse::CollapsedPlan;
use crate::config::MatConfig;
use crate::cost::{CostParams, FtEstimate};
use crate::dag::PlanDag;
use crate::operator::Binding;
use crate::search::SearchStats;

/// Renders the plan as an indented operator table with per-operator costs
/// and the materialization decision of `config`.
pub fn explain_plan(plan: &PlanDag, config: &MatConfig) -> String {
    let mut out = String::new();
    let width = plan.iter().map(|(_, o)| o.name.len()).max().unwrap_or(4).max(8);
    let _ = writeln!(
        out,
        "{:<w$}  {:>10}  {:>10}  {:>12}  inputs",
        "operator",
        "tr(o)",
        "tm(o)",
        "decision",
        w = width
    );
    for (id, op) in plan.iter() {
        let decision = match (op.binding, config.materializes(id)) {
            (Binding::AlwaysMaterialized, _) => "bound: mat",
            (Binding::NonMaterializable, _) => "bound: pipe",
            (Binding::Free, true) => "MATERIALIZE",
            (Binding::Free, false) => "pipeline",
        };
        let inputs: Vec<String> = plan.inputs(id).iter().map(|i| i.0.to_string()).collect();
        let _ = writeln!(
            out,
            "{:<w$}  {:>10.2}  {:>10.2}  {:>12}  [{}]",
            op.name,
            op.run_cost,
            op.mat_cost,
            decision,
            inputs.join(","),
            w = width
        );
    }
    out
}

/// Renders the collapsed plan: one line per collapsed operator with its
/// members, dominant path and `t(c)`.
pub fn explain_collapsed(plan: &PlanDag, collapsed: &CollapsedPlan) -> String {
    let mut out = String::new();
    for (cid, c) in collapsed.iter() {
        let members: Vec<&str> = c.members.iter().map(|&m| plan.op(m).name.as_str()).collect();
        let dom: Vec<&str> = c.dominant_path.iter().map(|&m| plan.op(m).name.as_str()).collect();
        let _ = writeln!(
            out,
            "stage {}: t(c) = {:.2} (tr {:.2} + tm {:.2})\n  members: {}\n  dominant path: {}",
            cid.0,
            c.total_cost(),
            c.run_cost,
            c.mat_cost,
            members.join(", "),
            dom.join(" → ")
        );
    }
    out
}

/// Renders an estimate: dominant path, per-stage failure statistics and
/// the total expected runtime under failures.
pub fn explain_estimate(plan: &PlanDag, estimate: &FtEstimate, params: &CostParams) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimated runtime under failures: {:.2} (failure-free: {:.2})",
        estimate.dominant_cost, estimate.dominant_runtime
    );
    let _ = writeln!(out, "dominant path ({} stages):", estimate.dominant_path.len());
    for &cid in &estimate.dominant_path {
        let c = estimate.collapsed.op(cid);
        let t = c.total_cost();
        let root = &plan.op(c.root).name;
        let _ = writeln!(
            out,
            "  {root:<24} t = {t:8.2}  γ = {:.4}  a = {:.4}  T = {:8.2}",
            params.success_probability(t),
            params.attempts(t),
            params.op_cost(t),
        );
    }
    out
}

/// Renders the search-statistics summary: how the configuration space was
/// partitioned between the pruning rules and full exploration (the data
/// behind the paper's Figure 13), plus path-level counters.
pub fn explain_search_stats(stats: &SearchStats) -> String {
    let mut out = String::new();
    let pct = |part: u64| {
        if stats.configs_unpruned == 0 {
            0.0
        } else {
            100.0 * part as f64 / stats.configs_unpruned as f64
        }
    };
    let _ = writeln!(
        out,
        "search: {} candidate plan(s), {} configurations unpruned",
        stats.plans_considered, stats.configs_unpruned
    );
    let _ = writeln!(
        out,
        "  pruned by rule 1 (high mat cost):     {:>8}  ({:.1}%)",
        stats.configs_pruned_rule1,
        pct(stats.configs_pruned_rule1)
    );
    let _ = writeln!(
        out,
        "  pruned by rule 2 (success prob):      {:>8}  ({:.1}%)",
        stats.configs_pruned_rule2,
        pct(stats.configs_pruned_rule2)
    );
    let _ = writeln!(
        out,
        "  abandoned by rule 3 (long paths):     {:>8}  ({:.1}%)  \
         [runtime {} / estimate {} / memo {} / floor {}]",
        stats.rule3_stops(),
        pct(stats.rule3_stops()),
        stats.rule3_runtime_stops,
        stats.rule3_estimate_stops,
        stats.rule3_memo_stops,
        stats.rule3_floor_stops
    );
    let _ = writeln!(
        out,
        "  explored to completion:               {:>8}  ({:.1}%)",
        stats.configs_explored,
        pct(stats.configs_explored)
    );
    let _ = writeln!(
        out,
        "  paths: {} examined, {} costed; best plan replaced {} time(s)",
        stats.paths_examined, stats.paths_costed, stats.best_updates
    );
    if !stats.partition_holds() {
        let _ = writeln!(out, "  WARNING: pruning partition does not sum to the unpruned space");
    }
    out
}

/// Renders the fault-tolerant plan as Graphviz DOT: operators as nodes
/// (materialized ones double-peripheried and filled), data flow as edges,
/// and collapsed stages as dashed clusters. Paste the output into any DOT
/// renderer to visualize recovery granularity.
pub fn to_dot(plan: &PlanDag, config: &MatConfig, collapsed: &CollapsedPlan) -> String {
    let mut out =
        String::from("digraph ftplan {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n");
    // An operator shared by several stages (a non-materialized producer
    // with multiple consumers) is drawn in its first stage only — Graphviz
    // clusters cannot share nodes.
    let mut drawn = vec![false; plan.len()];
    for (cid, c) in collapsed.iter() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", cid.0);
        let _ =
            writeln!(out, "    label=\"stage {} (t={:.1})\"; style=dashed;", cid.0, c.total_cost());
        for &m in &c.members {
            if drawn[m.index()] {
                continue;
            }
            drawn[m.index()] = true;
            let op = plan.op(m);
            let style = if config.materializes(m) {
                ", peripheries=2, style=filled, fillcolor=lightblue"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    op{} [label=\"{}\\ntr={:.1} tm={:.1}\"{}];",
                m.0,
                op.name.replace('"', "'"),
                op.run_cost,
                op.mat_cost,
                style
            );
        }
        let _ = writeln!(out, "  }}");
    }
    for id in plan.op_ids() {
        for &inp in plan.inputs(id) {
            let _ = writeln!(out, "  op{} -> op{};", inp.0, id.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_ft_plan;
    use crate::dag::figure2_plan;
    use crate::operator::OpId;

    fn setup() -> (PlanDag, MatConfig, CostParams) {
        let plan = figure2_plan();
        let cfg =
            MatConfig::from_materialized_free_ops(&plan, &[OpId(2), OpId(4), OpId(5), OpId(6)])
                .unwrap();
        (plan, cfg, CostParams::new(60.0, 0.0))
    }

    #[test]
    fn plan_explanation_lists_every_operator() {
        let (plan, cfg, _) = setup();
        let s = explain_plan(&plan, &cfg);
        for (_, op) in plan.iter() {
            assert!(s.contains(&op.name), "missing {}", op.name);
        }
        assert!(s.contains("MATERIALIZE"));
        assert!(s.contains("pipeline"));
    }

    #[test]
    fn collapsed_explanation_shows_stages_and_dominant_paths() {
        let (plan, cfg, params) = setup();
        let collapsed = CollapsedPlan::collapse(&plan, &cfg, params.pipe_const);
        let s = explain_collapsed(&plan, &collapsed);
        assert_eq!(s.matches("stage ").count(), 4);
        assert!(s.contains("dominant path: scan S → hash join"));
    }

    #[test]
    fn estimate_explanation_has_cost_model_columns() {
        let (plan, cfg, params) = setup();
        let est = estimate_ft_plan(&plan, &cfg, &params);
        let s = explain_estimate(&plan, &est, &params);
        assert!(s.contains("estimated runtime under failures: 9.19"));
        assert!(s.contains("γ = "));
        assert!(s.contains("reduce UDF B"), "dominant path ends at the expensive sink");
    }

    #[test]
    fn search_stats_summary_partitions_the_space() {
        use crate::prune::PruneOptions;
        use crate::search::find_best_ft_plan;

        let plan = figure2_plan();
        let p = CostParams::new(20.0, 1.0);
        let (_, stats) =
            find_best_ft_plan(std::slice::from_ref(&plan), &p, &PruneOptions::default()).unwrap();
        let s = explain_search_stats(&stats);
        assert!(s.contains("1 candidate plan(s)"));
        assert!(s.contains(&format!("{} configurations unpruned", stats.configs_unpruned)));
        assert!(s.contains("pruned by rule 1"));
        assert!(s.contains("pruned by rule 2"));
        assert!(s.contains("abandoned by rule 3"));
        assert!(s.contains("explored to completion"));
        assert!(!s.contains("WARNING"), "partition must hold:\n{s}");
    }

    #[test]
    fn search_stats_summary_flags_inconsistent_counters() {
        let stats = SearchStats { configs_unpruned: 10, configs_explored: 3, ..Default::default() };
        assert!(explain_search_stats(&stats).contains("WARNING"));
    }

    #[test]
    fn dot_export_is_well_formed() {
        let (plan, cfg, params) = setup();
        let collapsed = CollapsedPlan::collapse(&plan, &cfg, params.pipe_const);
        let dot = to_dot(&plan, &cfg, &collapsed);
        assert!(dot.starts_with("digraph ftplan {"));
        assert!(dot.trim_end().ends_with('}'));
        // One cluster per collapsed stage, one node definition per op,
        // one edge per plan edge.
        assert_eq!(dot.matches("subgraph cluster_").count(), collapsed.len());
        for id in plan.op_ids() {
            assert_eq!(
                dot.matches(&format!("op{} [", id.0)).count(),
                1,
                "operator {} drawn exactly once",
                id.0
            );
        }
        let edges: usize = plan.op_ids().map(|id| plan.inputs(id).len()).sum();
        assert_eq!(dot.matches(" -> ").count(), edges);
        // Materialized ops are highlighted.
        assert!(dot.contains("peripheries=2"));
    }

    #[test]
    fn dot_export_handles_shared_members() {
        // No materialization: the shared prefix belongs to both sink
        // stages but must be drawn once.
        let plan = figure2_plan();
        let cfg = MatConfig::none(&plan);
        let collapsed = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        let dot = to_dot(&plan, &cfg, &collapsed);
        for id in plan.op_ids() {
            assert_eq!(dot.matches(&format!("op{} [", id.0)).count(), 1);
        }
    }

    #[test]
    fn bound_operators_render_their_binding() {
        let mut b = PlanDag::builder();
        let s = b.bound_pipelined("scan", 1.0, 1.0, &[]).unwrap();
        b.bound_materialized("shuffle", 1.0, 1.0, &[s]).unwrap();
        let plan = b.build().unwrap();
        let cfg = MatConfig::none(&plan);
        let out = explain_plan(&plan, &cfg);
        assert!(out.contains("bound: pipe"));
        assert!(out.contains("bound: mat"));
    }
}
