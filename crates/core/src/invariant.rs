//! Debug-build invariant hooks.
//!
//! The properties the paper's procedure relies on — the collapsed plan
//! partitioning the operator DAG (§3.3) and cost conservation modulo
//! `CONST_pipe` (Eq. 1) — are re-checked on every collapse, by
//! [`CollapsedPlan::collapse`] or inside the search, in builds with
//! `debug_assertions` (tests and debug builds). The same properties are
//! available as offline diagnostics through the `ftpde-analysis` crate;
//! this module is the in-process variant. The search's pruning-counter
//! partition is checked next to the counters themselves, in
//! [`crate::search::find_best_ft_plan`].
//!
//! All checks panic with a descriptive message on violation. Release
//! builds compile the call out, so the hot paths carry zero cost there.

use crate::collapse::CollapsedPlan;
use crate::config::MatConfig;
use crate::dag::PlanDag;

/// Relative tolerance for floating-point cost comparisons.
const EPS: f64 = 1e-9;

/// Asserts the collapse invariants of §3.3 for `collapsed` derived from
/// `[plan, config]` under `pipe_const`:
///
/// * every plan operator belongs to at least one collapsed operator, and
///   to more than one only when it does not materialize (shared
///   re-execution prefix);
/// * every collapse boundary (root) either materializes or is a sink;
/// * `tr(c)` equals the dominant path's runtime sum scaled by
///   `CONST_pipe` (Eq. 1, applied only to multi-operator paths);
/// * `tm(c)` is the root's `tm` when the root materializes, else zero.
///
/// # Panics
/// Panics on any violation.
pub fn check_collapse(
    plan: &PlanDag,
    config: &MatConfig,
    collapsed: &CollapsedPlan,
    pipe_const: f64,
) {
    let mut membership = vec![0usize; plan.len()];
    for (cid, c) in collapsed.iter() {
        assert!(
            config.materializes(c.root) || plan.consumers(c.root).is_empty(),
            "collapse invariant: root {:?} of {cid:?} neither materializes nor is a sink",
            c.root
        );
        for &m in &c.members {
            membership[m.index()] += 1;
        }
        let raw: f64 = c.dominant_path.iter().map(|&o| plan.op(o).run_cost).sum();
        let expected = if c.dominant_path.len() >= 2 { raw * pipe_const } else { raw };
        // Exact equality first: an overflowed dominant path has
        // tr(c) = +∞, and ∞ − ∞ is NaN.
        assert!(
            c.run_cost == expected || (c.run_cost - expected).abs() <= EPS * expected.max(1.0),
            "collapse invariant: tr({cid:?}) = {} but dominant path sums to {expected} (Eq. 1)",
            c.run_cost
        );
        let expected_mat = if config.materializes(c.root) { plan.op(c.root).mat_cost } else { 0.0 };
        assert!(
            (c.mat_cost - expected_mat).abs() <= EPS,
            "collapse invariant: tm({cid:?}) = {} but the root implies {expected_mat}",
            c.mat_cost
        );
    }
    for id in plan.op_ids() {
        let n = membership[id.index()];
        assert!(n >= 1, "collapse invariant: operator {id:?} belongs to no collapsed operator");
        assert!(
            n == 1 || !config.materializes(id),
            "collapse invariant: materialized operator {id:?} belongs to {n} collapsed operators"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::figure2_plan;

    #[test]
    fn healthy_collapse_passes() {
        let plan = figure2_plan();
        for pipe in [1.0, 0.5] {
            for cfg in MatConfig::enumerate(&plan) {
                let pc = CollapsedPlan::collapse(&plan, &cfg, pipe);
                check_collapse(&plan, &cfg, &pc, pipe);
            }
        }
    }

    #[test]
    #[should_panic(expected = "collapse invariant")]
    fn mismatched_pipe_const_is_caught() {
        let plan = figure2_plan();
        let cfg = MatConfig::none(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        // Checking against the wrong pipeline constant must trip Eq. 1.
        check_collapse(&plan, &cfg, &pc, 0.5);
    }
}
