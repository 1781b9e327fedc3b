//! Execution-path enumeration over collapsed plans (paper §3.4, step 3).
//!
//! An *execution path* `Pt` is a path from a source (no incoming edges) to
//! a sink (no outgoing edges) of the collapsed plan `P^c`. The dominant
//! path — the path with the maximal estimated cost under failures — is used
//! as the representative runtime of the whole plan under inter-operator
//! parallelism.
//!
//! Enumeration is visitor-based so that pruning rule 3 (paper §4.3) can
//! abort it as soon as one path proves the current fault-tolerant plan
//! uncompetitive.

use std::ops::ControlFlow;

use crate::collapse::{CId, CollapsedPlan};

/// Enumerates every source→sink path of `plan`, invoking `visit` with each
/// path (a slice of collapsed-operator ids in execution order).
///
/// `visit` may return [`ControlFlow::Break`] to abort the enumeration; the
/// break value is returned. Returns `None` when all paths were visited.
///
/// Paths are produced in depth-first order: all paths through a source's
/// first consumer before its second, sources in topological order.
pub fn for_each_path<B>(
    plan: &CollapsedPlan,
    mut visit: impl FnMut(&[CId]) -> ControlFlow<B>,
) -> Option<B> {
    let mut stack: Vec<CId> = Vec::with_capacity(plan.len());
    for src in plan.op_ids().filter(|&id| plan.inputs(id).is_empty()) {
        if let Some(b) = dfs(plan, src, &mut stack, &mut visit) {
            return Some(b);
        }
        debug_assert!(stack.is_empty());
    }
    None
}

fn dfs<B>(
    plan: &CollapsedPlan,
    node: CId,
    stack: &mut Vec<CId>,
    visit: &mut impl FnMut(&[CId]) -> ControlFlow<B>,
) -> Option<B> {
    stack.push(node);
    let consumers = plan.consumers(node);
    let result = if consumers.is_empty() {
        match visit(stack) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    } else {
        let mut broke = None;
        for &next in consumers {
            if let Some(b) = dfs(plan, next, stack, visit) {
                broke = Some(b);
                break;
            }
        }
        broke
    };
    stack.pop();
    result
}

/// Collects all source→sink paths of `plan` into owned vectors.
///
/// Convenient for tests and small plans; on large DAGs prefer
/// [`for_each_path`], since the number of paths can grow exponentially with
/// plan size.
pub fn all_paths(plan: &CollapsedPlan) -> Vec<Vec<CId>> {
    let mut out = Vec::new();
    for_each_path::<()>(plan, |p| {
        out.push(p.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// Counts the source→sink paths of `plan` without materializing them,
/// using a linear-time DP over the DAG.
pub fn count_paths(plan: &CollapsedPlan) -> u64 {
    // paths_to_sink[v] = number of v→sink paths.
    let mut paths_to_sink = vec![0u64; plan.len()];
    for id in plan.op_ids().rev() {
        let consumers = plan.consumers(id);
        paths_to_sink[id.index()] = if consumers.is_empty() {
            1
        } else {
            consumers.iter().map(|c| paths_to_sink[c.index()]).sum()
        };
    }
    plan.sources().iter().map(|s| paths_to_sink[s.index()]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatConfig;
    use crate::dag::{figure2_plan, PlanDag};
    use crate::operator::OpId;

    fn figure3_collapsed() -> CollapsedPlan {
        let plan = figure2_plan();
        let cfg =
            MatConfig::from_materialized_free_ops(&plan, &[OpId(2), OpId(4), OpId(5), OpId(6)])
                .unwrap();
        CollapsedPlan::collapse(&plan, &cfg, 1.0)
    }

    #[test]
    fn figure3_has_two_paths() {
        let pc = figure3_collapsed();
        let paths = all_paths(&pc);
        assert_eq!(paths, vec![vec![CId(0), CId(1), CId(2)], vec![CId(0), CId(1), CId(3)]]);
        assert_eq!(count_paths(&pc), 2);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let pc = figure3_collapsed();
        let mut seen = 0;
        let res = for_each_path(&pc, |p| {
            seen += 1;
            ControlFlow::Break(p.len())
        });
        assert_eq!(seen, 1);
        assert_eq!(res, Some(3));
    }

    #[test]
    fn diamond_plan_paths() {
        // a -> {b, c} -> d, everything materialized.
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 0.1, &[]).unwrap();
        let l = b.free("b", 1.0, 0.1, &[a]).unwrap();
        let r = b.free("c", 1.0, 0.1, &[a]).unwrap();
        b.free("d", 1.0, 0.1, &[l, r]).unwrap();
        let plan = b.build().unwrap();
        let pc = CollapsedPlan::collapse(&plan, &MatConfig::all(&plan), 1.0);
        let paths = all_paths(&pc);
        assert_eq!(paths.len(), 2);
        assert_eq!(count_paths(&pc), 2);
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], CId(0));
            assert_eq!(p[2], CId(3));
        }
    }

    #[test]
    fn multi_source_multi_sink() {
        // Two independent chains in one plan.
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 0.1, &[]).unwrap();
        b.free("b", 1.0, 0.1, &[a]).unwrap();
        let c = b.free("c", 1.0, 0.1, &[]).unwrap();
        b.free("d", 1.0, 0.1, &[c]).unwrap();
        let plan = b.build().unwrap();
        let pc = CollapsedPlan::collapse(&plan, &MatConfig::all(&plan), 1.0);
        assert_eq!(all_paths(&pc).len(), 2);
        assert_eq!(count_paths(&pc), 2);
    }

    #[test]
    fn count_matches_enumeration_on_every_figure2_config() {
        let plan = figure2_plan();
        for cfg in MatConfig::enumerate(&plan) {
            let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
            assert_eq!(all_paths(&pc).len() as u64, count_paths(&pc));
        }
    }

    #[test]
    fn single_op_plan_has_one_path() {
        let mut b = PlanDag::builder();
        b.free("only", 1.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let pc = CollapsedPlan::collapse(&plan, &MatConfig::none(&plan), 1.0);
        assert_eq!(all_paths(&pc), vec![vec![CId(0)]]);
    }
}
