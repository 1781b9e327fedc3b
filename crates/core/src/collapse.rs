//! Collapsed plans `P^c` (paper §3.3, step 2 of the procedure).
//!
//! Given a fault-tolerant plan `[P, M_P]`, all operators that do not
//! materialize their output are collapsed into the next materializing
//! consumer(s). A collapsed operator `c` represents a sub-plan of `P` that,
//! once its output is materialized, never needs to be re-executed after a
//! mid-query failure — it is the unit of recovery granularity.
//!
//! Two details follow the paper exactly:
//!
//! * The runtime of a collapsed operator is determined by its *dominant
//!   path* `dom(c)` — the most expensive execution path inside `coll(c)` —
//!   scaled by `CONST_pipe` to account for pipeline parallelism (Eq. 1).
//!   Following the paper's own worked examples (Figures 5 and 6), the
//!   constant is only applied when the dominant path contains at least two
//!   operators; a single operator has no pipeline to overlap.
//! * The materialization cost of a collapsed operator is the
//!   materialization cost of the final operator of the dominant path, i.e.
//!   of the collapsed operator's root (`tm({1,2,3}) = tm(3)` in Figure 3).
//!
//! Sinks of `P` are always collapse boundaries: producing the query result
//! ends re-execution scope whether or not the sink's output is also written
//! to fault-tolerant storage. A sink with `m(o) = 0` simply contributes no
//! materialization cost.
//!
//! A non-materialized operator whose output fans out to several
//! materializing consumers belongs to *each* consumer's collapsed operator:
//! every consuming sub-plan must re-execute it on recovery.

use serde::{Deserialize, Serialize};

use crate::config::MatConfig;
use crate::dag::PlanDag;
use crate::operator::OpId;

/// Identifier of a collapsed operator inside a [`CollapsedPlan`].
///
/// Ids are dense indices in topological order (ascending root [`OpId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CId(pub u32);

impl CId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One collapsed operator `c ∈ P^c`: a maximal sub-plan whose only
/// materialization point is its root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapsedOp {
    /// The materializing operator (or sink) that terminates the sub-plan.
    pub root: OpId,
    /// All plan operators collapsed into this operator (`coll(c)`),
    /// in ascending id order; always contains `root`.
    pub members: Vec<OpId>,
    /// The dominant path `dom(c)` in execution order, ending at `root`.
    pub dominant_path: Vec<OpId>,
    /// `tr(c)` per Eq. 1: dominant-path runtime scaled by `CONST_pipe`.
    pub run_cost: f64,
    /// `tm(c)`: materialization cost of the root (zero for
    /// non-materializing sinks).
    pub mat_cost: f64,
}

impl CollapsedOp {
    /// `t(c) = tr(c) + tm(c)`: total accumulated runtime of the collapsed
    /// operator without mid-query failures.
    #[inline]
    pub fn total_cost(&self) -> f64 {
        self.run_cost + self.mat_cost
    }
}

/// A collapsed plan `P^c` derived from a fault-tolerant plan `[P, M_P]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapsedPlan {
    ops: Vec<CollapsedOp>,
    inputs: Vec<Vec<CId>>,
    consumers: Vec<Vec<CId>>,
}

impl CollapsedPlan {
    /// Collapses `plan` under the materialization configuration `config`
    /// (paper §3.3), applying `pipe_const ∈ (0, 1]` per Eq. 1.
    ///
    /// `config` must belong to `plan` (same operator count); this is the
    /// caller's responsibility and is checked with a debug assertion since
    /// collapsing sits on the enumeration hot path.
    pub fn collapse(plan: &PlanDag, config: &MatConfig, pipe_const: f64) -> Self {
        debug_assert_eq!(config.len(), plan.len());
        debug_assert!(pipe_const > 0.0 && pipe_const <= 1.0);

        // A plan operator is a collapse boundary (root) iff it materializes
        // or is a sink.
        let is_root = |id: OpId| config.materializes(id) || plan.consumers(id).is_empty();

        let roots: Vec<OpId> = plan.op_ids().filter(|&id| is_root(id)).collect();
        // Dense maps indexed by plan-operator index (no hash maps in this
        // crate, see its `clippy.toml`: this sits on the enumeration hot
        // path, and operator ids are already dense).
        let mut root_cid: Vec<Option<CId>> = vec![None; plan.len()];
        for (i, &r) in roots.iter().enumerate() {
            root_cid[r.index()] = Some(CId(i as u32));
        }

        let mut ops = Vec::with_capacity(roots.len());
        let mut inputs: Vec<Vec<CId>> = vec![Vec::new(); roots.len()];
        let mut consumers: Vec<Vec<CId>> = vec![Vec::new(); roots.len()];

        // Scratch buffers reused across roots. `best`/`pred` carry stale
        // values between roots, but every member is written before it is
        // read (members are topological, reads go through `in_group`).
        let mut in_group = vec![false; plan.len()];
        let mut best = vec![0.0f64; plan.len()];
        let mut pred: Vec<Option<OpId>> = vec![None; plan.len()];

        for (ci, &root) in roots.iter().enumerate() {
            // Backward closure from `root` through non-materialized inputs.
            let mut members = vec![root];
            in_group[root.index()] = true;
            let mut stack = vec![root];
            while let Some(v) = stack.pop() {
                for &u in plan.inputs(v) {
                    if !config.materializes(u) && !in_group[u.index()] {
                        in_group[u.index()] = true;
                        members.push(u);
                        stack.push(u);
                    }
                }
            }
            members.sort_unstable();

            // Dominant path: longest tr-weighted path ending at root, using
            // only group members. Members are in topological order.
            for &v in &members {
                let mut best_in = 0.0f64;
                let mut best_pred = None;
                for &u in plan.inputs(v) {
                    if in_group[u.index()] {
                        let b = best[u.index()];
                        if b > best_in {
                            best_in = b;
                            best_pred = Some(u);
                        }
                    }
                }
                best[v.index()] = best_in + plan.op(v).run_cost;
                pred[v.index()] = best_pred;
            }
            let mut dominant_path = Vec::new();
            let mut cur = Some(root);
            while let Some(v) = cur {
                dominant_path.push(v);
                cur = pred[v.index()];
            }
            dominant_path.reverse();

            let raw_run: f64 = best[root.index()];
            let run_cost = if dominant_path.len() >= 2 { raw_run * pipe_const } else { raw_run };
            let mat_cost = if config.materializes(root) { plan.op(root).mat_cost } else { 0.0 };

            // Cross-group edges: a materialized input of any member feeds
            // this collapsed operator.
            for &v in &members {
                for &u in plan.inputs(v) {
                    if config.materializes(u) {
                        let from = root_cid[u.index()]
                            .expect("materialized operator is a collapse root by definition");
                        let to = CId(ci as u32);
                        if !inputs[to.index()].contains(&from) {
                            inputs[to.index()].push(from);
                            consumers[from.index()].push(to);
                        }
                    }
                }
            }

            for &v in &members {
                in_group[v.index()] = false;
            }
            ops.push(CollapsedOp { root, members, dominant_path, run_cost, mat_cost });
        }

        for v in inputs.iter_mut().chain(consumers.iter_mut()) {
            v.sort_unstable();
        }
        let collapsed = CollapsedPlan { ops, inputs, consumers };
        #[cfg(debug_assertions)]
        crate::invariant::check_collapse(plan, config, &collapsed, pipe_const);
        collapsed
    }

    /// Number of collapsed operators.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` iff the plan has no collapsed operators (never the case for
    /// plans produced by [`CollapsedPlan::collapse`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The collapsed operator with the given id.
    #[inline]
    pub fn op(&self, id: CId) -> &CollapsedOp {
        &self.ops[id.index()]
    }

    /// Iterates over collapsed-operator ids in topological order.
    pub fn op_ids(&self) -> impl DoubleEndedIterator<Item = CId> + ExactSizeIterator {
        (0..self.ops.len() as u32).map(CId)
    }

    /// Iterates over `(id, collapsed operator)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (CId, &CollapsedOp)> {
        self.ops.iter().enumerate().map(|(i, op)| (CId(i as u32), op))
    }

    /// Producers feeding collapsed operator `id`.
    #[inline]
    pub fn inputs(&self, id: CId) -> &[CId] {
        &self.inputs[id.index()]
    }

    /// Consumers of collapsed operator `id`.
    #[inline]
    pub fn consumers(&self, id: CId) -> &[CId] {
        &self.consumers[id.index()]
    }

    /// Collapsed operators with no inputs.
    pub fn sources(&self) -> Vec<CId> {
        self.op_ids().filter(|&id| self.inputs(id).is_empty()).collect()
    }

    /// Collapsed operators with no consumers.
    pub fn sinks(&self) -> Vec<CId> {
        self.op_ids().filter(|&id| self.consumers(id).is_empty()).collect()
    }

    /// The collapsed operator containing plan operator `op` as its root,
    /// if any.
    pub fn by_root(&self, op: OpId) -> Option<CId> {
        self.iter().find(|(_, c)| c.root == op).map(|(id, _)| id)
    }

    /// Sum of `t(c)` over all collapsed operators.
    pub fn total_cost(&self) -> f64 {
        self.ops.iter().map(CollapsedOp::total_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::figure2_plan;

    /// The materialization configuration of Figure 3 step 1: operators
    /// 3, 5, 6 and 7 (0-based ids 2, 4, 5, 6) materialize.
    pub(crate) fn figure3_config(plan: &PlanDag) -> MatConfig {
        MatConfig::from_materialized_free_ops(plan, &[OpId(2), OpId(4), OpId(5), OpId(6)]).unwrap()
    }

    #[test]
    fn figure3_collapse_shape() {
        let plan = figure2_plan();
        let cfg = figure3_config(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        assert_eq!(pc.len(), 4);
        let groups: Vec<Vec<u32>> =
            pc.iter().map(|(_, c)| c.members.iter().map(|o| o.0).collect()).collect();
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4], vec![5], vec![6]]);
        // Edges: {1,2,3} -> {4,5} -> {6} and {4,5} -> {7}.
        assert_eq!(pc.inputs(CId(1)), &[CId(0)]);
        assert_eq!(pc.consumers(CId(1)), &[CId(2), CId(3)]);
        assert_eq!(pc.sources(), vec![CId(0)]);
        assert_eq!(pc.sinks(), vec![CId(2), CId(3)]);
    }

    #[test]
    fn figure3_collapse_matches_table2_costs() {
        let plan = figure2_plan();
        let cfg = figure3_config(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        let t: Vec<f64> = pc.iter().map(|(_, c)| c.total_cost()).collect();
        // Table 2: t(c) = 4, 3, 1, 2.
        assert_eq!(t, vec![4.0, 3.0, 1.0, 2.0]);
        assert_eq!(pc.total_cost(), 10.0);
    }

    #[test]
    fn dominant_path_takes_most_expensive_branch() {
        let plan = figure2_plan();
        let cfg = figure3_config(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        // tr(scan S) = 1.6 > tr(scan R) = 1.0, so dom({1,2,3}) = 2 -> 3
        // (ids 1, 2), exactly the paper's example in §3.3.
        assert_eq!(pc.op(CId(0)).dominant_path, vec![OpId(1), OpId(2)]);
        assert_eq!(pc.op(CId(0)).run_cost, 1.6 + 2.0);
        // tm({1,2,3}) = tm(3) = 0.4.
        assert_eq!(pc.op(CId(0)).mat_cost, 0.4);
    }

    #[test]
    fn pipe_constant_scales_multi_op_paths_only() {
        let plan = figure2_plan();
        let cfg = figure3_config(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 0.5);
        // Multi-operator dominant path is scaled...
        assert_eq!(pc.op(CId(0)).run_cost, (1.6 + 2.0) * 0.5);
        // ...singleton collapsed ops are not (Figure 5/6 convention).
        assert_eq!(pc.op(CId(2)).run_cost, 0.8);
    }

    #[test]
    fn all_materialized_collapses_to_identity() {
        let plan = figure2_plan();
        let cfg = MatConfig::all(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        assert_eq!(pc.len(), plan.len());
        for (_, c) in pc.iter() {
            assert_eq!(c.members.len(), 1);
            assert_eq!(c.run_cost, plan.op(c.root).run_cost);
            assert_eq!(c.mat_cost, plan.op(c.root).mat_cost);
        }
    }

    #[test]
    fn no_materialization_collapses_to_one_group_per_sink() {
        let plan = figure2_plan();
        let cfg = MatConfig::none(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        // Two sinks -> two collapsed operators, both containing the shared
        // prefix 1..5.
        assert_eq!(pc.len(), 2);
        for (_, c) in pc.iter() {
            assert_eq!(c.members.len(), 6); // 5 shared + own sink
            assert_eq!(c.mat_cost, 0.0, "non-materializing sink has no tm");
        }
        assert!(pc.inputs(CId(0)).is_empty());
        assert!(pc.inputs(CId(1)).is_empty());
    }

    #[test]
    fn shared_prefix_is_counted_in_both_consumers() {
        let plan = figure2_plan();
        let cfg = MatConfig::none(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        // dom = scan S -> join -> repart -> map -> reduce X
        let c0 = pc.op(CId(0));
        assert_eq!(c0.dominant_path.len(), 5);
        assert_eq!(c0.run_cost, 1.6 + 2.0 + 1.0 + 1.5 + 0.8);
        let c1 = pc.op(CId(1));
        assert_eq!(c1.run_cost, 1.6 + 2.0 + 1.0 + 1.5 + 1.7);
    }

    #[test]
    fn by_root_lookup() {
        let plan = figure2_plan();
        let cfg = figure3_config(&plan);
        let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
        assert_eq!(pc.by_root(OpId(2)), Some(CId(0)));
        assert_eq!(pc.by_root(OpId(1)), None);
    }

    #[test]
    fn collapsed_ids_are_topological() {
        let plan = figure2_plan();
        for cfg in MatConfig::enumerate(&plan) {
            let pc = CollapsedPlan::collapse(&plan, &cfg, 1.0);
            for id in pc.op_ids() {
                for &inp in pc.inputs(id) {
                    assert!(inp < id, "collapsed inputs precede consumers");
                }
            }
        }
    }
}
