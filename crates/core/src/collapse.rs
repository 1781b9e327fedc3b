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
        let mut collapser = Collapser::default();
        collapser.scan(plan, config);
        let mut collapsed = CollapsedPlan::empty();
        collapser.collapse_into(plan, config, pipe_const, &mut collapsed);
        collapsed
    }

    /// A plan with no collapsed operators, for [`Collapser::collapse_into`]
    /// to fill.
    pub(crate) fn empty() -> Self {
        CollapsedPlan { ops: Vec::new(), inputs: Vec::new(), consumers: Vec::new() }
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

/// A plan operator is a collapse boundary (root) iff it materializes or is
/// a sink.
fn is_root(plan: &PlanDag, config: &MatConfig, id: OpId) -> bool {
    config.materializes(id) || plan.consumers(id).is_empty()
}

/// One pass over a fault-tolerant plan `[P, M_P]`, with buffers reused
/// across plans and configurations.
///
/// [`Collapser::scan`] computes, for every operator at once:
///
/// * the Eq. 1 dominant-path DP. One DP serves every collapsed operator
///   because a member's input belongs to the member's group iff that
///   input does not materialize, so the longest path ending at an
///   operator does not depend on the group it is read in;
/// * the collapsed id ([`CId`]) of every root;
/// * the lowest root reachable from each operator through
///   non-materialized consumers. The lowest of these over a root's
///   consumers is the consumer
///   [`for_each_path`](crate::paths::for_each_path) visits first from
///   that root's collapsed operator.
///
/// From that pass, [`Collapser::first_path_runtime`] prices the first
/// execution path without building the collapsed plan, and
/// [`Collapser::collapse_into`] builds the full collapse.
#[derive(Debug, Default)]
pub(crate) struct Collapser {
    /// Longest `tr`-weighted path ending at each operator through
    /// non-materialized inputs (Eq. 1 before `CONST_pipe`).
    best: Vec<f64>,
    /// Each operator's predecessor on that path.
    pred: Vec<Option<OpId>>,
    /// The lowest root reachable from each operator through
    /// non-materialized consumers (a root's own id).
    first_root: Vec<OpId>,
    /// The collapsed id of each root; stale for other operators.
    cid: Vec<u32>,
    /// Number of roots, and the lowest one.
    roots: usize,
    lowest_root: Option<OpId>,
    /// Group-closure scratch; all `false` between groups.
    in_group: Vec<bool>,
    stack: Vec<OpId>,
}

impl Collapser {
    /// Runs the pass over `[plan, config]`.
    pub(crate) fn scan(&mut self, plan: &PlanDag, config: &MatConfig) {
        debug_assert_eq!(config.len(), plan.len());
        let n = plan.len();
        self.best.resize(n, 0.0);
        self.pred.resize(n, None);
        self.first_root.resize(n, OpId(0));
        self.cid.resize(n, 0);
        self.in_group.resize(n, false);
        self.roots = 0;
        self.lowest_root = None;

        for v in plan.op_ids() {
            let mut best_in = 0.0f64;
            let mut best_pred = None;
            for &u in plan.inputs(v) {
                if !config.materializes(u) && self.best[u.index()] > best_in {
                    best_in = self.best[u.index()];
                    best_pred = Some(u);
                }
            }
            self.best[v.index()] = best_in + plan.op(v).run_cost;
            self.pred[v.index()] = best_pred;
            if is_root(plan, config, v) {
                self.lowest_root.get_or_insert(v);
                self.cid[v.index()] = self.roots as u32;
                self.roots += 1;
            }
        }
        for v in plan.op_ids().rev() {
            self.first_root[v.index()] = if is_root(plan, config, v) {
                v
            } else {
                // Not a sink, so `v` has consumers.
                plan.consumers(v).iter().map(|w| self.first_root[w.index()]).min().unwrap_or(v)
            };
        }
    }

    /// `(tr(c), tm(c))` of the collapsed operator rooted at `root`.
    fn costs(&self, plan: &PlanDag, config: &MatConfig, pipe_const: f64, root: OpId) -> (f64, f64) {
        let raw_run = self.best[root.index()];
        // `CONST_pipe` applies only to dominant paths of two or more
        // operators.
        let run_cost =
            if self.pred[root.index()].is_some() { raw_run * pipe_const } else { raw_run };
        let mat_cost = if config.materializes(root) { plan.op(root).mat_cost } else { 0.0 };
        (run_cost, mat_cost)
    }

    /// `R_Pt` of the first path [`for_each_path`](crate::paths::for_each_path)
    /// visits on the collapse of the scanned `[plan, config]`, or `None`
    /// for an operator-less plan, which has no path. The path's `t(c)` are
    /// summed in the same order and with the same expressions as
    /// [`path_runtime`](crate::cost::path_runtime), so the two agree bit
    /// for bit.
    pub(crate) fn first_path_runtime(
        &self,
        plan: &PlanDag,
        config: &MatConfig,
        pipe_const: f64,
    ) -> Option<f64> {
        // The lowest root's collapsed operator is the first source: a
        // materialized input of one of its members would be a lower root.
        let mut next = Some(self.lowest_root?);
        let runtime = std::iter::from_fn(|| {
            let root = next?;
            // The first consumer of `root`'s collapsed operator is the
            // lowest root whose group reads `root`. Only sinks have none.
            next = plan.consumers(root).iter().map(|v| self.first_root[v.index()]).min();
            let (run_cost, mat_cost) = self.costs(plan, config, pipe_const, root);
            Some(run_cost + mat_cost)
        })
        .sum();
        Some(runtime)
    }

    /// Builds the collapse of the scanned `[plan, config]` into `out`,
    /// reusing its buffers.
    pub(crate) fn collapse_into(
        &mut self,
        plan: &PlanDag,
        config: &MatConfig,
        pipe_const: f64,
        out: &mut CollapsedPlan,
    ) {
        debug_assert_eq!(self.best.len(), plan.len());
        debug_assert!(pipe_const > 0.0 && pipe_const <= 1.0);

        let CollapsedPlan { ops, inputs, consumers } = out;
        ops.truncate(self.roots);
        inputs.resize_with(self.roots, Vec::new);
        consumers.resize_with(self.roots, Vec::new);
        for list in inputs.iter_mut().chain(consumers.iter_mut()) {
            list.clear();
        }

        let roots = plan.op_ids().filter(|&v| is_root(plan, config, v));
        for (ci, root) in roots.enumerate() {
            debug_assert_eq!(self.cid[root.index()] as usize, ci);
            if ci == ops.len() {
                ops.push(CollapsedOp {
                    root,
                    members: Vec::new(),
                    dominant_path: Vec::new(),
                    run_cost: 0.0,
                    mat_cost: 0.0,
                });
            }
            let c = &mut ops[ci];
            c.root = root;

            // Backward closure from `root` through non-materialized inputs.
            c.members.clear();
            c.members.push(root);
            self.in_group[root.index()] = true;
            self.stack.push(root);
            while let Some(v) = self.stack.pop() {
                for &u in plan.inputs(v) {
                    if !config.materializes(u) && !self.in_group[u.index()] {
                        self.in_group[u.index()] = true;
                        c.members.push(u);
                        self.stack.push(u);
                    }
                }
            }
            c.members.sort_unstable();

            c.dominant_path.clear();
            let mut cur = Some(root);
            while let Some(v) = cur {
                c.dominant_path.push(v);
                cur = self.pred[v.index()];
            }
            c.dominant_path.reverse();
            (c.run_cost, c.mat_cost) = self.costs(plan, config, pipe_const, root);

            // Cross-group edges: a materialized input of any member feeds
            // this collapsed operator.
            let to = CId(ci as u32);
            for &v in &c.members {
                self.in_group[v.index()] = false;
                for &u in plan.inputs(v) {
                    if config.materializes(u) {
                        let from = CId(self.cid[u.index()]);
                        if !inputs[ci].contains(&from) {
                            inputs[ci].push(from);
                            consumers[from.index()].push(to);
                        }
                    }
                }
            }
        }

        for list in inputs.iter_mut().chain(consumers.iter_mut()) {
            list.sort_unstable();
        }
        #[cfg(debug_assertions)]
        crate::invariant::check_collapse(plan, config, out, pipe_const);
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

/// Property tests for [`Collapser`]: the first-path precheck and the
/// buffer-reusing collapse must agree bit for bit with what the search
/// would otherwise compute from a fresh [`CollapsedPlan::collapse`].
#[cfg(test)]
mod collapser_proptests {
    use std::ops::ControlFlow;

    use proptest::prelude::*;

    use super::*;
    use crate::cost::path_runtime;
    use crate::operator::Operator;
    use crate::paths::for_each_path;

    /// A plan of `1..=max_ops` operators, each reading up to two earlier
    /// ones (none makes another source), with random costs and bindings.
    fn arb_plan(max_ops: usize) -> impl Strategy<Value = PlanDag> {
        let op = (0.01f64..50.0, 0.0f64..20.0, 0u8..6, any::<u64>());
        collection::vec(op, 1..=max_ops).prop_map(|specs| {
            let mut b = PlanDag::builder();
            for (i, (tr, tm, bind, seed)) in specs.into_iter().enumerate() {
                let mut inputs = Vec::new();
                for pick in [seed as usize % (i + 1), (seed >> 32) as usize % (i + 1)] {
                    if pick < i && !inputs.contains(&OpId(pick as u32)) {
                        inputs.push(OpId(pick as u32));
                    }
                }
                let op = match bind {
                    0..=3 => Operator::free(format!("op{i}"), tr, tm),
                    4 => Operator::always_materialized(format!("op{i}"), tr, tm),
                    _ => Operator::non_materializable(format!("op{i}"), tr, tm),
                };
                b.add(op, &inputs).unwrap();
            }
            b.build().unwrap()
        })
    }

    /// A plan of up to 12 operators and a configuration of it.
    fn arb_plan_and_config() -> impl Strategy<Value = (PlanDag, MatConfig)> {
        (arb_plan(12), any::<u64>()).prop_map(|(plan, mask)| {
            let config = MatConfig::from_free_bits(&plan, mask);
            (plan, config)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        #[cfg_attr(miri, ignore = "1024-case proptests are too slow under Miri")]
        fn precheck_prices_the_first_path(
            case in arb_plan_and_config(),
            pipe_const in 0.01f64..=1.0,
        ) {
            let (plan, config) = case;
            let mut collapser = Collapser::default();
            collapser.scan(&plan, &config);
            let precheck = collapser.first_path_runtime(&plan, &config, pipe_const);
            let full = CollapsedPlan::collapse(&plan, &config, pipe_const);
            let first =
                for_each_path(&full, |path| ControlFlow::Break(path_runtime(&full, path)));
            prop_assert_eq!(first.map(f64::to_bits), precheck.map(f64::to_bits));
        }

        /// One collapser and one output reused over a sequence of plans
        /// and configurations, as the search reuses them.
        #[test]
        #[cfg_attr(miri, ignore = "1024-case proptests are too slow under Miri")]
        fn collapse_into_matches_a_fresh_collapse(
            cases in collection::vec(arb_plan_and_config(), 1..6),
            pipe_const in 0.01f64..=1.0,
        ) {
            let mut collapser = Collapser::default();
            let mut reused = CollapsedPlan::empty();
            for (plan, config) in &cases {
                collapser.scan(plan, config);
                collapser.collapse_into(plan, config, pipe_const, &mut reused);
                prop_assert_eq!(&reused, &CollapsedPlan::collapse(plan, config, pipe_const));
            }
        }

        /// The search's runtime floor is at most the largest `R_Pt` of
        /// every configuration. Half the draws have `CONST_pipe` = 1,
        /// where the floor often equals that `R_Pt` exactly, and only
        /// its margin keeps rounding from putting it above.
        #[test]
        #[cfg_attr(miri, ignore = "1024-case proptests are too slow under Miri")]
        fn runtime_floor_bounds_every_configuration(
            plan in arb_plan(8),
            unit_pipe in any::<bool>(),
            pipe_const in 0.01f64..1.0,
        ) {
            let pipe_const = if unit_pipe { 1.0 } else { pipe_const };
            let floor = crate::search::runtime_floor(&plan, pipe_const, &mut Vec::new());
            for config in MatConfig::enumerate(&plan) {
                let collapsed = CollapsedPlan::collapse(&plan, &config, pipe_const);
                let mut longest = f64::NEG_INFINITY;
                for_each_path::<()>(&collapsed, |path| {
                    longest = longest.max(path_runtime(&collapsed, path));
                    ControlFlow::Continue(())
                });
                prop_assert!(
                    floor <= longest,
                    "floor {floor} above the longest R_Pt {longest} of {:?}",
                    config.materialized_ops()
                );
            }
        }
    }
}
