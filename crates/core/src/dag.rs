//! DAG-structured execution plans (paper §2.1, Figure 2).
//!
//! A [`PlanDag`] is an arena of [`Operator`]s plus directed edges that
//! follow the data flow: an edge `u -> v` means operator `v` consumes the
//! output of operator `u`. *Sources* are operators with no inputs (scans);
//! *sinks* are operators with no consumers (the query result).
//!
//! Plans are constructed through [`PlanDagBuilder`], which only allows an
//! operator's inputs to be operators that were added earlier. This makes
//! cycles unrepresentable and means that ascending [`OpId`] order is always
//! a valid topological order.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::operator::{Binding, OpId, Operator};

/// A DAG-structured parallel execution plan `P`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanDag {
    ops: Vec<Operator>,
    /// `inputs[i]` — producers feeding operator `i`.
    inputs: Vec<Vec<OpId>>,
    /// `consumers[i]` — operators consuming the output of operator `i`.
    consumers: Vec<Vec<OpId>>,
}

impl PlanDag {
    /// Starts building a new plan.
    pub fn builder() -> PlanDagBuilder {
        PlanDagBuilder::default()
    }

    /// Number of operators in the plan.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` iff the plan has no operators. Plans built through
    /// [`PlanDagBuilder`] always have at least one operator.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operator with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids obtained from this plan's
    /// builder are always valid.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.index()]
    }

    /// Mutable access to an operator (used by perturbation helpers to scale
    /// costs).
    #[inline]
    pub fn op_mut(&mut self, id: OpId) -> &mut Operator {
        &mut self.ops[id.index()]
    }

    /// Iterates over all operator ids in topological (insertion) order.
    pub fn op_ids(&self) -> impl DoubleEndedIterator<Item = OpId> + ExactSizeIterator {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterates over `(id, operator)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Operator)> {
        self.ops.iter().enumerate().map(|(i, op)| (OpId(i as u32), op))
    }

    /// The producers feeding operator `id`.
    #[inline]
    pub fn inputs(&self, id: OpId) -> &[OpId] {
        &self.inputs[id.index()]
    }

    /// The consumers of operator `id`'s output.
    #[inline]
    pub fn consumers(&self, id: OpId) -> &[OpId] {
        &self.consumers[id.index()]
    }

    /// Operators with no inputs (leaf scans).
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids().filter(|&id| self.inputs(id).is_empty()).collect()
    }

    /// Operators with no consumers (query results).
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids().filter(|&id| self.consumers(id).is_empty()).collect()
    }

    /// Ids of all free operators (`f(o) = 1`), in topological order.
    pub fn free_ops(&self) -> Vec<OpId> {
        self.op_ids().filter(|&id| self.op(id).is_free()).collect()
    }

    /// Number of free operators; the exhaustive materialization-config
    /// search space is `2^free_count()`.
    pub fn free_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_free()).count()
    }

    /// Sum of `tr(o)` over all operators — a crude lower bound on
    /// sequential work, useful for sanity checks and metrics.
    pub fn total_run_cost(&self) -> f64 {
        self.ops.iter().map(|o| o.run_cost).sum()
    }

    /// Sum of `tm(o)` over all operators.
    pub fn total_mat_cost(&self) -> f64 {
        self.ops.iter().map(|o| o.mat_cost).sum()
    }

    /// Looks an operator up by name. Names are not required to be unique;
    /// the first match in topological order is returned.
    pub fn find_by_name(&self, name: &str) -> Option<OpId> {
        self.iter().find(|(_, op)| op.name == name).map(|(id, _)| id)
    }

    /// Re-binds an operator. The search uses this to bind the operators
    /// that rules 1 and 2 marked in its winner non-materializable (setting
    /// `m(o) = 0` and `f(o) = 0`, paper §4).
    pub fn set_binding(&mut self, id: OpId, binding: Binding) {
        self.ops[id.index()].binding = binding;
    }

    /// Length (in operators) of the longest source→sink path, weighting
    /// every operator equally. Useful to bound path-enumeration work.
    pub fn longest_path_len(&self) -> usize {
        let mut depth = vec![1usize; self.len()];
        for id in self.op_ids() {
            for &inp in self.inputs(id) {
                depth[id.index()] = depth[id.index()].max(depth[inp.index()] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Builder for [`PlanDag`]. Operators must be added bottom-up: the inputs
/// passed to [`PlanDagBuilder::add`] must be ids returned by earlier calls,
/// which structurally guarantees acyclicity.
#[derive(Debug, Default, Clone)]
pub struct PlanDagBuilder {
    ops: Vec<Operator>,
    inputs: Vec<Vec<OpId>>,
    consumers: Vec<Vec<OpId>>,
}

impl PlanDagBuilder {
    /// A builder with room for `ops` operators.
    pub fn with_capacity(ops: usize) -> Self {
        PlanDagBuilder {
            ops: Vec::with_capacity(ops),
            inputs: Vec::with_capacity(ops),
            consumers: Vec::with_capacity(ops),
        }
    }

    /// Adds an operator consuming the outputs of `inputs` and returns its id.
    ///
    /// # Errors
    /// * [`CoreError::SelfLoop`] if the operator lists its own (not yet
    ///   assigned) id as an input.
    /// * [`CoreError::UnknownOperator`] if an input id has not been added
    ///   yet (a dangling reference).
    /// * [`CoreError::DuplicateEdge`] if the same input is listed twice.
    /// * [`CoreError::InvalidCost`] if a cost is negative, NaN or infinite.
    pub fn add(&mut self, op: Operator, inputs: &[OpId]) -> Result<OpId> {
        let id = OpId(self.ops.len() as u32);
        if !(op.run_cost.is_finite() && op.run_cost >= 0.0) {
            return Err(CoreError::InvalidCost { op: id, what: "runtime", value: op.run_cost });
        }
        if !(op.mat_cost.is_finite() && op.mat_cost >= 0.0) {
            return Err(CoreError::InvalidCost {
                op: id,
                what: "materialization",
                value: op.mat_cost,
            });
        }
        for (i, &inp) in inputs.iter().enumerate() {
            if inp == id {
                return Err(CoreError::SelfLoop(id));
            }
            if inp.index() >= self.ops.len() {
                return Err(CoreError::UnknownOperator(inp));
            }
            if inputs[..i].contains(&inp) {
                return Err(CoreError::DuplicateEdge { from: inp, to: id });
            }
        }
        for &inp in inputs {
            self.consumers[inp.index()].push(id);
        }
        self.ops.push(op);
        self.inputs.push(inputs.to_vec());
        self.consumers.push(Vec::new());
        Ok(id)
    }

    /// Convenience: adds a free operator.
    pub fn free(
        &mut self,
        name: impl Into<String>,
        run_cost: f64,
        mat_cost: f64,
        inputs: &[OpId],
    ) -> Result<OpId> {
        self.add(Operator::free(name, run_cost, mat_cost), inputs)
    }

    /// Convenience: adds a bound, non-materializable operator.
    pub fn bound_pipelined(
        &mut self,
        name: impl Into<String>,
        run_cost: f64,
        mat_cost: f64,
        inputs: &[OpId],
    ) -> Result<OpId> {
        self.add(Operator::non_materializable(name, run_cost, mat_cost), inputs)
    }

    /// Convenience: adds a bound, always-materialized operator.
    pub fn bound_materialized(
        &mut self,
        name: impl Into<String>,
        run_cost: f64,
        mat_cost: f64,
        inputs: &[OpId],
    ) -> Result<OpId> {
        self.add(Operator::always_materialized(name, run_cost, mat_cost), inputs)
    }

    /// Finishes the plan.
    ///
    /// # Errors
    /// [`CoreError::EmptyPlan`] if no operator was added.
    pub fn build(self) -> Result<PlanDag> {
        if self.ops.is_empty() {
            return Err(CoreError::EmptyPlan);
        }
        Ok(PlanDag { ops: self.ops, inputs: self.inputs, consumers: self.consumers })
    }
}

/// Builds the example plan of the paper's Figure 2 / Figure 3 (step 1):
/// two scans feeding a hash join whose output is repartitioned and consumed
/// by a map UDF feeding two reduce UDFs.
///
/// The materialization flags shown in Figure 3 (ops 3, 5, 6, 7 materialize)
/// are *not* baked in here — all seven operators are created free so tests
/// and examples can explore the full configuration space. Per-operator
/// runtimes are taken so that the collapsed totals match Table 2 when using
/// the paper's `MatConfig` (see `collapse` module tests).
pub fn figure2_plan() -> PlanDag {
    let mut b = PlanDag::builder();
    // t({1,2,3}) = 4 in Table 2 (runtime 3.6 + materialization 0.4 with
    // CONST_pipe = 1); the split below keeps op 2 on the dominant path.
    let scan_r = b.free("scan R", 1.0, 0.5, &[]).unwrap();
    let scan_s = b.free("scan S", 1.6, 0.5, &[]).unwrap();
    let join = b.free("hash join", 2.0, 0.4, &[scan_r, scan_s]).unwrap();
    // t({4,5}) = 3: runtime 1.0 + 1.5, materialization 0.5.
    let repart = b.free("repartition", 1.0, 0.3, &[join]).unwrap();
    let map = b.free("map UDF", 1.5, 0.5, &[repart]).unwrap();
    // t({6}) = 1 and t({7}) = 2.
    let _reduce_a = b.free("reduce UDF A", 0.8, 0.2, &[map]).unwrap();
    let _reduce_b = b.free("reduce UDF B", 1.7, 0.3, &[map]).unwrap();
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(costs: &[(f64, f64)]) -> PlanDag {
        let mut b = PlanDag::builder();
        let mut prev: Option<OpId> = None;
        for (i, &(tr, tm)) in costs.iter().enumerate() {
            let inputs: Vec<OpId> = prev.into_iter().collect();
            prev = Some(b.free(format!("op{i}"), tr, tm, &inputs).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_topological_ids() {
        let p = figure2_plan();
        assert_eq!(p.len(), 7);
        for id in p.op_ids() {
            for &inp in p.inputs(id) {
                assert!(inp < id, "inputs precede consumers");
            }
        }
    }

    #[test]
    fn sources_and_sinks() {
        let p = figure2_plan();
        assert_eq!(p.sources(), vec![OpId(0), OpId(1)]);
        assert_eq!(p.sinks(), vec![OpId(5), OpId(6)]);
    }

    #[test]
    fn consumers_are_inverse_of_inputs() {
        let p = figure2_plan();
        for id in p.op_ids() {
            for &inp in p.inputs(id) {
                assert!(p.consumers(inp).contains(&id));
            }
            for &cons in p.consumers(id) {
                assert!(p.inputs(cons).contains(&id));
            }
        }
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut b = PlanDag::builder();
        let err = b.free("x", 1.0, 1.0, &[OpId(5)]).unwrap_err();
        assert_eq!(err, CoreError::UnknownOperator(OpId(5)));
    }

    #[test]
    fn self_loop_is_rejected() {
        // The next operator would receive id 1; listing it as an input is
        // a self-loop, not merely a dangling reference.
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 1.0, &[]).unwrap();
        let err = b.free("x", 1.0, 1.0, &[OpId(1)]).unwrap_err();
        assert_eq!(err, CoreError::SelfLoop(OpId(1)));
        // The failed add must not have corrupted the builder.
        let ok = b.free("y", 1.0, 1.0, &[a]).unwrap();
        assert_eq!(ok, OpId(1));
        let plan = b.build().unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.consumers(a), &[ok]);
    }

    #[test]
    fn dangling_reference_does_not_corrupt_builder() {
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 1.0, &[]).unwrap();
        // `a` is valid but OpId(7) dangles: the whole add is rejected and
        // no half-registered consumer edge may remain on `a`.
        assert_eq!(
            b.free("x", 1.0, 1.0, &[a, OpId(7)]).unwrap_err(),
            CoreError::UnknownOperator(OpId(7))
        );
        let plan = b.build().unwrap();
        assert!(plan.consumers(a).is_empty());
    }

    #[test]
    fn duplicate_input_is_rejected() {
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 1.0, &[]).unwrap();
        let err = b.free("x", 1.0, 1.0, &[a, a]).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateEdge { .. }));
    }

    #[test]
    fn invalid_costs_are_rejected() {
        let mut b = PlanDag::builder();
        assert!(matches!(
            b.free("neg", -1.0, 0.0, &[]),
            Err(CoreError::InvalidCost { what: "runtime", .. })
        ));
        assert!(matches!(
            b.free("nan", 0.0, f64::NAN, &[]),
            Err(CoreError::InvalidCost { what: "materialization", .. })
        ));
        assert!(matches!(
            b.free("inf", f64::INFINITY, 0.0, &[]),
            Err(CoreError::InvalidCost { what: "runtime", .. })
        ));
    }

    #[test]
    fn empty_plan_is_rejected() {
        assert_eq!(PlanDag::builder().build().unwrap_err(), CoreError::EmptyPlan);
    }

    #[test]
    fn free_ops_and_counts() {
        let mut b = PlanDag::builder();
        let a = b.free("a", 1.0, 1.0, &[]).unwrap();
        let c = b.bound_pipelined("b", 1.0, 1.0, &[a]).unwrap();
        b.bound_materialized("c", 1.0, 1.0, &[c]).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.free_ops(), vec![a]);
        assert_eq!(p.free_count(), 1);
    }

    #[test]
    fn totals() {
        let p = chain(&[(1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(p.total_run_cost(), 3.0);
        assert_eq!(p.total_mat_cost(), 0.75);
    }

    #[test]
    fn longest_path_len_chain_and_dag() {
        assert_eq!(chain(&[(1.0, 0.0); 4]).longest_path_len(), 4);
        assert_eq!(figure2_plan().longest_path_len(), 5); // scan→join→repart→map→reduce
    }

    #[test]
    fn find_by_name() {
        let p = figure2_plan();
        assert_eq!(p.find_by_name("hash join"), Some(OpId(2)));
        assert_eq!(p.find_by_name("nope"), None);
    }

    #[test]
    fn set_binding_rebinding() {
        let mut p = figure2_plan();
        p.set_binding(OpId(2), Binding::NonMaterializable);
        assert!(!p.op(OpId(2)).is_free());
        assert_eq!(p.free_count(), 6);
    }
}
