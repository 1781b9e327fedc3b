//! Operators of a DAG-structured execution plan.
//!
//! Terminology follows Table 1 of the paper:
//!
//! * `tr(o)` — estimated accumulated execution cost of operator `o`
//!   ([`Operator::run_cost`]), given for partition-parallel execution.
//! * `tm(o)` — estimated accumulated cost for materializing the output of
//!   `o` to fault-tolerant storage ([`Operator::mat_cost`]).
//! * `f(o)` — whether the enumeration may choose the materialization of `o`
//!   (a *free* operator) or whether the decision is fixed by the platform
//!   (a *bound* operator). Bound operators are either *always-materialized*
//!   (e.g. repartitioning operators in some PDEs) or *non-materializable*.

use serde::{Deserialize, Serialize};

/// Identifier of an operator inside a [`crate::dag::PlanDag`].
///
/// Ids are dense indices assigned in insertion order, which is guaranteed to
/// be a topological order of the DAG (inputs are always inserted before
/// their consumers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl OpId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The materialization binding of an operator (`f(o)` and fixed `m(o)` in
/// the paper's terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Binding {
    /// Free operator (`f(o) = 1`): the enumeration decides whether its
    /// output is materialized.
    #[default]
    Free,
    /// Bound operator with `m(o) = 1` fixed: the platform always
    /// materializes its output (e.g. repartitioning in some PDEs).
    AlwaysMaterialized,
    /// Bound operator with `m(o) = 0` fixed: its output can never be
    /// materialized (or a pruning rule has decided it never should be).
    NonMaterializable,
}

impl Binding {
    /// `true` iff the operator is free (`f(o) = 1`).
    #[inline]
    pub fn is_free(self) -> bool {
        matches!(self, Binding::Free)
    }
}

/// One operator of a DAG-structured execution plan.
///
/// The cost model is agnostic to what the operator actually computes: any
/// relational operator or UDF is supported as long as `tr(o)` and `tm(o)`
/// estimates are available (paper §2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// Human-readable label (used in explanations and test assertions).
    pub name: String,
    /// `tr(o)`: estimated execution cost, in the engine's internal cost
    /// unit (seconds when `CONST_cost = 1` as in the paper's evaluation).
    pub run_cost: f64,
    /// `tm(o)`: estimated cost of materializing the operator's output to
    /// the fault-tolerant storage medium.
    pub mat_cost: f64,
    /// Whether the materialization decision for this operator is free or
    /// fixed by the platform.
    pub binding: Binding,
}

impl Operator {
    /// Creates a free operator with the given name and costs.
    pub fn free(name: impl Into<String>, run_cost: f64, mat_cost: f64) -> Self {
        Operator { name: name.into(), run_cost, mat_cost, binding: Binding::Free }
    }

    /// Creates a bound, always-materialized operator.
    pub fn always_materialized(name: impl Into<String>, run_cost: f64, mat_cost: f64) -> Self {
        Operator { name: name.into(), run_cost, mat_cost, binding: Binding::AlwaysMaterialized }
    }

    /// Creates a bound, non-materializable operator.
    pub fn non_materializable(name: impl Into<String>, run_cost: f64, mat_cost: f64) -> Self {
        Operator { name: name.into(), run_cost, mat_cost, binding: Binding::NonMaterializable }
    }

    /// `true` iff the enumeration may decide this operator's
    /// materialization (`f(o) = 1`).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.binding.is_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_binding() {
        assert_eq!(Operator::free("a", 1.0, 2.0).binding, Binding::Free);
        assert_eq!(
            Operator::always_materialized("a", 1.0, 2.0).binding,
            Binding::AlwaysMaterialized
        );
        assert_eq!(Operator::non_materializable("a", 1.0, 2.0).binding, Binding::NonMaterializable);
    }

    #[test]
    fn free_predicate() {
        assert!(Binding::Free.is_free());
        assert!(!Binding::AlwaysMaterialized.is_free());
        assert!(!Binding::NonMaterializable.is_free());
        assert!(Operator::free("x", 0.0, 0.0).is_free());
    }

    #[test]
    fn op_id_index_roundtrip() {
        assert_eq!(OpId(7).index(), 7);
        assert_eq!(OpId(0).index(), 0);
    }

    #[test]
    fn op_ids_order_by_insertion() {
        assert!(OpId(1) < OpId(2));
    }
}
