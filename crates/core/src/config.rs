//! Materialization configurations `M_P` (paper §2.1).
//!
//! A [`MatConfig`] assigns `m(o) ∈ {0, 1}` to every operator of a plan.
//! Bound operators always keep their fixed value; for free operators the
//! configuration stores an explicit decision. [`MatConfig::enumerate`]
//! yields all `2^n` configurations over the `n` free operators of a plan —
//! the raw search space of the paper's step 1 before pruning.

use serde::{Deserialize, Serialize};

use crate::dag::PlanDag;
use crate::error::{CoreError, Result};
use crate::operator::{Binding, OpId};

/// A materialization configuration: the set `{m(o) | o ∈ P}`.
///
/// Internally a bitset indexed by [`OpId`]; bits of bound operators mirror
/// their binding so that [`MatConfig::materializes`] answers the *effective*
/// `m(o)` for any operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatConfig {
    bits: Vec<bool>,
}

impl MatConfig {
    /// The configuration that materializes nothing beyond bound operators
    /// (the `no-mat` family of schemes).
    pub fn none(plan: &PlanDag) -> Self {
        Self::from_free_bits(plan, 0)
    }

    /// The configuration that materializes every operator that is not
    /// explicitly non-materializable (the `all-mat` / Hadoop-style scheme).
    pub fn all(plan: &PlanDag) -> Self {
        let bits =
            plan.iter().map(|(_, op)| !matches!(op.binding, Binding::NonMaterializable)).collect();
        MatConfig { bits }
    }

    /// Builds a configuration from the set of free operators to materialize.
    ///
    /// # Errors
    /// [`CoreError::UnknownOperator`] if an id is out of range, and
    /// [`CoreError::ConfigMismatch`] if a listed operator is not free.
    pub fn from_materialized_free_ops(plan: &PlanDag, ops: &[OpId]) -> Result<Self> {
        let mut cfg = Self::none(plan);
        for &id in ops {
            if id.index() >= plan.len() {
                return Err(CoreError::UnknownOperator(id));
            }
            if !plan.op(id).is_free() {
                return Err(CoreError::ConfigMismatch {
                    expected_ops: plan.free_count(),
                    got_ops: ops.len(),
                });
            }
            cfg.bits[id.index()] = true;
        }
        Ok(cfg)
    }

    /// Builds the configuration whose free-operator decisions are the bits
    /// of `mask`, where bit `k` corresponds to the `k`-th free operator in
    /// topological order. Masks `0..2^n` cover the whole search space.
    pub fn from_free_bits(plan: &PlanDag, mask: u64) -> Self {
        let mut bits = vec![false; plan.len()];
        let mut k = 0usize;
        for (id, op) in plan.iter() {
            match op.binding {
                Binding::AlwaysMaterialized => bits[id.index()] = true,
                Binding::NonMaterializable => {}
                Binding::Free => {
                    bits[id.index()] = (mask >> k) & 1 == 1;
                    k += 1;
                }
            }
        }
        MatConfig { bits }
    }

    /// Effective `m(o)` for operator `id`.
    #[inline]
    pub fn materializes(&self, id: OpId) -> bool {
        self.bits[id.index()]
    }

    /// Number of operators covered (equals the plan length).
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` iff the configuration covers no operators.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Ids of all materialized operators, in topological order.
    pub fn materialized_ops(&self) -> Vec<OpId> {
        self.bits.iter().enumerate().filter_map(|(i, &m)| m.then_some(OpId(i as u32))).collect()
    }

    /// Number of materialized operators.
    pub fn materialized_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Total materialization cost `Σ tm(o)·m(o)` implied by this
    /// configuration on `plan`.
    pub fn total_mat_cost(&self, plan: &PlanDag) -> f64 {
        plan.iter().filter(|(id, _)| self.materializes(*id)).map(|(_, op)| op.mat_cost).sum()
    }

    /// Validates that this configuration matches the shape of `plan`:
    /// same operator count and bound operators carrying their fixed values.
    pub fn validate(&self, plan: &PlanDag) -> Result<()> {
        if self.bits.len() != plan.len() {
            return Err(CoreError::ConfigMismatch {
                expected_ops: plan.len(),
                got_ops: self.bits.len(),
            });
        }
        for (id, op) in plan.iter() {
            let ok = match op.binding {
                Binding::AlwaysMaterialized => self.materializes(id),
                Binding::NonMaterializable => !self.materializes(id),
                Binding::Free => true,
            };
            if !ok {
                return Err(CoreError::ConfigMismatch {
                    expected_ops: plan.len(),
                    got_ops: self.bits.len(),
                });
            }
        }
        Ok(())
    }

    /// Exhaustively enumerates all `2^n` configurations over the free
    /// operators of `plan`, in ascending bit-mask order (the empty
    /// configuration first).
    ///
    /// Plans with more than 63 free operators are not enumerable
    /// exhaustively; callers should apply the pruning rules of [`crate::prune`]
    /// first (the paper's plans have ≤ 6 free operators).
    pub fn enumerate(plan: &PlanDag) -> ConfigEnumerator<'_> {
        let n = plan.free_count();
        assert!(n < 64, "cannot exhaustively enumerate {n} free operators");
        ConfigEnumerator { plan, next: 0, end: 1u64 << n }
    }
}

/// Iterator over all materialization configurations of a plan.
///
/// Created by [`MatConfig::enumerate`].
#[derive(Debug)]
pub struct ConfigEnumerator<'a> {
    plan: &'a PlanDag,
    next: u64,
    end: u64,
}

impl Iterator for ConfigEnumerator<'_> {
    type Item = MatConfig;

    fn next(&mut self) -> Option<MatConfig> {
        if self.next >= self.end {
            return None;
        }
        let cfg = MatConfig::from_free_bits(self.plan, self.next);
        self.next += 1;
        Some(cfg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ConfigEnumerator<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::figure2_plan;

    fn mixed_plan() -> PlanDag {
        let mut b = PlanDag::builder();
        let a = b.free("scan", 1.0, 1.0, &[]).unwrap();
        let r = b.bound_materialized("repart", 1.0, 1.0, &[a]).unwrap();
        let j = b.free("join", 1.0, 1.0, &[r]).unwrap();
        b.bound_pipelined("project", 1.0, 1.0, &[j]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn enumerate_covers_full_space() {
        let p = figure2_plan();
        let cfgs: Vec<_> = MatConfig::enumerate(&p).collect();
        assert_eq!(cfgs.len(), 128); // 2^7 free operators
                                     // All distinct.
        let set: std::collections::BTreeSet<_> = cfgs.iter().map(|c| c.bits.clone()).collect();
        assert_eq!(set.len(), 128);
    }

    #[test]
    fn enumerator_reports_exact_size() {
        let p = figure2_plan();
        let mut e = MatConfig::enumerate(&p);
        assert_eq!(e.len(), 128);
        e.next();
        assert_eq!(e.len(), 127);
    }

    #[test]
    fn bound_operators_keep_fixed_values() {
        let p = mixed_plan();
        for cfg in MatConfig::enumerate(&p) {
            assert!(cfg.materializes(OpId(1)), "always-materialized stays 1");
            assert!(!cfg.materializes(OpId(3)), "non-materializable stays 0");
            cfg.validate(&p).unwrap();
        }
        assert_eq!(MatConfig::enumerate(&p).count(), 4); // 2 free ops
    }

    #[test]
    fn none_and_all() {
        let p = mixed_plan();
        let none = MatConfig::none(&p);
        assert_eq!(none.materialized_ops(), vec![OpId(1)]);
        let all = MatConfig::all(&p);
        assert_eq!(all.materialized_ops(), vec![OpId(0), OpId(1), OpId(2)]);
        assert_eq!(all.materialized_count(), 3);
    }

    #[test]
    fn from_materialized_free_ops_validates() {
        let p = mixed_plan();
        let cfg = MatConfig::from_materialized_free_ops(&p, &[OpId(2)]).unwrap();
        assert!(cfg.materializes(OpId(2)));
        assert!(!cfg.materializes(OpId(0)));
        // Bound op may not be listed.
        assert!(MatConfig::from_materialized_free_ops(&p, &[OpId(1)]).is_err());
        // Out-of-range id.
        assert!(MatConfig::from_materialized_free_ops(&p, &[OpId(9)]).is_err());
    }

    #[test]
    fn total_mat_cost_sums_materialized_only() {
        let p = mixed_plan();
        let cfg = MatConfig::from_materialized_free_ops(&p, &[OpId(0)]).unwrap();
        // op0 (free, chosen) + op1 (always materialized) = 2.0
        assert_eq!(cfg.total_mat_cost(&p), 2.0);
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let p1 = mixed_plan();
        let p2 = figure2_plan();
        let cfg = MatConfig::none(&p1);
        assert!(cfg.validate(&p2).is_err());
    }

    #[test]
    fn from_free_bits_maps_kth_bit_to_kth_free_op() {
        let p = mixed_plan(); // free ops: 0 and 2
        let cfg = MatConfig::from_free_bits(&p, 0b10);
        assert!(!cfg.materializes(OpId(0)));
        assert!(cfg.materializes(OpId(2)));
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    /// Exhaustive enumeration is refused past 63 free operators — the
    /// pruning rules exist precisely so realistic plans never get there.
    #[test]
    #[should_panic(expected = "cannot exhaustively enumerate")]
    fn enumerate_refuses_huge_free_sets() {
        let mut b = PlanDag::builder();
        let mut prev = None;
        for i in 0..64 {
            let inputs: Vec<OpId> = prev.into_iter().collect();
            prev = Some(b.free(format!("op{i}"), 1.0, 1.0, &inputs).unwrap());
        }
        let plan = b.build().unwrap();
        let _ = MatConfig::enumerate(&plan);
    }

    /// 63 free operators are representable (mask arithmetic at the edge).
    #[test]
    fn from_free_bits_at_the_63_bit_edge() {
        let mut b = PlanDag::builder();
        let mut prev = None;
        for i in 0..63 {
            let inputs: Vec<OpId> = prev.into_iter().collect();
            prev = Some(b.free(format!("op{i}"), 1.0, 1.0, &inputs).unwrap());
        }
        let plan = b.build().unwrap();
        let all_bits = (1u64 << 63) - 1;
        let cfg = MatConfig::from_free_bits(&plan, all_bits);
        assert_eq!(cfg.materialized_count(), 63);
        let none = MatConfig::from_free_bits(&plan, 0);
        assert_eq!(none.materialized_count(), 0);
    }

    /// Zero-cost operators collapse and cost out without NaNs.
    #[test]
    fn zero_cost_operators_are_harmless() {
        let mut b = PlanDag::builder();
        let a = b.free("zero", 0.0, 0.0, &[]).unwrap();
        let c = b.free("also zero", 0.0, 0.0, &[a]).unwrap();
        b.free("real", 5.0, 1.0, &[c]).unwrap();
        let plan = b.build().unwrap();
        let params = crate::cost::CostParams::new(10.0, 1.0);
        for cfg in MatConfig::enumerate(&plan) {
            let est = crate::cost::estimate_ft_plan(&plan, &cfg, &params);
            assert!(est.dominant_cost.is_finite());
            assert!(est.dominant_cost >= 5.0);
        }
    }
}
