//! Search-space pruning rules (paper §4).
//!
//! * **Rule 1 — high materialization costs** (§4.1): an operator whose
//!   materialization is guaranteed to cost more than collapsing it into its
//!   parent is marked non-materializable before configurations are
//!   enumerated.
//! * **Rule 2 — high probability of success** (§4.2): an operator whose
//!   collapsed `{o, p}` group already reaches the target success
//!   probability `S` is marked non-materializable.
//! * **Rule 3 — long execution paths** (§4.3): during path enumeration, a
//!   fault-tolerant plan is abandoned as soon as one of its paths proves it
//!   cannot beat the best dominant path found so far, either by its
//!   failure-free runtime `R_Pt ≥ bestT`, its estimated runtime
//!   `T_Pt ≥ bestT`, or the memoized dominant-path dominance check of
//!   Eq. 9. Rule 3 lives in [`crate::search`]; this module provides the
//!   [`PathMemo`] it uses.
//!
//! Rules 1 and 2 leave the plan as it is. They mark each operator they
//! bind (`m(o) = 0`, `f(o) = 0`) in the caller's bound-operator mask, one
//! entry per operator, which [`crate::config::MatConfig`] reads as
//! non-materializable; each bound operator halves the configuration space.

use serde::{Deserialize, Serialize};

use crate::cost::CostParams;
use crate::dag::PlanDag;
use crate::operator::{Binding, OpId};

/// Local collapsed cost `t({children..., p})` used by rules 1 and 2: the
/// group contains `p` plus some of its inputs, the longest of which runs
/// `max_child_tr`, with the dominant path `max tr(child) + tr(p)` scaled by
/// `CONST_pipe` (the group has ≥ 2 operators by construction) and `tm(p)`
/// as the group's materialization cost — exactly the arithmetic of
/// Figures 5 and 6.
fn local_group_cost(plan: &PlanDag, parent: OpId, max_child_tr: f64, params: &CostParams) -> f64 {
    (max_child_tr + plan.op(parent).run_cost) * params.pipe_const + plan.op(parent).mat_cost
}

/// Singleton collapsed cost `t({o}) = tr(o) + tm(o)` (no pipeline factor,
/// per the paper's Figure 5/6 examples).
fn singleton_cost(plan: &PlanDag, o: OpId) -> f64 {
    plan.op(o).run_cost + plan.op(o).mat_cost
}

/// `true` iff a rule may bind input `o` of `p`: `o` is free, not yet
/// marked in `bound`, and `p` is its only consumer.
fn bindable(plan: &PlanDag, bound: &[bool], o: OpId, p: OpId) -> bool {
    plan.op(o).is_free() && !bound[o.index()] && plan.consumers(o) == [p]
}

/// Applies **Rule 1** to `plan`: marks in `bound` (one entry per operator)
/// the operators it binds non-materializable, and returns how many.
///
/// For every operator `p` with bindable input operators `o_1..o_k` (free,
/// unmarked, each consumed only by `p`), the children are bound to `m = 0`
/// iff `t({o_1..o_k, p}) ≤ t({o_i})` for all `i` — materializing any `o_i`
/// could then never shorten a path under the cost model (the paper proves
/// `T_Pt({o,p}) ≤ T_Pt({o},{p})` from the monotonicity of `w`, `a` and `γ`
/// in `t`). Parents are processed in topological order; inputs that are
/// already non-materializable or marked participate in the group's
/// dominant path, which only makes the test more conservative.
///
/// # Panics
/// Panics if `bound` is shorter than the plan.
pub fn apply_rule1(plan: &PlanDag, params: &CostParams, bound: &mut [bool]) -> usize {
    let mut marked = 0;
    for p in plan.op_ids() {
        // The collapsed group contains every input that will not
        // materialize: the bindable candidates plus already-bound ones.
        let mut max_child_tr = 0.0f64;
        let mut min_singleton = f64::INFINITY;
        let mut candidates = false;
        for &o in plan.inputs(p) {
            if bindable(plan, bound, o, p) {
                candidates = true;
                min_singleton = min_singleton.min(singleton_cost(plan, o));
            } else if plan.op(o).binding != Binding::NonMaterializable && !bound[o.index()] {
                continue;
            }
            max_child_tr = max_child_tr.max(plan.op(o).run_cost);
        }
        if candidates && local_group_cost(plan, p, max_child_tr, params) <= min_singleton {
            for &o in plan.inputs(p) {
                if bindable(plan, bound, o, p) {
                    bound[o.index()] = true;
                    marked += 1;
                }
            }
        }
    }
    marked
}

/// Applies **Rule 2** to `plan`: marks in `bound` (one entry per operator)
/// the operators it binds non-materializable, and returns how many. Run
/// after rule 1, it sees rule 1's marks.
///
/// For a bindable operator `o` that is the only input of a unary parent
/// `p`: if the collapsed group `{o, p}` already succeeds with probability
/// `γ(t({o,p})) ≥ S`, no additional attempt is expected and materializing
/// `o` could only add `tm(o)` — so `o` is bound to `m = 0`.
///
/// # Panics
/// Panics if `bound` is shorter than the plan.
pub fn apply_rule2(plan: &PlanDag, params: &CostParams, bound: &mut [bool]) -> usize {
    let mut marked = 0;
    for p in plan.op_ids() {
        let &[o] = plan.inputs(p) else { continue };
        if !bindable(plan, bound, o, p) {
            continue;
        }
        let t_group = local_group_cost(plan, p, plan.op(o).run_cost, params);
        if params.success_probability(t_group) >= params.success_target {
            bound[o.index()] = true;
            marked += 1;
        }
    }
    marked
}

/// Which pruning rules a search should apply. All rules are on by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneOptions {
    /// Rule 1: high materialization costs (§4.1).
    pub rule1: bool,
    /// Rule 2: high probability of success (§4.2).
    pub rule2: bool,
    /// Rule 3: early path-enumeration stop on `R_Pt ≥ bestT` or
    /// `T_Pt ≥ bestT` (§4.3).
    pub rule3: bool,
    /// The aggressive Rule 3 extension: memoized dominant-path dominance
    /// (Eq. 9).
    pub rule3_memo: bool,
}

impl Default for PruneOptions {
    fn default() -> Self {
        PruneOptions { rule1: true, rule2: true, rule3: true, rule3_memo: true }
    }
}

impl PruneOptions {
    /// No pruning at all (exhaustive baseline).
    pub fn none() -> Self {
        PruneOptions { rule1: false, rule2: false, rule3: false, rule3_memo: false }
    }

    /// Only the given rule (1, 2 or 3), as used by the Figure 13 ablation.
    ///
    /// # Panics
    /// Panics if `rule` is not 1, 2 or 3.
    pub fn only(rule: u8) -> Self {
        let mut o = PruneOptions::none();
        match rule {
            1 => o.rule1 = true,
            2 => o.rule2 = true,
            3 => {
                o.rule3 = true;
                o.rule3_memo = true;
            }
            _ => panic!("no such pruning rule: {rule}"),
        }
        o
    }
}

/// Memo of the best (cheapest) dominant path per collapsed-operator count,
/// used by the aggressive Rule 3 variant (Eq. 9).
///
/// A stored entry is the descending-sorted list of operator costs `t(c)` of
/// a dominant path together with its estimated runtime `T_Ptm`. A candidate
/// path `Pt` is *dominated* if some memoized path `Ptm` with at most as
/// many operators satisfies `sort(Pt)[i] ≥ sort(Ptm)[i]` for all `i`
/// (missing entries count as zero-cost operators) — then `T_Pt ≥ T_Ptm ≥
/// bestT` follows from the monotonicity of `T(c)` in `t(c)` without ever
/// evaluating the cost function on `Pt`.
#[derive(Debug, Clone, Default)]
pub struct PathMemo {
    /// `entries[len]` — best dominant path with exactly `len + 1`
    /// collapsed operators: (sorted-descending costs, `T_Ptm`).
    entries: Vec<Option<(Vec<f64>, f64)>>,
}

impl PathMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fully-evaluated dominant path with per-operator costs
    /// `costs` (any order) and estimated runtime `total`. Keeps only the
    /// cheapest dominant path per operator count.
    pub fn record(&mut self, costs: &[f64], total: f64) {
        if costs.is_empty() {
            return;
        }
        let idx = costs.len() - 1;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        let slot = &mut self.entries[idx];
        if slot.as_ref().is_none_or(|(_, t)| total < *t) {
            let mut sorted = costs.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            *slot = Some((sorted, total));
        }
    }

    /// Returns `true` iff the path with (descending-sorted) operator costs
    /// `sorted_desc` is dominated by some memoized dominant path — i.e. its
    /// estimated runtime is guaranteed to be at least the memoized one.
    pub fn dominates(&self, sorted_desc: &[f64]) -> bool {
        if sorted_desc.is_empty() {
            return false;
        }
        let max_len = sorted_desc.len().min(self.entries.len());
        self.entries[..max_len].iter().flatten().any(|(memo, _)| {
            // memo.len() <= sorted_desc.len(); pad memo with zeros.
            memo.iter().chain(std::iter::repeat(&0.0)).zip(sorted_desc).all(|(m, p)| p >= m)
        })
    }

    /// Number of memoized dominant paths.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// `true` iff nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::PlanDag;

    fn params() -> CostParams {
        CostParams::new(3600.0, 0.0).with_pipe_const(0.8)
    }

    type Rule = fn(&PlanDag, &CostParams, &mut [bool]) -> usize;

    /// The operators `rule` marks on a fresh mask, in `OpId` order; checks
    /// that the returned count agrees.
    fn marks(rule: Rule, plan: &PlanDag, params: &CostParams) -> Vec<OpId> {
        let mut bound = vec![false; plan.len()];
        let count = rule(plan, params, &mut bound);
        let marked: Vec<OpId> = plan.op_ids().filter(|o| bound[o.index()]).collect();
        assert_eq!(count, marked.len());
        marked
    }

    /// Figure 5, left: unary parent. tr(o)=2, tm(o)=10; tr(p)=2, tm(p)=1.
    #[test]
    fn rule1_unary_figure5_example() {
        let mut b = PlanDag::builder();
        let o = b.free("o", 2.0, 10.0, &[]).unwrap();
        b.free("p", 2.0, 1.0, &[o]).unwrap();
        let plan = b.build().unwrap();
        // t({o,p}) = (2+2)*0.8 + 1 = 4.2 <= t({o}) = 12; the parent stays free.
        assert_eq!(marks(apply_rule1, &plan, &params()), vec![o]);
    }

    /// Figure 5, right: n-ary parent. tr(o1)=2, tm(o1)=10; tr(o2)=4,
    /// tm(o2)=5; tr(p)=2, tm(p)=1.
    #[test]
    fn rule1_nary_figure5_example() {
        let mut b = PlanDag::builder();
        let o1 = b.free("o1", 2.0, 10.0, &[]).unwrap();
        let o2 = b.free("o2", 4.0, 5.0, &[]).unwrap();
        b.free("p", 2.0, 1.0, &[o1, o2]).unwrap();
        let plan = b.build().unwrap();
        // t({o1,o2,p}) = (4+2)*0.8 + 1 = 5.8 <= t({o1}) = 12 and <= t({o2}) = 9.
        assert_eq!(marks(apply_rule1, &plan, &params()), vec![o1, o2]);
    }

    #[test]
    fn rule1_does_not_fire_when_materialization_is_cheap() {
        let mut b = PlanDag::builder();
        let o = b.free("o", 2.0, 0.1, &[]).unwrap();
        b.free("p", 10.0, 1.0, &[o]).unwrap();
        let plan = b.build().unwrap();
        // t({o,p}) = (2+10)*0.8 + 1 = 10.6 > t({o}) = 2.1.
        assert!(marks(apply_rule1, &plan, &params()).is_empty());
    }

    #[test]
    fn rule1_nary_requires_condition_for_all_children() {
        let mut b = PlanDag::builder();
        let o1 = b.free("cheap-mat", 1.0, 0.05, &[]).unwrap(); // t({o1}) = 1.05
        let o2 = b.free("exp-mat", 4.0, 5.0, &[]).unwrap(); // t({o2}) = 9
        b.free("p", 2.0, 1.0, &[o1, o2]).unwrap();
        let plan = b.build().unwrap();
        // t({o1,o2,p}) = (4+2)*0.8 + 1 = 5.8 > t({o1}) → neither is marked.
        assert!(marks(apply_rule1, &plan, &params()).is_empty());
    }

    #[test]
    fn rule1_skips_shared_children() {
        // o feeds two parents: collapsing it into one of them would not
        // spare the other re-execution, so the rule must not fire.
        let mut b = PlanDag::builder();
        let o = b.free("o", 2.0, 10.0, &[]).unwrap();
        b.free("p1", 2.0, 1.0, &[o]).unwrap();
        b.free("p2", 2.0, 1.0, &[o]).unwrap();
        let plan = b.build().unwrap();
        assert!(marks(apply_rule1, &plan, &params()).is_empty());
    }

    /// Figure 6: tr(o)=0.5, tm(o)=1; tr(p)=0.2, tm(p)=0.15; MTBF = 3600.
    #[test]
    fn rule2_figure6_example() {
        let mut b = PlanDag::builder();
        let o = b.free("o", 0.5, 1.0, &[]).unwrap();
        b.free("p", 0.2, 0.15, &[o]).unwrap();
        let plan = b.build().unwrap();
        let params = CostParams::new(3600.0, 0.0); // pipe = 1 as in Fig. 6
                                                   // t({o,p}) = 0.7 + 0.15 = 0.85; γ = e^(-0.85/3600) ≈ 0.9998 ≥ 0.95.
        assert_eq!(marks(apply_rule2, &plan, &params), vec![o]);
    }

    #[test]
    fn rule2_does_not_fire_for_long_operators_on_unreliable_clusters() {
        let mut b = PlanDag::builder();
        let o = b.free("o", 500.0, 1.0, &[]).unwrap();
        b.free("p", 200.0, 0.15, &[o]).unwrap();
        let plan = b.build().unwrap();
        let params = CostParams::new(3600.0, 0.0);
        // γ(700.15) = e^(-0.194) ≈ 0.82 < 0.95.
        assert!(marks(apply_rule2, &plan, &params).is_empty());
    }

    #[test]
    fn rule2_only_applies_to_unary_parents() {
        let mut b = PlanDag::builder();
        let o1 = b.free("o1", 0.1, 0.1, &[]).unwrap();
        let o2 = b.free("o2", 0.1, 0.1, &[]).unwrap();
        b.free("p", 0.1, 0.1, &[o1, o2]).unwrap();
        let plan = b.build().unwrap();
        let params = CostParams::new(3600.0, 0.0);
        assert!(marks(apply_rule2, &plan, &params).is_empty());
    }

    #[test]
    fn rules_skip_bound_operators() {
        let mut b = PlanDag::builder();
        let o = b.bound_materialized("shuffle", 2.0, 10.0, &[]).unwrap();
        b.free("p", 2.0, 1.0, &[o]).unwrap();
        let plan = b.build().unwrap();
        assert!(marks(apply_rule1, &plan, &params()).is_empty());
        assert!(marks(apply_rule2, &plan, &CostParams::new(3600.0, 0.0)).is_empty());
    }

    // --- Rule 3 memo (Eq. 9), including the paper's Figure 7 example. ---

    /// Figure 7: memoized Ptm1 = (5, 3, 1) and Ptm2 = (4, 4); the analyzed
    /// path Pt = (4, 4, 1) is not dominated by Ptm1 but dominated by Ptm2.
    #[test]
    fn memo_figure7_example() {
        let mut memo = PathMemo::new();
        memo.record(&[5.0, 3.0, 1.0], 9.5);
        memo.record(&[4.0, 4.0], 8.2);
        assert!(memo.dominates(&[4.0, 4.0, 1.0]));
        // Without Ptm2 the path would survive: 4 < 5 at index 0.
        let mut memo1 = PathMemo::new();
        memo1.record(&[5.0, 3.0, 1.0], 9.5);
        assert!(!memo1.dominates(&[4.0, 4.0, 1.0]));
    }

    #[test]
    fn memo_keeps_cheapest_per_length() {
        let mut memo = PathMemo::new();
        memo.record(&[10.0, 10.0], 25.0);
        memo.record(&[2.0, 1.0], 3.2);
        assert_eq!(memo.len(), 1);
        assert!(memo.dominates(&[2.0, 1.5]));
        assert!(!memo.dominates(&[1.0, 1.0]));
    }

    #[test]
    fn memo_never_compares_against_longer_paths() {
        let mut memo = PathMemo::new();
        memo.record(&[1.0, 1.0, 1.0], 3.3);
        // A 2-op path cannot be compared with a 3-op memo entry.
        assert!(!memo.dominates(&[5.0, 5.0]));
    }

    #[test]
    fn memo_empty_and_trivial_cases() {
        let mut memo = PathMemo::new();
        assert!(memo.is_empty());
        assert!(!memo.dominates(&[1.0]));
        memo.record(&[], 0.0); // ignored
        assert!(memo.is_empty());
        memo.record(&[1.0], 1.0);
        assert!(!memo.is_empty());
        assert!(memo.dominates(&[1.0]));
        assert!(memo.dominates(&[2.0]));
        assert!(!memo.dominates(&[0.5]));
    }

    #[test]
    fn prune_options_constructors() {
        let all = PruneOptions::default();
        assert!(all.rule1 && all.rule2 && all.rule3 && all.rule3_memo);
        let none = PruneOptions::none();
        assert!(!none.rule1 && !none.rule2 && !none.rule3 && !none.rule3_memo);
        assert!(PruneOptions::only(1).rule1);
        assert!(PruneOptions::only(2).rule2);
        assert!(PruneOptions::only(3).rule3);
        assert!(!PruneOptions::only(3).rule1);
    }

    #[test]
    #[should_panic(expected = "no such pruning rule")]
    fn prune_options_only_rejects_unknown_rule() {
        let _ = PruneOptions::only(4);
    }
}

/// Property tests for [`PathMemo::record`] / [`PathMemo::dominates`]:
/// the Eq. 9 dominance check must be monotone in the (prefix-sorted) cost
/// vector and must never fire on a path that is strictly cheaper in any
/// coordinate without compensation — a false positive here would make the
/// search discard competitive fault-tolerant plans.
#[cfg(test)]
mod memo_proptests {
    use proptest::prelude::*;

    use super::PathMemo;

    /// Descending-sorted cost vector with 1..=6 entries in (0, 50].
    fn arb_costs() -> impl Strategy<Value = Vec<f64>> {
        collection::vec(0.01f64..50.0, 1..=6).prop_map(|mut v| {
            v.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Reflexivity on ties: a recorded path dominates itself (Eq. 9
        /// uses `>=`, so an exact tie cannot beat the memoized runtime and
        /// is correctly skipped).
        #[test]
        #[cfg_attr(miri, ignore = "256-case proptests are too slow under Miri")]
        fn recorded_path_dominates_itself(costs in arb_costs(), total in 0.1f64..1e3) {
            let mut memo = PathMemo::new();
            memo.record(&costs, total);
            prop_assert!(memo.dominates(&costs));
        }

        /// Monotonicity: inflating any coordinates of a dominated path
        /// keeps it dominated (prefix-sorted costs only grow pointwise).
        #[test]
        #[cfg_attr(miri, ignore = "256-case proptests are too slow under Miri")]
        fn dominance_is_monotone_under_inflation(
            costs in arb_costs(),
            total in 0.1f64..1e3,
            bumps in collection::vec(0.0f64..10.0, 6usize),
        ) {
            let mut memo = PathMemo::new();
            memo.record(&costs, total);
            let mut inflated: Vec<f64> =
                costs.iter().zip(&bumps).map(|(c, b)| c + b).collect();
            inflated.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            prop_assert!(memo.dominates(&inflated));
        }

        /// No false dominance: deflating one coordinate of the only
        /// memoized entry must not be reported as dominated (single-entry
        /// memo, same length — nothing else could justify the skip).
        #[test]
        #[cfg_attr(miri, ignore = "256-case proptests are too slow under Miri")]
        fn no_false_dominance_below_the_entry(
            costs in arb_costs(),
            total in 0.1f64..1e3,
            pick in any::<u64>(),
        ) {
            let mut memo = PathMemo::new();
            memo.record(&costs, total);
            let i = (pick as usize) % costs.len();
            let mut cheaper = costs.clone();
            cheaper[i] *= 0.5;
            cheaper.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            prop_assert!(!memo.dominates(&cheaper));
        }

        /// Shorter paths are never compared against longer memo entries:
        /// a k-operator path can only be dominated by entries with <= k
        /// operators (missing operators count as zero cost, Eq. 9).
        #[test]
        #[cfg_attr(miri, ignore = "256-case proptests are too slow under Miri")]
        fn shorter_paths_ignore_longer_entries(costs in arb_costs(), total in 0.1f64..1e3) {
            prop_assume!(costs.len() >= 2);
            let mut memo = PathMemo::new();
            memo.record(&costs, total);
            let shorter = &costs[..costs.len() - 1];
            // All coordinates of `shorter` match the entry's prefix, but
            // the entry has one more (positive-cost) operator: comparing
            // would under-report, so it must not dominate.
            prop_assert!(!memo.dominates(shorter));
        }

        /// `record` keeps only the cheapest entry per path length, so
        /// dominance reflects the cheaper total's cost vector.
        #[test]
        #[cfg_attr(miri, ignore = "256-case proptests are too slow under Miri")]
        fn record_keeps_cheapest_per_length(
            a in arb_costs(),
            b in arb_costs(),
            t1 in 0.1f64..1e3,
            dt in 0.1f64..1e3,
        ) {
            prop_assume!(a.len() == b.len());
            let (cheap, expensive) = (&a, &b);
            let mut memo = PathMemo::new();
            memo.record(cheap, t1);
            memo.record(expensive, t1 + dt); // more expensive: ignored
            prop_assert_eq!(memo.len(), 1);
            prop_assert!(memo.dominates(cheap));
            let mut both = PathMemo::new();
            both.record(expensive, t1 + dt);
            both.record(cheap, t1); // cheaper: replaces
            prop_assert!(both.dominates(cheap));
        }
    }
}
