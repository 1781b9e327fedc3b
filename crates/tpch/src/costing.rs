//! Cost-model calibration against the paper's reported anchors.
//!
//! The paper measures `tr(o)`/`tm(o)` on a 10-node XDB/MySQL cluster with
//! an external iSCSI target as fault-tolerant storage. We cannot reproduce
//! the hardware, so the [`CostModel`] throughput constants are calibrated
//! against two quantitative anchors the paper reports:
//!
//! 1. TPC-H **Q5 at SF = 100 runs ≈ 905 s** failure-free with no extra
//!    materializations (§5.3, "a query execution time of 905.33s").
//! 2. The **total materialization cost of Q5's five join operators is
//!    ≈ 34 % of the runtime** (§5.3: "the total materialization costs of
//!    all operators (1–5 in Figure 9) represent only 34.13 % of the total
//!    runtime costs").
//!
//! The calibration tests in this module pin both anchors; if the query
//! cardinality model changes, they fail and the constants in
//! [`CostModel::xdb_calibrated`] must be re-derived.

use ftpde_core::dag::PlanDag;

pub use ftpde_optimizer::physical::CostModel;

/// Total materialization cost of all *free* operators of `plan` — the
/// extra time the all-mat scheme pays on top of the baseline when all
/// free operators lie on the critical path (true for the left-deep
/// evaluation queries).
pub fn free_materialization_cost(plan: &PlanDag) -> f64 {
    plan.iter().filter(|(_, op)| op.is_free()).map(|(_, op)| op.mat_cost).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{q5_plan, Query};
    use ftpde_sim::simulate::baseline_runtime;

    #[test]
    fn anchor1_q5_sf100_baseline_is_about_905s() {
        let plan = q5_plan(100.0, &CostModel::xdb_calibrated());
        let baseline = baseline_runtime(&plan, 1.0);
        assert!(
            (baseline - 905.33).abs() < 905.33 * 0.1,
            "Q5@SF100 baseline = {baseline:.1}s, paper reports 905.33s"
        );
    }

    #[test]
    fn anchor2_q5_materialization_share_is_about_34pct() {
        let plan = q5_plan(100.0, &CostModel::xdb_calibrated());
        let share = free_materialization_cost(&plan) / baseline_runtime(&plan, 1.0);
        assert!(
            (share - 0.3413).abs() < 0.08,
            "Q5 all-mat materialization share = {:.1}%, paper reports 34.13%",
            share * 100.0
        );
    }

    #[test]
    fn q1c_materialization_share_is_high() {
        // §5.2: Q1C/Q2C have much higher materialization costs under
        // all-mat — "approx. 60 − 100% of the runtime costs".
        let plan = Query::Q1C.plan(100.0, &CostModel::xdb_calibrated());
        let share = free_materialization_cost(&plan) / baseline_runtime(&plan, 1.0);
        assert!((0.5..=1.3).contains(&share), "Q1C materialization share = {:.1}%", share * 100.0);
    }

    #[test]
    fn baseline_runtimes_are_ordered_sensibly() {
        let cm = CostModel::xdb_calibrated();
        let sf = 100.0;
        let q1 = baseline_runtime(&Query::Q1.plan(sf, &cm), 1.0);
        let q3 = baseline_runtime(&Query::Q3.plan(sf, &cm), 1.0);
        let q5 = baseline_runtime(&Query::Q5.plan(sf, &cm), 1.0);
        // All in the minutes range on 10 nodes at SF 100.
        for (name, t) in [("Q1", q1), ("Q3", q3), ("Q5", q5)] {
            assert!((60.0..7200.0).contains(&t), "{name} baseline = {t:.0}s");
        }
        // Q5 (6-way join) costs more than Q1 (scan + agg).
        assert!(q5 > q1);
    }

    #[test]
    fn baseline_scales_linearly_in_sf() {
        let cm = CostModel::xdb_calibrated();
        let b1 = baseline_runtime(&q5_plan(1.0, &cm), 1.0);
        let b100 = baseline_runtime(&q5_plan(100.0, &cm), 1.0);
        let ratio = b100 / b1;
        assert!((90.0..110.0).contains(&ratio), "ratio = {ratio}");
    }
}
