//! The cost model for query runtime under mid-query failures
//! (paper §3.5, Equations 2–8).
//!
//! For a collapsed operator `c` with failure-free runtime `t(c)`:
//!
//! * probability that `c` fails during one attempt:
//!   `η(c) = 1 − e^(−t(c)/MTBF_cost)`; success `γ(c) = 1 − η(c)`;
//! * expected runtime wasted per failure (Eq. 3):
//!   `w(c) = MTBF_cost − t(c) / (e^(t(c)/MTBF_cost) − 1)`,
//!   approximated by `t(c)/2` (Eq. 4) — the paper's default, since
//!   `w(c) → t(c)/2` already for `MTBF_cost > t(c)`;
//! * number of *additional* attempts needed to reach the target success
//!   percentile `S` (Eq. 6):
//!   `a(c) = max(ln(1 − S)/ln(η(c)) − 1, 0)`;
//! * total runtime of the operator under failures (Eq. 8):
//!   `T(c) = t(c) + a(c)·w(c) + a(c)·MTTR_cost`;
//! * total runtime of an execution path (Eq. 7): `T_Pt = Σ_{c∈Pt} T(c)`.
//!
//! `MTBF_cost = MTBF · CONST_cost` and `MTTR_cost = MTTR · CONST_cost`
//! convert wall-clock reliability statistics into the engine's internal
//! cost unit; the paper's evaluation uses `CONST_cost = 1` (costs are
//! seconds).

use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use crate::collapse::{CId, CollapsedPlan};
use crate::config::MatConfig;
use crate::dag::PlanDag;
use crate::error::{CoreError, Result};
use crate::paths::for_each_path;

/// How the expected wasted runtime per failure `w(c)` is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WastedTimeModel {
    /// The paper's default approximation `w(c) = t(c)/2` (Eq. 4).
    #[default]
    HalfRuntime,
    /// The exact expectation of Eq. 3,
    /// `w(c) = MTBF_cost − t(c)/(e^(t(c)/MTBF_cost) − 1)`.
    Exact,
}

/// Parameters of the cost model.
///
/// Construct with [`CostParams::new`] and customize via the with-methods:
///
/// ```
/// use ftpde_core::cost::CostParams;
///
/// let params = CostParams::new(3600.0, 1.0) // MTBF 1 h, MTTR 1 s
///     .with_success_target(0.95)
///     .with_pipe_const(1.0);
/// assert_eq!(params.mtbf_cost, 3600.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Mean time between failures of one node, in internal cost units
    /// (`MTBF · CONST_cost`).
    pub mtbf_cost: f64,
    /// Mean time to repair/redeploy, in internal cost units.
    pub mttr_cost: f64,
    /// Target success percentile `S` used to size the number of attempts;
    /// the paper uses `S = 0.95` throughout.
    pub success_target: f64,
    /// `CONST_pipe ∈ (0, 1]`: pipeline-parallelism factor applied to
    /// multi-operator collapsed sub-plans (Eq. 1). The paper's calibration
    /// on XDB yielded `1.0`.
    pub pipe_const: f64,
    /// Wasted-runtime model (Eq. 3 exact vs Eq. 4 approximation).
    pub wasted_model: WastedTimeModel,
}

impl CostParams {
    /// Creates parameters with the paper's defaults: `S = 0.95`,
    /// `CONST_pipe = 1`, `w(c) = t(c)/2`.
    pub fn new(mtbf_cost: f64, mttr_cost: f64) -> Self {
        CostParams {
            mtbf_cost,
            mttr_cost,
            success_target: 0.95,
            pipe_const: 1.0,
            wasted_model: WastedTimeModel::HalfRuntime,
        }
    }

    /// Sets the target success percentile `S ∈ (0, 1)`.
    pub fn with_success_target(mut self, s: f64) -> Self {
        self.success_target = s;
        self
    }

    /// Sets `CONST_pipe ∈ (0, 1]`.
    pub fn with_pipe_const(mut self, pipe: f64) -> Self {
        self.pipe_const = pipe;
        self
    }

    /// Selects the wasted-runtime model.
    pub fn with_wasted_model(mut self, model: WastedTimeModel) -> Self {
        self.wasted_model = model;
        self
    }

    /// Validates the parameter domain.
    pub fn validate(&self) -> Result<()> {
        if !(self.mtbf_cost.is_finite() && self.mtbf_cost > 0.0) {
            return Err(CoreError::InvalidParameter { what: "MTBF_cost", value: self.mtbf_cost });
        }
        if !(self.mttr_cost.is_finite() && self.mttr_cost >= 0.0) {
            return Err(CoreError::InvalidParameter { what: "MTTR_cost", value: self.mttr_cost });
        }
        if !(self.success_target > 0.0 && self.success_target < 1.0) {
            return Err(CoreError::InvalidParameter {
                what: "success_target",
                value: self.success_target,
            });
        }
        if !(self.pipe_const > 0.0 && self.pipe_const <= 1.0) {
            return Err(CoreError::InvalidParameter { what: "pipe_const", value: self.pipe_const });
        }
        Ok(())
    }

    /// `γ(c) = e^(−t/MTBF_cost)`: probability that an operator with runtime
    /// `t` completes without a failure on one node.
    #[inline]
    pub fn success_probability(&self, t: f64) -> f64 {
        (-t / self.mtbf_cost).exp()
    }

    /// `η(c) = 1 − γ(c)`: probability that one attempt fails.
    #[inline]
    pub fn failure_probability(&self, t: f64) -> f64 {
        -(-t / self.mtbf_cost).exp_m1()
    }

    /// Expected runtime wasted by one failure during an operator of
    /// runtime `t` (Eq. 3 or Eq. 4 depending on the configured model).
    #[inline]
    pub fn wasted_runtime(&self, t: f64) -> f64 {
        match self.wasted_model {
            WastedTimeModel::HalfRuntime => t / 2.0,
            WastedTimeModel::Exact => {
                if t == 0.0 {
                    0.0
                } else {
                    self.mtbf_cost - t / (t / self.mtbf_cost).exp_m1()
                }
            }
        }
    }

    /// `a(c)`: number of additional attempts (beyond the first) needed for
    /// an operator of runtime `t` to reach the success percentile `S`
    /// (Eq. 6). Fractional by design — the paper plugs the real-valued
    /// solution of the geometric series into Eq. 8.
    pub fn attempts(&self, t: f64) -> f64 {
        let eta = self.failure_probability(t);
        if eta <= 0.0 {
            return 0.0;
        }
        if eta >= 1.0 {
            return f64::INFINITY;
        }
        ((1.0 - self.success_target).ln() / eta.ln() - 1.0).max(0.0)
    }

    /// `T(c)` (Eq. 8): total expected runtime of an operator of
    /// failure-free runtime `t`, including wasted re-execution time and
    /// redeployment cost. +∞ when the attempts `a(c)` diverge, even with
    /// `MTTR_cost` = 0, where `a(c) · MTTR_cost` alone would be NaN.
    pub fn op_cost(&self, t: f64) -> f64 {
        let a = self.attempts(t);
        if a.is_infinite() {
            return f64::INFINITY;
        }
        t + a * self.wasted_runtime(t) + a * self.mttr_cost
    }
}

/// Cost of an execution path `Pt` *with* recovery costs: `T_Pt` (Eq. 7).
pub fn path_cost(plan: &CollapsedPlan, path: &[CId], params: &CostParams) -> f64 {
    path.iter().map(|&c| params.op_cost(plan.op(c).total_cost())).sum()
}

/// Cost of an execution path without failures: `R_Pt = Σ t(c)`.
pub fn path_runtime(plan: &CollapsedPlan, path: &[CId]) -> f64 {
    path.iter().map(|&c| plan.op(c).total_cost()).sum()
}

/// The cost estimate of one fault-tolerant plan `[P, M_P]`: the collapsed
/// plan together with its dominant execution path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FtEstimate {
    /// The collapsed plan the estimate was computed over.
    pub collapsed: CollapsedPlan,
    /// The dominant (maximal-cost) execution path.
    pub dominant_path: Vec<CId>,
    /// `T_Pt` of the dominant path — the plan's estimated runtime under
    /// mid-query failures.
    pub dominant_cost: f64,
    /// `R_Pt` of the dominant path — its runtime without failures.
    pub dominant_runtime: f64,
    /// Number of execution paths examined.
    pub paths_examined: u64,
}

/// Predicted cost decomposition of one collapsed stage under a
/// [`CostParams`]: the terms of Eq. 8 spelled out so the observability
/// layer can compare each one against what the simulator or engine
/// actually observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageEstimate {
    /// Plan operator id of the stage's root — the stage's name in engine
    /// and simulator traces.
    pub root: u32,
    /// `tr(c)`: failure-free runtime of the stage.
    pub run_cost: f64,
    /// `tm(c)`: materialization penalty of the stage.
    pub mat_cost: f64,
    /// `a(c)`: additional attempts budgeted to reach the success target.
    pub attempts: f64,
    /// `a(c) · (w(c) + MTTR_cost)`: predicted time lost to failures.
    pub recovery_cost: f64,
    /// `T(c) = t(c) + recovery_cost`: total predicted stage cost (Eq. 8).
    pub ft_cost: f64,
    /// `true` iff the stage lies on the dominant execution path.
    pub on_dominant_path: bool,
}

/// An [`FtEstimate`] decomposed per stage — the predicted side of the
/// calibration join (serialize it, or hand it to the simulator's
/// `SimOptions::pred` or the engine's `RunOptions::pred`, which tag each
/// stage span with these numbers by root operator id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateBreakdown {
    /// `T_Pt` of the dominant path (the plan's headline prediction).
    pub dominant_cost: f64,
    /// `R_Pt` of the dominant path (prediction without failures).
    pub dominant_runtime: f64,
    /// One entry per collapsed stage, in [`CId`] order.
    pub stages: Vec<StageEstimate>,
}

impl EstimateBreakdown {
    /// The stage estimate whose root plan operator is `root`, if any —
    /// the lookup both executors join their stage spans on.
    pub fn by_root(&self, root: u32) -> Option<&StageEstimate> {
        self.stages.iter().find(|s| s.root == root)
    }
}

impl FtEstimate {
    /// Decomposes the estimate into per-stage predicted costs under
    /// `params` (which must be the parameters the estimate was computed
    /// with, or the recovery terms will not match the search's).
    pub fn breakdown(&self, params: &CostParams) -> EstimateBreakdown {
        let stages = self
            .collapsed
            .iter()
            .map(|(id, c)| {
                let t = c.total_cost();
                let attempts = params.attempts(t);
                let recovery_cost = attempts * (params.wasted_runtime(t) + params.mttr_cost);
                StageEstimate {
                    root: c.root.0,
                    run_cost: c.run_cost,
                    mat_cost: c.mat_cost,
                    attempts,
                    recovery_cost,
                    ft_cost: params.op_cost(t),
                    on_dominant_path: self.dominant_path.contains(&id),
                }
            })
            .collect();
        EstimateBreakdown {
            dominant_cost: self.dominant_cost,
            dominant_runtime: self.dominant_runtime,
            stages,
        }
    }
}

/// Estimates the runtime of the fault-tolerant plan `[plan, config]` under
/// mid-query failures: collapses the plan, enumerates all execution paths
/// and returns the dominant one (steps 2–4 of the paper's procedure).
pub fn estimate_ft_plan(plan: &PlanDag, config: &MatConfig, params: &CostParams) -> FtEstimate {
    let collapsed = CollapsedPlan::collapse(plan, config, params.pipe_const);
    let mut dominant_path = Vec::new();
    let mut dominant_cost = f64::NEG_INFINITY;
    let mut dominant_runtime = 0.0;
    let mut paths_examined = 0u64;
    for_each_path::<()>(&collapsed, |p| {
        paths_examined += 1;
        let c = path_cost(&collapsed, p, params);
        if c > dominant_cost {
            dominant_cost = c;
            dominant_runtime = path_runtime(&collapsed, p);
            dominant_path = p.to_vec();
        }
        ControlFlow::Continue(())
    });
    FtEstimate { collapsed, dominant_path, dominant_cost, dominant_runtime, paths_examined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::figure2_plan;
    use crate::operator::OpId;

    fn table2_params() -> CostParams {
        CostParams::new(60.0, 0.0)
    }

    fn figure3_setup() -> (PlanDag, MatConfig) {
        let plan = figure2_plan();
        let cfg =
            MatConfig::from_materialized_free_ops(&plan, &[OpId(2), OpId(4), OpId(5), OpId(6)])
                .unwrap();
        (plan, cfg)
    }

    #[test]
    fn table2_success_probabilities() {
        let p = table2_params();
        // Table 2 row γ(c): 0.94, 0.95, 0.98, 0.96 for t = 4, 3, 1, 2.
        assert!((p.success_probability(4.0) - 0.94).abs() < 0.005);
        assert!((p.success_probability(3.0) - 0.95).abs() < 0.005);
        assert!((p.success_probability(1.0) - 0.98).abs() < 0.005);
        // (exact γ(2) = 0.967; the paper's table rounds it down to 0.96)
        assert!((p.success_probability(2.0) - 0.96).abs() < 0.01);
    }

    #[test]
    fn table2_attempts_with_paper_rounding() {
        // The paper computes a({1,2,3}) = 0.0648 from η rounded to 0.06.
        let s: f64 = 0.95;
        let eta_rounded: f64 = 0.06;
        let a = (1.0 - s).ln() / eta_rounded.ln() - 1.0;
        assert!((a - 0.0648).abs() < 1e-3, "paper's rounded value, got {a}");
        // Exact arithmetic gives a slightly larger value.
        let p = table2_params();
        let a_exact = p.attempts(4.0);
        assert!((a_exact - 0.0929).abs() < 1e-3, "exact value, got {a_exact}");
        // Operators with t = 3, 1, 2 need no extra attempt at S = 0.95.
        assert_eq!(p.attempts(3.0), 0.0);
        assert_eq!(p.attempts(1.0), 0.0);
        assert_eq!(p.attempts(2.0), 0.0);
    }

    #[test]
    fn table2_path_costs_and_dominant_path() {
        let (plan, cfg) = figure3_setup();
        let params = table2_params();
        let est = estimate_ft_plan(&plan, &cfg, &params);
        assert_eq!(est.paths_examined, 2);
        // Exact arithmetic: TPt1 = 8.186, TPt2 = 9.186 (paper reports
        // 8.13 / 9.13 from rounded η; the difference is only the a(c) of
        // the first collapsed operator).
        let t1 = path_cost(&est.collapsed, &[CId(0), CId(1), CId(2)], &params);
        let t2 = path_cost(&est.collapsed, &[CId(0), CId(1), CId(3)], &params);
        assert!((t1 - 8.13).abs() < 0.06, "TPt1 = {t1}");
        assert!((t2 - 9.13).abs() < 0.06, "TPt2 = {t2}");
        // Pt2 is dominant, as in Figure 3 step 4.
        assert_eq!(est.dominant_path, vec![CId(0), CId(1), CId(3)]);
        assert!((est.dominant_cost - t2).abs() < 1e-12);
        assert_eq!(est.dominant_runtime, 9.0);
    }

    #[test]
    fn wasted_runtime_half_model() {
        let p = table2_params();
        assert_eq!(p.wasted_runtime(4.0), 2.0);
        assert_eq!(p.wasted_runtime(0.0), 0.0);
    }

    #[test]
    fn wasted_runtime_exact_model_limits() {
        let p = table2_params().with_wasted_model(WastedTimeModel::Exact);
        // Exact w is always below t/2 and approaches it as MTBF >> t.
        for &t in &[0.1, 1.0, 10.0, 60.0, 600.0] {
            let w = p.wasted_runtime(t);
            assert!(w > 0.0 && w < t / 2.0 + 1e-12, "w({t}) = {w}");
        }
        let long_mtbf = CostParams::new(1e9, 0.0).with_wasted_model(WastedTimeModel::Exact);
        let w = long_mtbf.wasted_runtime(10.0);
        assert!((w - 5.0).abs() < 1e-3, "limit MTBF→∞ gives t/2, got {w}");
        assert_eq!(p.wasted_runtime(0.0), 0.0);
    }

    #[test]
    fn attempts_edge_cases() {
        let p = table2_params();
        assert_eq!(p.attempts(0.0), 0.0);
        // t >> MTBF: η → 1, attempts diverge.
        assert!(p.attempts(1e9).is_infinite());
        // Larger S needs at least as many attempts.
        let p90 = table2_params().with_success_target(0.90);
        let p99 = table2_params().with_success_target(0.99);
        assert!(p99.attempts(10.0) >= p90.attempts(10.0));
    }

    #[test]
    fn op_cost_includes_mttr_per_attempt() {
        let no_repair = CostParams::new(10.0, 0.0);
        let with_repair = CostParams::new(10.0, 5.0);
        let t = 8.0;
        let a = no_repair.attempts(t);
        assert!(a > 0.0);
        let diff = with_repair.op_cost(t) - no_repair.op_cost(t);
        assert!((diff - a * 5.0).abs() < 1e-9);
    }

    #[test]
    fn op_cost_is_infinite_when_attempts_diverge() {
        // t = 100 × MTBF: η rounds to 1, so a(c) = +∞.
        for mttr in [0.0, 5.0] {
            let p = CostParams::new(1.0, mttr);
            assert!(p.attempts(100.0).is_infinite());
            assert_eq!(p.op_cost(100.0), f64::INFINITY, "MTTR = {mttr}");
        }
    }

    #[test]
    fn validate_domains() {
        assert!(CostParams::new(60.0, 0.0).validate().is_ok());
        assert!(CostParams::new(0.0, 0.0).validate().is_err());
        assert!(CostParams::new(-1.0, 0.0).validate().is_err());
        assert!(CostParams::new(60.0, -1.0).validate().is_err());
        assert!(CostParams::new(60.0, 0.0).with_success_target(1.0).validate().is_err());
        assert!(CostParams::new(60.0, 0.0).with_success_target(0.0).validate().is_err());
        assert!(CostParams::new(60.0, 0.0).with_pipe_const(0.0).validate().is_err());
        assert!(CostParams::new(60.0, 0.0).with_pipe_const(1.5).validate().is_err());
    }

    #[test]
    fn gamma_eta_sum_to_one() {
        let p = table2_params();
        for &t in &[0.0, 0.5, 1.0, 10.0, 100.0] {
            let sum = p.success_probability(t) + p.failure_probability(t);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn breakdown_terms_sum_to_the_stage_cost() {
        let (plan, cfg) = figure3_setup();
        let params = table2_params();
        let est = estimate_ft_plan(&plan, &cfg, &params);
        let b = est.breakdown(&params);
        assert_eq!(b.stages.len(), est.collapsed.len());
        assert_eq!(b.dominant_cost, est.dominant_cost);
        for s in &b.stages {
            let t = s.run_cost + s.mat_cost;
            assert!((s.ft_cost - (t + s.recovery_cost)).abs() < 1e-12, "Eq. 8 partition");
            assert!(
                (s.recovery_cost - s.attempts * (params.wasted_runtime(t) + params.mttr_cost))
                    .abs()
                    < 1e-12
            );
        }
        // The dominant path flags match the estimate's path.
        let on_path: Vec<u32> =
            b.stages.iter().filter(|s| s.on_dominant_path).map(|s| s.root).collect();
        let path_roots: Vec<u32> =
            est.dominant_path.iter().map(|&c| est.collapsed.op(c).root.0).collect();
        assert_eq!(on_path, path_roots);
        // The dominant cost is the sum of T(c) over the dominant path.
        let path_sum: f64 = b.stages.iter().filter(|s| s.on_dominant_path).map(|s| s.ft_cost).sum();
        assert!((path_sum - b.dominant_cost).abs() < 1e-9);
        // Root-based lookup joins the executors' stage numbering.
        let first = &b.stages[0];
        assert_eq!(b.by_root(first.root), Some(first));
        assert_eq!(b.by_root(9999), None);
    }

    #[test]
    fn breakdown_without_failures_is_pure_runtime() {
        let (plan, cfg) = figure3_setup();
        let params = CostParams::new(1e12, 0.0);
        let b = estimate_ft_plan(&plan, &cfg, &params).breakdown(&params);
        for s in &b.stages {
            assert_eq!(s.attempts, 0.0);
            assert_eq!(s.recovery_cost, 0.0);
            assert_eq!(s.ft_cost, s.run_cost + s.mat_cost);
        }
    }

    #[test]
    fn estimate_and_breakdown_round_trip_through_serde() {
        let (plan, cfg) = figure3_setup();
        let params = table2_params();
        let est = estimate_ft_plan(&plan, &cfg, &params);
        let est_back: FtEstimate =
            serde_json::from_str(&serde_json::to_string(&est).unwrap()).unwrap();
        assert_eq!(est_back, est);
        let b = est.breakdown(&params);
        let b_back: EstimateBreakdown =
            serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        assert_eq!(b_back, b);
    }

    #[test]
    fn estimate_single_op_plan() {
        let mut b = PlanDag::builder();
        b.free("only", 10.0, 2.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let cfg = MatConfig::from_free_bits(&plan, 1);
        let params = CostParams::new(1e9, 0.0);
        let est = estimate_ft_plan(&plan, &cfg, &params);
        assert_eq!(est.dominant_cost, 12.0);
        assert_eq!(est.dominant_runtime, 12.0);
        assert_eq!(est.paths_examined, 1);
    }
}
