//! Calibration self-consistency: when the simulator is fed the cost
//! model's own parameters — same collapsed plan, same pipeline constant,
//! failure-free trace, negligible failure probability — every stage's
//! observed duration is exactly the predicted `tr + tm` and the query's
//! completion is exactly the dominant-path cost, so the calibration
//! report's errors must be ~0. Any drift here means the simulator and
//! the cost model have diverged on the execution semantics.

use ftpde::cluster::prelude::*;
use ftpde::core::dag::figure2_plan;
use ftpde::core::prelude::*;
use ftpde::obs::{export, CalibrationReport, MemoryRecorder};
use ftpde::sim::prelude::*;

#[test]
fn calibration_error_is_zero_on_the_models_own_parameters() {
    let plan = figure2_plan();
    // Practically failure-free: attempts a(c) ≈ 0, so predicted stage
    // cost collapses to tr + tm and T_Pt to the failure-free makespan.
    let params = CostParams::new(1e12, 1.0);
    let (best, _) =
        find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
            .expect("valid plan");
    let breakdown = best.estimate.breakdown(&params);

    let cluster = ClusterConfig::new(10, 1e12, 1.0);
    let trace = FailureTrace::failure_free(&cluster, 1e9);
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, pred: Some(&breakdown), ..Default::default() };
    let r = simulate(&plan, &best.config, Recovery::FineGrained, &cluster, &trace, &opts);

    let report = CalibrationReport::from_events(&rec.events());
    assert_eq!(report.stages.len(), breakdown.stages.len(), "every stage joined");
    for s in &report.stages {
        let err = s.rel_error.expect("all predictions are comparable");
        // Tolerance: the trace stores microsecond-rounded timestamps plus
        // the ~t/MTBF residual of the not-quite-zero failure probability.
        assert!(err.abs() < 1e-5, "stage {} rel error {err}", s.stage);
        assert_eq!(s.failures, 0);
        assert!(s.blame.total_s().abs() < 1e-4);
    }
    assert_eq!(report.queries.len(), 1);
    let q = &report.queries[0];
    assert!(q.rel_error.unwrap().abs() < 1e-5, "query rel error {:?}", q.rel_error);
    assert!((q.observed_s - r.completion).abs() < 1e-5);
    assert!(!q.aborted);

    // The whole report survives the offline path: JSONL round-trip, then
    // re-derivation from the parsed events.
    let parsed = export::from_jsonl(&export::to_jsonl(&rec.events())).unwrap();
    assert_eq!(CalibrationReport::from_events(&parsed), report);
}

#[test]
fn calibration_attributes_injected_failures_to_recovery_blame() {
    // A known failure: single node, chain scan(2,1) → join(3,1) → agg(1,1)
    // all materialized, node fails at t = 1.0 with MTTR 0.5 — the observed
    // recovery is exactly 1.0 s lost + 0.5 s repair on stage 0.
    let mut b = PlanDag::builder();
    let s = b.free("scan", 2.0, 1.0, &[]).unwrap();
    let j = b.free("join", 3.0, 1.0, &[s]).unwrap();
    b.free("agg", 1.0, 1.0, &[j]).unwrap();
    let plan = b.build().unwrap();

    let params = CostParams::new(1e12, 0.5); // predicted recovery ≈ 0
    let config = MatConfig::all(&plan);
    let breakdown = estimate_ft_plan(&plan, &config, &params).breakdown(&params);
    let cluster = ClusterConfig::new(1, 1e12, 0.5);
    let trace = FailureTrace::from_times(vec![vec![1.0]], 1e9);
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, pred: Some(&breakdown), ..Default::default() };
    simulate(&plan, &config, Recovery::FineGrained, &cluster, &trace, &opts);

    let report = CalibrationReport::from_events(&rec.events());
    let failed = &report.stages[0];
    assert_eq!(failed.failures, 1);
    assert!((failed.observed_recovery_s - 1.5).abs() < 1e-6);
    // The stage ran 1.5 s longer than predicted, and the blame breakdown
    // pins that entirely on recovery — not on tr/tm miscalibration.
    assert!((failed.error_s - 1.5).abs() < 1e-4);
    assert!((failed.blame.recovery_s - 1.5).abs() < 1e-4);
    assert!(failed.blame.runtime_s.abs() < 1e-4);
    assert!(failed.blame.materialization_s.abs() < 1e-4);
    // The untouched downstream stages stay calibrated.
    for s in &report.stages[1..] {
        assert!(s.rel_error.unwrap().abs() < 1e-5);
        assert_eq!(s.failures, 0);
    }
    // Aggregate drift is positive: reality was slower than predicted.
    assert!(report.drift_score().unwrap() > 0.9);
}
