//! Cost-model calibration end-to-end: the cost-based search picks a
//! fault-tolerant plan, the simulator and the real engine run it under
//! injected failures with prediction-tagged traces, and the calibration
//! report prints the per-stage prediction error, aggregate quantiles and
//! the blame breakdown (runtime vs materialization vs recovery).
//!
//! ```text
//! cargo run --example calibration
//! ```

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::engine::prelude::*;
use ftpde::obs::{export, CalibrationReport, MemoryRecorder};
use ftpde::sim::prelude::*;
use ftpde::tpch::datagen::Database;
use ftpde::tpch::prelude::*;

fn main() {
    // --- 1. the search picks a plan, and the estimate it picked it by ---
    let cost_model = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cost_model);
    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
    let params = Scheme::cost_params(&cluster);
    let (best, _) =
        find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
            .expect("valid plan");
    // The per-stage Eq. 8 decomposition of exactly that winning estimate.
    let breakdown = best.estimate.breakdown(&params);
    println!(
        "search picked a config materializing {} intermediate(s); predicted T_Pt = {:.1} s",
        best.config.materialized_count(),
        breakdown.dominant_cost
    );

    // --- 2. the simulator replays it against a real failure trace -------
    let sim_rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &sim_rec, pred: Some(&breakdown), ..Default::default() };
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let trace = FailureTrace::generate(&cluster, horizon, 7);
    let r = simulate(&plan, &best.config, Recovery::FineGrained, &cluster, &trace, &opts);
    println!(
        "simulated: completed {:.1} s ({} node retries, {:.1} s in recovery)",
        r.completion, r.node_retries, r.recovery_seconds
    );

    // --- 3. the engine runs a query with an injected node kill ----------
    let engine_plan = q3_engine_plan();
    let dag = engine_plan.to_plan_dag();
    let config = MatConfig::from_free_bits(&dag, 0b01);
    let engine_params = CostParams::new(600.0, 1.0);
    let engine_breakdown =
        estimate_ft_plan(&dag, &config, &engine_params).breakdown(&engine_params);
    let sink = engine_plan.sinks()[0];
    let injector = FailureInjector::with([Injection { stage: sink.0, node: 1, attempt: 0 }]);
    let catalog = load_catalog(&Database::generate(0.001, 42), 4);
    let engine_rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &engine_rec, pred: Some(&engine_breakdown), ..Default::default() };
    let report = run_query(&engine_plan, &config, &catalog, &injector, &opts);
    println!("engine ran Q3, killed node 1 once: {} retry\n", report.node_retries);

    // --- 4. calibrate both traces: predicted vs observed ----------------
    let sim_cal = CalibrationReport::from_events(&sim_rec.events());
    sim_cal.to_summary().print();
    // The engine's observed side is wall-clock seconds of a tiny test
    // database while the predictions are cost-model units, so its report
    // mostly measures that unit gap — printed here to show the blame
    // attribution, not model quality.
    CalibrationReport::from_events(&engine_rec.events()).to_summary().print();

    // --- 5. leave the tagged trace on disk for the offline CLI ----------
    let path = std::path::Path::new("target/obs/calibration_run.jsonl");
    export::write_file(path, &export::to_jsonl(&sim_rec.events())).expect("write trace");
    println!("\nwrote {}", path.display());
    println!("replay it offline:  ftpde obs --trace {} --format calibration", path.display());
}
