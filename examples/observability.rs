//! Observability end-to-end: trace all three instrumented layers — the
//! cost-based search, the discrete-event simulator, and the real
//! execution engine under an injected node failure — then export the
//! engine's event log as JSONL and as a Chrome trace you can load in
//! `chrome://tracing` or https://ui.perfetto.dev. The metrics it prints
//! are a fold of the three recorded traces.
//!
//! ```text
//! cargo run --example observability
//! ```

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::engine::prelude::*;
use ftpde::obs::{export, fold, metrics_summary, MemoryRecorder};
use ftpde::sim::prelude::*;
use ftpde::tpch::datagen::Database;
use ftpde::tpch::prelude::*;

fn main() {
    // --- layer 1: the optimizer search, traced --------------------------
    let cost_model = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cost_model);
    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
    let params = Scheme::cost_params(&cluster);
    let rec = MemoryRecorder::new();
    let (best, stats) = find_best_ft_plan_traced(
        std::slice::from_ref(&plan),
        &params,
        &PruneOptions::default(),
        &rec,
    )
    .expect("valid plan");
    println!("{}", explain_search_stats(&stats));
    println!(
        "search emitted {} events; best config materializes {} intermediate(s)\n",
        rec.events().len(),
        best.config.materialized_count()
    );

    // --- layer 2: the simulator, traced ---------------------------------
    let sim_rec = MemoryRecorder::new();
    // Tag the trace with the cost model's own per-stage predictions so it
    // can be calibrated offline (`ftpde obs --trace ... --format calibration`).
    let breakdown = estimate_ft_plan(&plan, &best.config, &params).breakdown(&params);
    let opts = SimOptions { rec: &sim_rec, pred: Some(&breakdown), ..Default::default() };
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let trace = FailureTrace::generate(&cluster, horizon, 2026);
    let r = simulate(&plan, &best.config, Recovery::FineGrained, &cluster, &trace, &opts);
    println!(
        "simulated Q5: completed {:.0} s, {} node retries, {:.0} s spent in recovery \
         ({} timeline events recorded)\n",
        r.completion,
        r.node_retries,
        r.recovery_seconds,
        sim_rec.events().len()
    );

    // --- layer 3: the real engine with an injected node kill ------------
    let engine_plan = q3_engine_plan();
    let dag = engine_plan.to_plan_dag();
    let config = MatConfig::from_free_bits(&dag, 0b01); // materialize the first join
    let sink = engine_plan.sinks()[0];
    let injector = FailureInjector::with([Injection { stage: sink.0, node: 1, attempt: 0 }]);
    let catalog = load_catalog(&Database::generate(0.001, 42), 4);
    let engine_rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &engine_rec, ..Default::default() };
    let report = run_query(&engine_plan, &config, &catalog, &injector, &opts);
    println!(
        "engine ran Q3 on 4 nodes, killed node 1 mid-stage: {} retry, results intact ({} rows)",
        report.node_retries,
        report.results[0].1.len()
    );

    // Fold the three traces into their metrics...
    let events = engine_rec.events();
    let all: Vec<_> =
        rec.events().into_iter().chain(sim_rec.events()).chain(events.clone()).collect();
    print!("{}", metrics_summary(&fold(&all).metrics).render());

    // ...and export the engine timeline in both formats, plus the
    // prediction-tagged simulator timeline for offline calibration.
    let dir = std::path::Path::new("target/obs");
    let jsonl = dir.join("engine_run.jsonl");
    let chrome = dir.join("engine_trace.json");
    let sim_jsonl = dir.join("sim_run.jsonl");
    export::write_file(&jsonl, &export::to_jsonl(&events)).expect("write JSONL");
    export::write_file(&chrome, &export::to_chrome_trace(&events)).expect("write trace");
    export::write_file(&sim_jsonl, &export::to_jsonl(&sim_rec.events())).expect("write sim JSONL");
    println!("\nwrote {} events:", events.len() + sim_rec.events().len());
    println!("  {}   (JSONL event log)", jsonl.display());
    println!("  {}   (Chrome trace — open in chrome://tracing or Perfetto)", chrome.display());
    println!(
        "  {}   (prediction-tagged sim trace — try `ftpde obs --trace {} --format calibration`)",
        sim_jsonl.display(),
        sim_jsonl.display()
    );
}
