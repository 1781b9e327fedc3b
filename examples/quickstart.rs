//! Quickstart: pick the optimal materialization configuration for one
//! query on one cluster, and explain the decision.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

fn main() {
    // 1. Build TPC-H Q5 at scale factor 100 with the calibrated cost
    //    model (≈ 15-minute baseline on 10 nodes, as in the paper).
    let cost_model = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cost_model);
    println!("Q5 @ SF 100: {} operators, {} free", plan.len(), plan.free_count());
    println!(
        "baseline runtime (no failures, no checkpoints): {:.0} s\n",
        baseline_runtime(&plan, 1.0)
    );

    // 2. Describe the cluster: 10 nodes, each failing on average once an
    //    hour, 1 s to redeploy a failed sub-plan.
    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
    let params = Scheme::cost_params(&cluster);

    // 3. Run the cost-based search (Listing 1 of the paper) with all
    //    pruning rules.
    let (best, stats) =
        find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
            .expect("valid plan and parameters");

    println!("cost-based fault-tolerant plan:");
    for id in plan.op_ids() {
        let op = plan.op(id);
        let mark = if best.config.materializes(id) {
            "MATERIALIZE"
        } else if op.is_free() {
            "pipeline"
        } else {
            "(bound)"
        };
        println!("  {:<24} tr={:7.1}s tm={:7.1}s  {}", op.name, op.run_cost, op.mat_cost, mark);
    }
    println!(
        "\nestimated runtime under failures: {:.0} s (dominant path of {} collapsed ops)",
        best.estimate.dominant_cost,
        best.estimate.dominant_path.len()
    );
    println!(
        "search: {} of {} configurations enumerated, {} paths costed",
        stats.configs_enumerated, stats.configs_unpruned, stats.paths_costed
    );

    // 4. Validate the choice against the discrete-event simulator: replay
    //    the same failure traces under all four schemes.
    println!("\nsimulated overhead over 10 failure traces (MTBF = 1 h/node):");
    let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
    let traces = TraceSet::generate(&cluster, horizon, 10, 42);
    for run in run_all_schemes(&plan, &cluster, &traces, &SimOptions::default()).unwrap() {
        match run.mean_overhead_pct() {
            Some(oh) => println!("  {:<18} {:6.1} %", run.scheme.name(), oh),
            None => println!("  {:<18} aborted", run.scheme.name()),
        }
    }
}
