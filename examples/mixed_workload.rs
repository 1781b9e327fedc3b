//! The paper's motivating scenario (§1): a mixed analytical workload with
//! runtimes from seconds to hours. No static fault-tolerance scheme fits
//! all of it — short interactive queries suffer under Hadoop-style
//! all-materialization, long batch queries die under restart-based
//! recovery — while the cost-based scheme finds each query's sweet spot.
//!
//! ```text
//! cargo run --example mixed_workload
//! ```

use ftpde::cluster::prelude::*;
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

fn main() {
    let cost_model = CostModel::xdb_calibrated();
    let cluster = ClusterConfig::paper_cluster(mtbf::DAY);

    // The same query shape at very different data sizes: an interactive
    // drill-down (SF 1, seconds), a reporting query (SF 100, minutes) and
    // an overnight batch aggregation (SF 1000, hours).
    let workload =
        [("interactive (SF 1)", 1.0), ("reporting (SF 100)", 100.0), ("batch (SF 1000)", 1000.0)];

    println!(
        "{:<22} {:>9}  {:>11} {:>11} {:>11} {:>11}   chosen checkpoints",
        "query", "baseline", "all-mat", "lineage", "restart", "cost-based"
    );
    for (i, (label, sf)) in workload.into_iter().enumerate() {
        let plan = q5_plan(sf, &cost_model);
        let baseline = baseline_runtime(&plan, 1.0);
        let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
        let traces = TraceSet::generate(&cluster, horizon, 10, 7 + i as u64);
        let runs = run_all_schemes(&plan, &cluster, &traces, &SimOptions::default()).unwrap();

        let cells: Vec<String> = runs
            .iter()
            .map(|r| match r.mean_overhead_pct() {
                Some(oh) => format!("{oh:9.1} %"),
                None => "  aborted".to_string(),
            })
            .collect();
        let chosen = &runs[3].config; // cost-based
        let checkpoints: Vec<String> =
            chosen.materialized_ops().into_iter().map(|id| plan.op(id).name.clone()).collect();
        println!(
            "{:<22} {:>8.0}s  {} {} {} {}   {}",
            label,
            baseline,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            if checkpoints.is_empty() { "(none)".to_string() } else { checkpoints.join(", ") }
        );
    }

    println!();
    println!("Reading the table:");
    println!(" * all-mat taxes the short query with materialization it never needs;");
    println!(" * restart-based recovery collapses as runtime approaches the cluster MTBF;");
    println!(" * the cost-based scheme adapts: no checkpoints while failures are unlikely,");
    println!("   checkpoints at the cheap intermediates once the query runs long enough.");
}
