//! Watch a query live through failures: simulate TPC-H Q5 on an
//! unreliable cluster with the cost-based configuration and print the
//! recorded timeline as JSONL — node failures, stage spans, restarts and
//! the terminal event — for both a fine-grained and a restart-based run on
//! the *same* failure trace.
//!
//! ```text
//! cargo run --example failure_timeline
//! ```

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::obs::{export, MemoryRecorder};
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

fn main() {
    let cost_model = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cost_model);
    let cluster = ClusterConfig::paper_cluster(mtbf::HOUR / 2.0); // 30-minute MTBF
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, ..Default::default() };
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let trace = FailureTrace::generate(&cluster, horizon, 2026);
    println!(
        "Q5 @ SF 100 (baseline {:.0} s) on 10 nodes with MTBF = 30 min/node",
        baseline_runtime(&plan, 1.0)
    );
    println!("failure trace #{}: {} failures within the horizon\n", 2026, trace.total_failures());

    // The cost-based configuration for this cluster.
    let config = Scheme::CostBased.select_config(&plan, &cluster).expect("valid plan");
    let checkpoints: Vec<&str> =
        config.materialized_ops().into_iter().map(|id| plan.op(id).name.as_str()).collect();
    println!(
        "cost-based checkpoints: {}\n",
        if checkpoints.is_empty() { "(none)".into() } else { checkpoints.join(", ") }
    );

    println!("--- fine-grained recovery (cost-based config) ---");
    let r = simulate(&plan, &config, Recovery::FineGrained, &cluster, &trace, &opts);
    print!("{}", export::to_jsonl(&rec.take()));
    println!("=> completed in {:.0} s after {} node-level retries\n", r.completion, r.node_retries);

    println!("--- coarse restart (no-mat), same trace ---");
    let none = MatConfig::none(&plan);
    let r2 = simulate(&plan, &none, Recovery::CoarseRestart, &cluster, &trace, &opts);
    // The restart log can be long; show the first and last few events.
    let rendered = export::to_jsonl(&rec.take());
    let lines: Vec<&str> = rendered.lines().collect();
    if lines.len() > 14 {
        for l in &lines[..7] {
            println!("{l}");
        }
        println!("  ... {} more events ...", lines.len() - 14);
        for l in &lines[lines.len() - 7..] {
            println!("{l}");
        }
    } else {
        print!("{rendered}");
    }
    if r2.aborted {
        println!("=> ABORTED after {} restarts", r2.restarts);
    } else {
        println!(
            "=> completed in {:.0} s after {} whole-query restarts",
            r2.completion, r2.restarts
        );
    }
    println!(
        "\nSame failures, same query: fine-grained recovery with cost-based \
         checkpoints finished {:.1}x sooner.",
        r2.completion / r.completion
    );
}
