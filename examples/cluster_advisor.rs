//! The Figure 1 scenario: the *same* query on four very different cluster
//! setups — from a large spot-instance fleet failing constantly to a small
//! reliable appliance. The advisor prints the success probability of a
//! single attempt, the configuration the cost-based optimizer picks, and
//! the estimated runtime under failures for each setup.
//!
//! ```text
//! cargo run --example cluster_advisor
//! ```

use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::sim::prelude::*;
use ftpde::tpch::prelude::*;

fn main() {
    let cost_model = CostModel::xdb_calibrated();
    let plan = Query::Q5.plan(100.0, &cost_model);
    let baseline = baseline_runtime(&plan, 1.0);
    println!(
        "query: TPC-H Q5 @ SF 100 — baseline {:.0} s ({:.1} min)\n",
        baseline,
        baseline / 60.0
    );

    for (label, cluster) in figure1_clusters() {
        // The optimizer models failures per executing node; Figure 1's
        // large setups simply run the query on more nodes.
        let p_success = success_probability(&cluster, baseline);
        let params = Scheme::cost_params(&cluster);
        let (best, _) =
            find_best_ft_plan(std::slice::from_ref(&plan), &params, &PruneOptions::default())
                .expect("valid plan");
        let checkpoints: Vec<String> =
            best.config.materialized_ops().into_iter().map(|id| plan.op(id).name.clone()).collect();
        println!("{label}");
        println!("  P(one attempt succeeds) = {:.1} %", p_success * 100.0);
        println!(
            "  cost-based choice: {}",
            if checkpoints.is_empty() {
                "pipeline everything".to_string()
            } else {
                format!("materialize {}", checkpoints.join(", "))
            }
        );
        println!(
            "  estimated runtime under failures: {:.0} s ({:+.1} % over baseline)\n",
            best.estimate.dominant_cost,
            (best.estimate.dominant_cost / baseline - 1.0) * 100.0
        );
    }

    println!("The sweet spot moves exactly as the paper's Figure 1 suggests: the");
    println!("lower the cluster's MTBF (and the larger the query), the more");
    println!("intermediates the cost-based scheme checkpoints.");
}
