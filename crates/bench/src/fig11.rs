//! **Figure 11** — overhead of the four schemes for TPC-H Q5 at SF = 100
//! (≈ 15-minute baseline) on three cluster setups: MTBF per node of one
//! week (cluster A), one day (cluster B) and one hour (cluster C).

use ftpde_cluster::config::{mtbf, ClusterConfig};
use ftpde_sim::scheme::Scheme;
use ftpde_sim::simulate::baseline_runtime;
use ftpde_tpch::costing::CostModel;
use ftpde_tpch::queries::q5_plan;

use crate::common::{scheme_overheads, TRACES};
use crate::report;

/// The clusters of the figure.
pub const CLUSTERS: [(&str, f64); 3] = [
    ("Cluster A (10 nodes, MTBF=1 week)", mtbf::WEEK),
    ("Cluster B (10 nodes, MTBF=1 day)", mtbf::DAY),
    ("Cluster C (10 nodes, MTBF=1 hour)", mtbf::HOUR),
];

/// One cluster's overheads.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// The cluster label.
    pub label: &'static str,
    /// Overheads per scheme in [`Scheme::ALL`] order.
    pub overheads: Vec<Option<f64>>,
}

/// Runs the experiment; also returns the baseline runtime.
pub fn run() -> (f64, Vec<ClusterRow>) {
    let cm = CostModel::xdb_calibrated();
    let plan = q5_plan(100.0, &cm);
    let baseline = baseline_runtime(&plan, 1.0);
    let rows = CLUSTERS
        .iter()
        .enumerate()
        .map(|(i, &(label, m))| {
            let cluster = ClusterConfig::paper_cluster(m);
            let overheads = scheme_overheads(&plan, &cluster, TRACES, 1100 + i as u64)
                .into_iter()
                .map(|(_, oh)| oh)
                .collect();
            ClusterRow { label, overheads }
        })
        .collect();
    (baseline, rows)
}

/// Prints the figure.
pub fn print(baseline: f64, rows: &[ClusterRow]) {
    report::banner(&format!(
        "Figure 11: Varying MTBF (Q5, SF=100, baseline = {} — paper: 905.33s)",
        report::secs(baseline)
    ));
    let mut headers = vec!["cluster"];
    headers.extend(Scheme::ALL.iter().map(Scheme::name));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.label.to_string()];
            row.extend(r.overheads.iter().map(|o| report::overhead_cell(*o)));
            row
        })
        .collect();
    report::table(&headers, &table_rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_shape_claims() {
        let (baseline, rows) = run();
        assert!((baseline - 905.33).abs() < 100.0, "baseline = {baseline}");

        // Cluster A (1 week): failures are rare — both no-mat schemes and
        // cost-based near 0, all-mat pays ~34% (paper: 34.13/0/0/0).
        let a = &rows[0].overheads;
        assert!(a[0].unwrap() > 20.0, "all-mat: {:?}", a[0]);
        assert!(a[1].unwrap() < 10.0, "lineage: {:?}", a[1]);
        assert!(a[2].unwrap() < 10.0, "restart: {:?}", a[2]);
        assert!(a[3].unwrap() < 10.0, "cost-based: {:?}", a[3]);

        // Cluster C (1 hour): restart is by far the worst (paper: 231.8%),
        // and cost-based has the lowest overhead of all schemes.
        let c = &rows[2].overheads;
        let cb = c[3].unwrap();
        if let Some(restart) = c[2] {
            assert!(restart > 2.0 * cb, "restart {restart} vs cb {cb}");
        } // None = aborted: even stronger
        for other in [c[0], c[1]].into_iter().flatten() {
            assert!(cb <= other * 1.2 + 8.0, "cost-based {cb} vs {other}");
        }

        // Monotonicity: every scheme's overhead grows as MTBF shrinks.
        for s in 0..4 {
            let vals: Vec<f64> =
                rows.iter().map(|r| r.overheads[s].unwrap_or(f64::INFINITY)).collect();
            assert!(
                vals[0] <= vals[1] * 1.2 + 6.0 && vals[1] <= vals[2] * 1.2 + 6.0,
                "scheme {s}: {vals:?}"
            );
        }
    }
}
