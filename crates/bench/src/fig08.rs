//! **Figure 8** — overhead of the four fault-tolerance schemes for the
//! five evaluation queries (Q1, Q3, Q5, Q1C, Q2C) at SF = 100 under
//! (a) a low per-node MTBF (1.1× the query's baseline runtime) and
//! (b) a high per-node MTBF (10× the baseline runtime).

use ftpde_cluster::config::ClusterConfig;
use ftpde_sim::scheme::Scheme;
use ftpde_sim::simulate::baseline_runtime;
use ftpde_tpch::costing::CostModel;
use ftpde_tpch::queries::Query;

use crate::common::{scheme_overheads, TRACES};
use crate::report;

/// Scale factor of the experiment (paper: SF = 100).
pub const SF: f64 = 100.0;

/// One query's measurements under one MTBF setting.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// The query.
    pub query: Query,
    /// Its failure-free baseline runtime, seconds.
    pub baseline: f64,
    /// Overhead per scheme in [`Scheme::ALL`] order (`None` = aborted).
    pub overheads: Vec<Option<f64>>,
}

/// The figure's two panels.
#[derive(Debug, Clone)]
pub struct Figure8 {
    /// Panel (a): MTBF per node = 1.1 × baseline.
    pub low_mtbf: Vec<QueryRow>,
    /// Panel (b): MTBF per node = 10 × baseline.
    pub high_mtbf: Vec<QueryRow>,
}

fn panel(mtbf_factor: f64, seed: u64) -> Vec<QueryRow> {
    let cm = CostModel::xdb_calibrated();
    Query::ALL
        .iter()
        .map(|&query| {
            let plan = query.plan(SF, &cm);
            let baseline = baseline_runtime(&plan, 1.0);
            let cluster = ClusterConfig::paper_cluster(mtbf_factor * baseline);
            let overheads = scheme_overheads(&plan, &cluster, TRACES, seed)
                .into_iter()
                .map(|(_, oh)| oh)
                .collect();
            QueryRow { query, baseline, overheads }
        })
        .collect()
}

/// Runs both panels.
pub fn run() -> Figure8 {
    Figure8 { low_mtbf: panel(1.1, 801), high_mtbf: panel(10.0, 802) }
}

/// Prints the figure as two tables.
pub fn print(fig: &Figure8) {
    for (label, rows) in [
        ("(a) Low MTBF (1.1x runtime)", &fig.low_mtbf),
        ("(b) High MTBF (10x runtime)", &fig.high_mtbf),
    ] {
        report::banner(&format!("Figure 8{label}: Varying Queries, SF=100, overhead in %"));
        let mut headers = vec!["query", "baseline"];
        headers.extend(Scheme::ALL.iter().map(Scheme::name));
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut row = vec![r.query.name().to_string(), report::secs(r.baseline)];
                row.extend(r.overheads.iter().map(|o| report::overhead_cell(*o)));
                row
            })
            .collect();
        report::table(&headers, &table_rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheaper single-query version of the shape checks (the full
    /// five-query figure runs in the bench harness).
    fn mini_panel(query: Query, mtbf_factor: f64) -> QueryRow {
        let cm = CostModel::xdb_calibrated();
        let plan = query.plan(SF, &cm);
        let baseline = baseline_runtime(&plan, 1.0);
        let cluster = ClusterConfig::paper_cluster(mtbf_factor * baseline);
        let overheads =
            scheme_overheads(&plan, &cluster, 5, 99).into_iter().map(|(_, oh)| oh).collect();
        QueryRow { query, baseline, overheads }
    }

    #[test]
    fn low_mtbf_restart_aborts_and_cost_based_wins() {
        let row = mini_panel(Query::Q5, 1.1);
        let [all_mat, lineage, restart, cost_based] = row.overheads[..] else { panic!() };
        assert_eq!(restart, None, "no-mat (restart) aborts at low MTBF (paper: Aborted)");
        let cb = cost_based.expect("cost-based always finishes");
        // Cost-based is at least as good (within noise) as the best other
        // finishing scheme.
        for other in [all_mat, lineage].into_iter().flatten() {
            assert!(cb <= other * 1.25 + 10.0, "cost-based {cb:.0}% vs other {other:.0}%");
        }
    }

    #[test]
    fn high_mtbf_all_mat_pays_materialization_tax_on_q1c() {
        let row = mini_panel(Query::Q1C, 10.0);
        let [all_mat, lineage, _restart, cost_based] = row.overheads[..] else { panic!() };
        let (am, cb) = (all_mat.unwrap(), cost_based.unwrap());
        // Paper Figure 8b: Q1C all-mat 85% vs cost-based 23% — the
        // mid-plan aggregation checkpoint avoids the big materializations.
        assert!(am > cb + 10.0, "all-mat {am:.0}% must exceed cost-based {cb:.0}%");
        let lin = lineage.unwrap();
        assert!(cb <= lin + 5.0, "cost-based {cb:.0}% beats/matches lineage {lin:.0}%");
    }

    #[test]
    fn q1_schemes_are_indistinguishable_except_restart() {
        // Q1 has no free operator: all-mat == lineage == cost-based.
        let row = mini_panel(Query::Q1, 1.1);
        let [all_mat, lineage, _restart, cost_based] = row.overheads[..] else { panic!() };
        let (a, l, c) = (all_mat.unwrap(), lineage.unwrap(), cost_based.unwrap());
        assert!((a - l).abs() < 1e-9 && (l - c).abs() < 1e-9, "{a} {l} {c}");
    }
}
