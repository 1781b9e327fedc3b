//! Overhead metrics and multi-trace experiment execution.
//!
//! The paper reports, for every scheme, the *overhead*: the ratio of the
//! runtime under the scheme (materialization costs plus recovery costs
//! under injected failures) over the baseline (pure runtime, no extra
//! materializations, no failures), minus one, in percent (§5.2). Each
//! measurement averages ten failure traces; the same traces are replayed
//! against every scheme.

use serde::{Deserialize, Serialize};

use ftpde_cluster::config::{ClusterConfig, Seconds};
use ftpde_cluster::trace::TraceSet;
use ftpde_core::config::MatConfig;
use ftpde_core::dag::PlanDag;
use ftpde_core::error::{CoreError, Result};

use crate::scheme::Scheme;
use crate::simulate::{baseline_runtime, simulate, SimOptions, SimResult};

/// Overhead in percent of `completion` over `baseline`:
/// `(completion / baseline − 1) · 100`.
///
/// # Errors
/// [`CoreError::InvalidParameter`] if `baseline` is not strictly positive
/// (a zero or negative baseline makes the ratio meaningless).
pub fn overhead_pct(completion: Seconds, baseline: Seconds) -> Result<f64> {
    if baseline.is_nan() || baseline <= 0.0 {
        return Err(CoreError::InvalidParameter { what: "baseline runtime", value: baseline });
    }
    Ok((completion / baseline - 1.0) * 100.0)
}

/// Result of running one scheme over a trace set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeRun {
    /// The scheme that was executed.
    pub scheme: Scheme,
    /// The materialization configuration the scheme selected.
    pub config: MatConfig,
    /// Baseline runtime (no materialization, no failures), seconds.
    pub baseline: Seconds,
    /// Per-trace simulation results.
    pub runs: Vec<SimResult>,
}

impl SchemeRun {
    /// Mean overhead in percent over the **completed** (non-aborted) runs;
    /// `None` if every run aborted — the paper prints "Aborted" then — or
    /// if the baseline is invalid (not strictly positive).
    pub fn mean_overhead_pct(&self) -> Option<f64> {
        let completed: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| !r.aborted)
            .filter_map(|r| overhead_pct(r.completion, self.baseline).ok())
            .collect();
        if completed.is_empty() {
            None
        } else {
            Some(completed.iter().sum::<f64>() / completed.len() as f64)
        }
    }

    /// `true` iff at least one trace led to an abort.
    pub fn any_aborted(&self) -> bool {
        self.runs.iter().any(|r| r.aborted)
    }

    /// `true` iff every trace led to an abort.
    pub fn all_aborted(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.aborted)
    }

    /// Mean completion time over completed runs, seconds.
    pub fn mean_completion(&self) -> Option<Seconds> {
        let completed: Vec<f64> =
            self.runs.iter().filter(|r| !r.aborted).map(|r| r.completion).collect();
        if completed.is_empty() {
            None
        } else {
            Some(completed.iter().sum::<f64>() / completed.len() as f64)
        }
    }

    /// `true` iff any run outran its trace's populated horizon (results
    /// would then be optimistic; enlarge the horizon and re-run).
    pub fn any_horizon_exceeded(&self) -> bool {
        self.runs.iter().any(|r| r.horizon_exceeded)
    }
}

/// Runs `scheme` on `plan` over every trace in `traces` and collects the
/// results. The scheme selects its materialization configuration once (as
/// the paper's optimizer does, using the cluster statistics), then replays
/// each trace.
///
/// # Errors
/// [`CoreError::InvalidParameter`] if a trace's node count or the length
/// of `opts.skew` differs from `cluster.nodes`; otherwise propagates
/// configuration-selection errors (cost-based scheme only).
pub fn run_scheme(
    plan: &PlanDag,
    scheme: Scheme,
    cluster: &ClusterConfig,
    traces: &TraceSet,
    opts: &SimOptions,
) -> Result<SchemeRun> {
    let counts = traces
        .iter()
        .map(|t| ("trace node count", t.nodes()))
        .chain(opts.skew.as_ref().map(|f| ("skew factor count", f.len())));
    for (what, n) in counts {
        if n != cluster.nodes {
            return Err(CoreError::InvalidParameter { what, value: n as f64 });
        }
    }
    let config = scheme.select_config(plan, cluster)?;
    let baseline = baseline_runtime(plan, opts.pipe_const);
    let runs = traces
        .iter()
        .map(|trace| simulate(plan, &config, scheme.recovery(), cluster, trace, opts))
        .collect();
    Ok(SchemeRun { scheme, config, baseline, runs })
}

/// Runs all four schemes over the same trace set (paired comparison, as in
/// the paper) and returns them in [`Scheme::ALL`] order.
pub fn run_all_schemes(
    plan: &PlanDag,
    cluster: &ClusterConfig,
    traces: &TraceSet,
    opts: &SimOptions,
) -> Result<Vec<SchemeRun>> {
    Scheme::ALL.iter().map(|&s| run_scheme(plan, s, cluster, traces, opts)).collect()
}

/// A generous trace horizon for simulating `plan` on `cluster`: covers the
/// coarse-restart worst case (`max_restarts` windows separated by cluster
/// failures) plus ample fine-grained retry slack.
pub fn suggested_horizon(plan: &PlanDag, cluster: &ClusterConfig, opts: &SimOptions) -> Seconds {
    let all_mat =
        crate::simulate::failure_free_makespan(plan, &MatConfig::all(plan), opts.pipe_const);
    let restart_worst =
        (opts.max_restarts as f64 + 2.0) * (all_mat + cluster.mttr + cluster.cluster_mtbf());
    let fine_worst = 400.0 * (all_mat + cluster.mttr);
    restart_worst.max(fine_worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_cluster::config::mtbf;
    use ftpde_core::dag::figure2_plan;

    fn scaled_figure2(factor: f64) -> PlanDag {
        let mut p = figure2_plan();
        for id in p.op_ids().collect::<Vec<_>>() {
            p.op_mut(id).run_cost *= factor;
            p.op_mut(id).mat_cost *= factor;
        }
        p
    }

    #[test]
    fn overhead_formula() {
        assert_eq!(overhead_pct(150.0, 100.0).unwrap(), 50.0);
        assert_eq!(overhead_pct(100.0, 100.0).unwrap(), 0.0);
        assert!((overhead_pct(905.33, 905.33).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn zero_or_negative_baseline_errors() {
        for baseline in [0.0, -1.0, f64::NAN] {
            match overhead_pct(1.0, baseline) {
                Err(CoreError::InvalidParameter { what: "baseline runtime", .. }) => {}
                other => panic!("baseline {baseline}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_baseline_yields_no_mean_overhead() {
        let run = SchemeRun {
            scheme: Scheme::AllMat,
            config: MatConfig::none(&figure2_plan()),
            baseline: 0.0,
            runs: vec![SimResult {
                completion: 10.0,
                restarts: 0,
                node_retries: 0,
                aborted: false,
                horizon_exceeded: false,
                recovery_seconds: 0.0,
            }],
        };
        assert_eq!(run.mean_overhead_pct(), None);
    }

    #[test]
    fn node_count_mismatches_are_errors() {
        let plan = figure2_plan();
        let cluster = ClusterConfig::new(3, mtbf::DAY, 1.0);
        let short = ClusterConfig::new(2, mtbf::DAY, 1.0);
        let traces = TraceSet::generate(&short, 1e6, 2, 1);
        let opts = SimOptions::default();
        let err = run_all_schemes(&plan, &cluster, &traces, &opts).unwrap_err();
        assert_eq!(err, CoreError::InvalidParameter { what: "trace node count", value: 2.0 });
        let traces = TraceSet::generate(&cluster, 1e6, 2, 1);
        let skewed = SimOptions::default().with_skew(vec![1.0; 4]);
        let err = run_scheme(&plan, Scheme::AllMat, &cluster, &traces, &skewed).unwrap_err();
        assert_eq!(err, CoreError::InvalidParameter { what: "skew factor count", value: 4.0 });
        assert!(run_all_schemes(&plan, &cluster, &traces, &opts).is_ok());
    }

    #[test]
    fn reliable_cluster_all_schemes_close_to_baseline_except_all_mat() {
        // Scale the toy plan to ~minutes so MTTR is negligible.
        let plan = scaled_figure2(60.0);
        let cluster = ClusterConfig::paper_cluster(mtbf::WEEK);
        let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
        let traces = TraceSet::generate(&cluster, horizon, 10, 7);
        let runs = run_all_schemes(&plan, &cluster, &traces, &SimOptions::default()).unwrap();
        let oh: Vec<f64> = runs.iter().map(|r| r.mean_overhead_pct().unwrap()).collect();
        // all-mat pays its materialization tax even without failures...
        assert!(oh[0] > 5.0, "all-mat overhead {}", oh[0]);
        // ...while both no-mat schemes and cost-based stay near zero.
        assert!(oh[1] < 5.0, "lineage overhead {}", oh[1]);
        assert!(oh[2] < 5.0, "restart overhead {}", oh[2]);
        assert!(oh[3] < 5.0, "cost-based overhead {}", oh[3]);
    }

    #[test]
    fn unreliable_cluster_cost_based_beats_or_matches_everyone() {
        let plan = scaled_figure2(240.0); // ~31 min baseline
        let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
        let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
        let traces = TraceSet::generate(&cluster, horizon, 10, 11);
        let runs = run_all_schemes(&plan, &cluster, &traces, &SimOptions::default()).unwrap();
        let cost_based = runs[3].mean_overhead_pct().unwrap();
        for r in &runs[..3] {
            if let Some(o) = r.mean_overhead_pct() {
                assert!(
                    cost_based <= o * 1.15 + 5.0,
                    "{} = {o:.1}% vs cost-based {cost_based:.1}%",
                    r.scheme
                );
            } // None = aborted scheme, which clearly loses
        }
    }

    #[test]
    fn restart_scheme_aborts_on_hopeless_clusters() {
        // Query of ~31 min on a cluster failing every ~36 s somewhere.
        let plan = scaled_figure2(240.0);
        let cluster = ClusterConfig::paper_cluster(360.0);
        let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
        let traces = TraceSet::generate(&cluster, horizon, 5, 3);
        let run =
            run_scheme(&plan, Scheme::NoMatRestart, &cluster, &traces, &SimOptions::default())
                .unwrap();
        assert!(run.all_aborted());
        assert_eq!(run.mean_overhead_pct(), None);
    }

    #[test]
    fn paired_traces_across_schemes() {
        let plan = scaled_figure2(60.0);
        let cluster = ClusterConfig::paper_cluster(mtbf::DAY);
        let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
        let traces = TraceSet::generate(&cluster, horizon, 10, 5);
        let a =
            run_scheme(&plan, Scheme::AllMat, &cluster, &traces, &SimOptions::default()).unwrap();
        let b =
            run_scheme(&plan, Scheme::AllMat, &cluster, &traces, &SimOptions::default()).unwrap();
        assert_eq!(a, b, "same traces, same scheme → identical results");
    }

    #[test]
    fn horizon_is_sufficient_for_experiments() {
        let plan = scaled_figure2(240.0);
        let cluster = ClusterConfig::paper_cluster(mtbf::HOUR);
        let opts = SimOptions::default();
        let horizon = suggested_horizon(&plan, &cluster, &opts);
        let traces = TraceSet::generate(&cluster, horizon, 10, 13);
        for run in run_all_schemes(&plan, &cluster, &traces, &opts).unwrap() {
            assert!(
                !run.any_horizon_exceeded() || run.any_aborted(),
                "{} exceeded horizon",
                run.scheme
            );
        }
    }
}
