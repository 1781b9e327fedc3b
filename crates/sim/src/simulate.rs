//! Virtual-time execution of fault-tolerant plans against failure traces.
//!
//! The simulator mirrors the execution model of the paper's XDB setup
//! (§5.1): a plan is split into collapsed sub-plans at its materialization
//! points; each collapsed operator runs partition-parallel on all cluster
//! nodes and is a blocking barrier (consumers start only after its output
//! is fully materialized). A node failure during execution loses that
//! node's progress on its current sub-plan; after the mean time to repair
//! the sub-plan is redeployed on the node and re-executed from its inputs
//! (fine-grained recovery) — or, for the coarse `no-mat (restart)` scheme,
//! the whole query starts over.
//!
//! Simplifications follow the paper's footnote 6: per-partition durations
//! are uniform (no skew), concurrent collapsed operators do not contend
//! for resources, and materialized intermediates survive failures (§2.2).

use serde::{Deserialize, Serialize};

use ftpde_cluster::config::{ClusterConfig, Seconds};
use ftpde_cluster::trace::FailureTrace;
use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::cost::EstimateBreakdown;
use ftpde_core::dag::PlanDag;
use ftpde_obs::{Event, NoopRecorder, Recorder};

use crate::scheme::Recovery;

/// Tunables of the simulator, and where its timeline goes.
#[derive(Clone)]
pub struct SimOptions<'a> {
    /// `CONST_pipe` used when collapsing the plan (Eq. 1); the paper's
    /// calibrated value is 1.0.
    pub pipe_const: f64,
    /// Coarse restarts after which the query is aborted; the paper aborts
    /// after 100 restarts (§5.2).
    pub max_restarts: u32,
    /// **Mid-operator checkpointing** (the paper's §7 future work): when
    /// set, every collapsed operator checkpoints its internal state every
    /// `interval` seconds, and a node failure only loses the progress
    /// since the node's last checkpoint instead of the whole sub-plan.
    /// Each checkpoint costs [`SimOptions::mid_op_checkpoint_cost`]
    /// seconds of extra runtime. Only affects fine-grained recovery.
    pub mid_op_checkpoint: Option<f64>,
    /// Cost of writing one mid-operator checkpoint, in seconds.
    pub mid_op_checkpoint_cost: f64,
    /// **Per-node skew** (the paper's §7 future work): multiplicative
    /// factors on each node's share of every operator (1.0 = uniform).
    /// Must have one entry per cluster node when set. Operator completion
    /// remains the max over nodes, so skew stretches the straggler.
    pub skew: Option<Vec<f64>>,
    /// Receives the run's `"sim"` events, stamped in *simulated*
    /// microseconds, in the engine's vocabulary: a `stage {root}` span
    /// per collapsed stage (tid 0), a `node_failure` instant per failure
    /// (tid = node + 1), a `query_restart` instant per coarse restart and
    /// a terminal `query_completed` or `query_aborted`. The default
    /// [`NoopRecorder`] builds no event at all.
    pub rec: &'a dyn Recorder,
    /// The cost model's estimate of this plan
    /// ([`ftpde_core::cost::FtEstimate::breakdown`]): tags each stage span
    /// with its predicted costs (by root operator id) and opens the trace
    /// with a `plan_estimate` instant, so the trace is self-contained for
    /// calibration ([`ftpde_obs::CalibrationReport`]).
    pub pred: Option<&'a EstimateBreakdown>,
}

impl Default for SimOptions<'_> {
    fn default() -> Self {
        SimOptions {
            pipe_const: 1.0,
            max_restarts: 100,
            mid_op_checkpoint: None,
            mid_op_checkpoint_cost: 0.0,
            skew: None,
            rec: &NoopRecorder,
            pred: None,
        }
    }
}

impl SimOptions<'_> {
    /// Enables mid-operator checkpointing every `interval` seconds at
    /// `cost` seconds per checkpoint.
    pub fn with_mid_op_checkpoints(mut self, interval: f64, cost: f64) -> Self {
        assert!(interval > 0.0 && cost >= 0.0);
        self.mid_op_checkpoint = Some(interval);
        self.mid_op_checkpoint_cost = cost;
        self
    }

    /// Sets per-node skew factors.
    pub fn with_skew(mut self, factors: Vec<f64>) -> Self {
        assert!(factors.iter().all(|&f| f > 0.0));
        self.skew = Some(factors);
        self
    }

    /// The duration of one node's share of a collapsed operator with
    /// nominal duration `dur`, including skew and checkpoint overhead.
    fn node_duration(&self, dur: f64, node: usize) -> f64 {
        let skewed = match &self.skew {
            Some(f) => dur * f[node],
            None => dur,
        };
        match self.mid_op_checkpoint {
            Some(interval) => {
                // Checkpoints strictly inside the work interval — one at
                // the very end would protect nothing.
                let checkpoints = ((skewed / interval).ceil() - 1.0).max(0.0);
                skewed + checkpoints * self.mid_op_checkpoint_cost
            }
            None => skewed,
        }
    }
}

/// Outcome of one simulated query execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Virtual completion time of the query, in seconds. For aborted runs
    /// this is the time at which the abort was declared.
    pub completion: Seconds,
    /// Coarse whole-query restarts (only the `no-mat (restart)` scheme
    /// produces these), counting the failure that aborted the run.
    pub restarts: u32,
    /// Fine-grained per-node sub-plan re-executions.
    pub node_retries: u64,
    /// `true` iff the query hit the restart limit and was aborted.
    pub aborted: bool,
    /// `true` iff simulated time ran past the trace's populated horizon —
    /// the tail of the run then saw no failures, so the result may be
    /// optimistic and the caller should regenerate with a longer horizon.
    pub horizon_exceeded: bool,
    /// Total recovery time charged to failures: for every node failure the
    /// repair window plus the re-executed (lost) work, and for every
    /// coarse restart the repair window plus the discarded attempt. This
    /// sums *serial* per-failure costs; since recovery on different nodes
    /// overlaps in wall-clock time it can exceed
    /// `completion - failure_free_makespan`.
    pub recovery_seconds: Seconds,
}

/// Failure-free makespan of `plan` under `config`: the critical-path
/// completion time of the collapsed plan including materialization costs
/// of materialized operators.
pub fn failure_free_makespan(plan: &PlanDag, config: &MatConfig, pipe_const: f64) -> Seconds {
    let pc = CollapsedPlan::collapse(plan, config, pipe_const);
    let mut completion = vec![0.0f64; pc.len()];
    let mut makespan: f64 = 0.0;
    for id in pc.op_ids() {
        let start = pc.inputs(id).iter().map(|i| completion[i.index()]).fold(0.0f64, f64::max);
        completion[id.index()] = start + pc.op(id).total_cost();
        makespan = makespan.max(completion[id.index()]);
    }
    makespan
}

/// The paper's baseline: pure query runtime with **no** extra
/// materializations and no failures (the denominator of every reported
/// overhead).
pub fn baseline_runtime(plan: &PlanDag, pipe_const: f64) -> Seconds {
    failure_free_makespan(plan, &MatConfig::none(plan), pipe_const)
}

/// Converts a simulated-seconds timestamp to the microsecond unit of the
/// observability layer.
fn sim_us(at: Seconds) -> u64 {
    (at.max(0.0) * 1e6).round() as u64
}

/// Simulates one execution of the fault-tolerant plan `[plan, config]` on
/// `cluster` against `trace`, recording its timeline into `opts.rec`.
///
/// Events are recorded as the simulation reaches them — by stage, then by
/// node within a stage — so a stage's `node_failure` instants precede its
/// span, as the engine's worker facts precede its stage span. `trace` and
/// `opts.skew` must cover exactly `cluster.nodes` nodes
/// ([`run_scheme`](crate::metrics::run_scheme) checks this).
pub fn simulate(
    plan: &PlanDag,
    config: &MatConfig,
    recovery: Recovery,
    cluster: &ClusterConfig,
    trace: &FailureTrace,
    opts: &SimOptions,
) -> SimResult {
    debug_assert_eq!(trace.nodes(), cluster.nodes);
    if let Some(p) = opts.pred {
        opts.rec.record_with(|| {
            Event::instant("plan_estimate", "sim", 0)
                .arg("pred_cost_s", p.dominant_cost)
                .arg("pred_runtime_s", p.dominant_runtime)
        });
    }
    let result = match recovery {
        Recovery::FineGrained => simulate_fine_grained(plan, config, cluster, trace, opts),
        Recovery::CoarseRestart => simulate_coarse_restart(plan, config, cluster, trace, opts),
    };
    opts.rec.record_with(|| {
        let at = sim_us(result.completion);
        if result.aborted {
            Event::instant("query_aborted", "sim", at).arg("restarts", result.restarts)
        } else {
            Event::instant("query_completed", "sim", at)
                .arg("node_retries", result.node_retries)
                .arg("query_restarts", result.restarts)
        }
    });
    result
}

fn simulate_fine_grained(
    plan: &PlanDag,
    config: &MatConfig,
    cluster: &ClusterConfig,
    trace: &FailureTrace,
    opts: &SimOptions,
) -> SimResult {
    let pc = CollapsedPlan::collapse(plan, config, opts.pipe_const);
    let mut completion = vec![0.0f64; pc.len()];
    let mut node_retries = 0u64;
    let mut horizon_exceeded = false;
    let mut query_end: f64 = 0.0;
    let mut recovery_seconds = 0.0f64;

    for id in pc.op_ids() {
        let start = pc.inputs(id).iter().map(|i| completion[i.index()]).fold(0.0f64, f64::max);
        let dur = pc.op(id).total_cost();
        // Stages are named by their root operator, as the engine names them.
        let stage = pc.op(id).root.0;
        let mut op_end = start; // zero-duration operators finish instantly
        for node in 0..cluster.nodes {
            let total = opts.node_duration(dur, node);
            let times = trace.failures_of(node);
            let mut idx = times.partition_point(|&x| x < start);
            let mut t = start;
            // Wall-clock progress that survives failures (only nonzero
            // with mid-operator checkpointing enabled).
            let mut done = 0.0f64;
            let mut attempt = 0u32;
            loop {
                let end = t + (total - done);
                if end > trace.horizon() {
                    horizon_exceeded = true;
                }
                // Failures while the node was being repaired are absorbed
                // by the repair (the node is down anyway).
                while idx < times.len() && times[idx] < t {
                    idx += 1;
                }
                if idx < times.len() && times[idx] < end {
                    node_retries += 1;
                    let progressed = done + (times[idx] - t);
                    if let Some(interval) = opts.mid_op_checkpoint {
                        // Keep everything up to the last completed
                        // checkpoint boundary.
                        let chunk = interval + opts.mid_op_checkpoint_cost;
                        done = (progressed / chunk).floor() * chunk;
                    }
                    let lost = progressed - done;
                    recovery_seconds += cluster.mttr + lost;
                    let (at, resumes_at) = (times[idx], times[idx] + cluster.mttr);
                    opts.rec.record_with(|| {
                        Event::instant("node_failure", "sim", sim_us(at))
                            .tid(node as u32 + 1)
                            .arg("stage", stage)
                            .arg("node", node)
                            .arg("attempt", attempt)
                            .arg("resumes_at_s", resumes_at)
                            .arg("lost_s", lost)
                    });
                    attempt += 1;
                    t = resumes_at;
                    idx += 1;
                } else {
                    break;
                }
            }
            op_end = op_end.max(t + (total - done));
        }
        opts.rec.record_with(|| {
            let (ts, end) = (sim_us(start), sim_us(op_end));
            let span = Event::span(format!("stage {stage}"), "sim", ts, end - ts)
                .arg("stage", stage)
                .arg("nodes", cluster.nodes)
                .arg("failed", false);
            match opts.pred.and_then(|p| p.by_root(stage)) {
                Some(s) => span
                    .arg("pred_run_s", s.run_cost)
                    .arg("pred_mat_s", s.mat_cost)
                    .arg("pred_rec_s", s.recovery_cost)
                    .arg("pred_cost_s", s.ft_cost)
                    .arg("dominant", s.on_dominant_path),
                None => span,
            }
        });
        completion[id.index()] = op_end;
        query_end = query_end.max(op_end);
    }

    SimResult {
        completion: query_end,
        restarts: 0,
        node_retries,
        aborted: false,
        horizon_exceeded,
        recovery_seconds,
    }
}

fn simulate_coarse_restart(
    plan: &PlanDag,
    config: &MatConfig,
    cluster: &ClusterConfig,
    trace: &FailureTrace,
    opts: &SimOptions,
) -> SimResult {
    // One attempt takes the failure-free makespan under the scheme's
    // (empty) configuration; any failure anywhere in the cluster during an
    // attempt kills the whole query. Skew stretches the attempt to the
    // straggler node; mid-operator checkpoints cannot help a scheme that
    // discards all state on restart.
    let skew_max = opts.skew.as_ref().map_or(1.0, |f| f.iter().copied().fold(1.0, f64::max));
    let duration = failure_free_makespan(plan, config, opts.pipe_const) * skew_max;
    // Merge all nodes' failure times; any failure kills the whole attempt.
    let mut all: Vec<f64> =
        (0..trace.nodes()).flat_map(|n| trace.failures_of(n).iter().copied()).collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite failure times"));

    let mut t = 0.0f64;
    let mut idx = 0usize;
    let mut restarts = 0u32;
    let mut horizon_exceeded = false;
    let mut recovery_seconds = 0.0f64;
    loop {
        let end = t + duration;
        if end > trace.horizon() {
            horizon_exceeded = true;
        }
        // Failures during the repair window are absorbed by the repair.
        while idx < all.len() && all[idx] < t {
            idx += 1;
        }
        if idx < all.len() && all[idx] < end {
            restarts += 1;
            // The whole attempt so far is discarded, then the node repairs.
            recovery_seconds += (all[idx] - t) + cluster.mttr;
            t = all[idx] + cluster.mttr;
            idx += 1;
            // The failure that reaches the limit is the abort, recorded as
            // the run's terminal event rather than as a restart.
            if restarts >= opts.max_restarts {
                return SimResult {
                    completion: t,
                    restarts,
                    node_retries: 0,
                    aborted: true,
                    horizon_exceeded,
                    recovery_seconds,
                };
            }
            opts.rec.record_with(|| {
                Event::instant("query_restart", "sim", sim_us(t)).arg("attempt", restarts)
            });
        } else {
            return SimResult {
                completion: end,
                restarts,
                node_retries: 0,
                aborted: false,
                horizon_exceeded,
                recovery_seconds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_core::dag::figure2_plan;
    use ftpde_core::operator::OpId;

    fn cluster(nodes: usize, mtbf: f64, mttr: f64) -> ClusterConfig {
        ClusterConfig::new(nodes, mtbf, mttr)
    }

    fn no_failures(c: &ClusterConfig) -> FailureTrace {
        FailureTrace::failure_free(c, 1e12)
    }

    /// scan(2) -> join(3) -> agg(1), tm = 1 each.
    fn chain_plan() -> PlanDag {
        let mut b = PlanDag::builder();
        let s = b.free("scan", 2.0, 1.0, &[]).unwrap();
        let j = b.free("join", 3.0, 1.0, &[s]).unwrap();
        b.free("agg", 1.0, 1.0, &[j]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn baseline_is_critical_path_without_materialization() {
        let plan = chain_plan();
        assert_eq!(baseline_runtime(&plan, 1.0), 6.0);
        // figure2: dominant chain scan S(1.6) + join(2) + repart(1) +
        // map(1.5) + reduce B(1.7) = 7.8.
        assert_eq!(baseline_runtime(&figure2_plan(), 1.0), 7.8);
    }

    #[test]
    fn makespan_includes_materialization_costs() {
        let plan = chain_plan();
        let all = MatConfig::all(&plan);
        // (2+1) + (3+1) + (1+1) = 9.
        assert_eq!(failure_free_makespan(&plan, &all, 1.0), 9.0);
    }

    #[test]
    fn failure_free_simulation_equals_makespan() {
        let plan = figure2_plan();
        let c = cluster(10, 3600.0, 1.0);
        let trace = no_failures(&c);
        for cfg in [MatConfig::none(&plan), MatConfig::all(&plan)] {
            for rec in [Recovery::FineGrained, Recovery::CoarseRestart] {
                let r = simulate(&plan, &cfg, rec, &c, &trace, &SimOptions::default());
                assert_eq!(r.completion, failure_free_makespan(&plan, &cfg, 1.0));
                assert_eq!(r.restarts, 0);
                assert_eq!(r.node_retries, 0);
                assert!(!r.aborted);
            }
        }
    }

    #[test]
    fn fine_grained_failure_delays_only_failed_node() {
        let plan = chain_plan();
        let c = cluster(2, 1e9, 0.5);
        let all = MatConfig::all(&plan);
        // Node 0 fails at t = 1.0 during the scan (duration 3 with tm).
        let trace = FailureTrace::from_times(vec![vec![1.0], vec![]], 1e9);
        let r = simulate(&plan, &all, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        // Node 0: restart at 1.5, scan done at 4.5; node 1 done at 3.0.
        // Join starts at 4.5 (barrier), done 8.5; agg done 10.5.
        assert_eq!(r.completion, 10.5);
        assert_eq!(r.node_retries, 1);
        assert!(!r.aborted);
    }

    #[test]
    fn materialization_limits_recovery_scope() {
        // Same failure time, with vs without a checkpoint before it.
        let plan = chain_plan();
        let c = cluster(1, 1e9, 0.0);
        // Failure at t = 5.5.
        let trace = FailureTrace::from_times(vec![vec![5.5]], 1e9);
        // Nothing materialized: the whole chain (6.0) re-runs from 5.5.
        let none = MatConfig::none(&plan);
        let r_none =
            simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        assert_eq!(r_none.completion, 5.5 + 6.0);
        // Scan materialized (done at 3.0): only join+agg re-run.
        let cfg = MatConfig::from_materialized_free_ops(&plan, &[OpId(0)]).unwrap();
        let r_ckpt =
            simulate(&plan, &cfg, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        // scan+tm done at 3.0; join/agg group (3+1) runs 3.0..7.0, fails at
        // 5.5, re-runs 5.5..9.5.
        assert_eq!(r_ckpt.completion, 9.5);
        assert!(r_ckpt.completion < r_none.completion);
    }

    #[test]
    fn repeated_failures_accumulate() {
        let plan = chain_plan();
        let c = cluster(1, 1e9, 1.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::from_times(vec![vec![2.0, 8.0]], 1e9);
        let r = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        // Attempt 1: 0..6 fails at 2 → resume 3. Attempt 2: 3..9 fails at
        // 8 → resume 9. Attempt 3: 9..15 OK.
        assert_eq!(r.completion, 15.0);
        assert_eq!(r.node_retries, 2);
    }

    #[test]
    fn coarse_restart_restarts_everything() {
        let plan = chain_plan();
        let c = cluster(2, 1e9, 1.0);
        let none = MatConfig::none(&plan);
        // A failure on node 1 at t = 5.0 (during the 6 s attempt).
        let trace = FailureTrace::from_times(vec![vec![], vec![5.0]], 1e9);
        let r = simulate(&plan, &none, Recovery::CoarseRestart, &c, &trace, &SimOptions::default());
        assert_eq!(r.restarts, 1);
        assert_eq!(r.completion, 6.0 + 6.0); // restart at 6.0, finish at 12.0
        assert!(!r.aborted);
    }

    #[test]
    fn coarse_restart_aborts_at_limit() {
        let plan = chain_plan();
        let c = cluster(1, 1e9, 0.0);
        // A failure every 3 s forever (attempt needs 6 s).
        let times: Vec<f64> = (1..10_000).map(|i| i as f64 * 3.0).collect();
        let trace = FailureTrace::from_times(vec![times], 1e9);
        let r = simulate(
            &plan,
            &none_cfg(&plan),
            Recovery::CoarseRestart,
            &c,
            &trace,
            &SimOptions::default(),
        );
        assert!(r.aborted);
        assert_eq!(r.restarts, 100);
    }

    fn none_cfg(plan: &PlanDag) -> MatConfig {
        MatConfig::none(plan)
    }

    #[test]
    fn horizon_exceeded_is_flagged() {
        let plan = chain_plan();
        let c = cluster(1, 1e9, 0.0);
        let trace = FailureTrace::from_times(vec![vec![]], 4.0); // horizon < runtime
        let r = simulate(
            &plan,
            &none_cfg(&plan),
            Recovery::FineGrained,
            &c,
            &trace,
            &SimOptions::default(),
        );
        assert!(r.horizon_exceeded);
    }

    #[test]
    fn failure_exactly_at_completion_does_not_kill() {
        let plan = chain_plan();
        let c = cluster(1, 1e9, 0.0);
        let trace = FailureTrace::from_times(vec![vec![6.0]], 1e9);
        let r = simulate(
            &plan,
            &none_cfg(&plan),
            Recovery::FineGrained,
            &c,
            &trace,
            &SimOptions::default(),
        );
        assert_eq!(r.completion, 6.0);
        assert_eq!(r.node_retries, 0);
    }

    #[test]
    fn mid_operator_checkpoints_limit_lost_work() {
        // One node, one long operator (no materialization), failure late
        // in the run.
        let mut b = PlanDag::builder();
        b.free("long", 100.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let c = cluster(1, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::from_times(vec![vec![90.0]], 1e9);
        // Without checkpoints: all 90 s are lost → completion 190.
        let plain =
            simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        assert_eq!(plain.completion, 190.0);
        // With free checkpoints every 10 s: only the last partial chunk is
        // lost → resume from 90 → completion 100.
        let opts = SimOptions::default().with_mid_op_checkpoints(10.0, 0.0);
        let ckpt = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        assert_eq!(ckpt.completion, 100.0);
        assert_eq!(ckpt.node_retries, 1);
    }

    #[test]
    fn mid_operator_checkpoints_pay_their_cost() {
        let mut b = PlanDag::builder();
        b.free("long", 100.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let c = cluster(1, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::failure_free(&c, 1e9);
        // 9 interior checkpoints à 2 s on a failure-free run: pure overhead.
        let opts = SimOptions::default().with_mid_op_checkpoints(10.0, 2.0);
        let r = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        assert_eq!(r.completion, 118.0);
    }

    #[test]
    fn mid_operator_checkpoint_recovery_respects_write_cost() {
        let mut b = PlanDag::builder();
        b.free("long", 100.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let c = cluster(1, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        // total = 100 + 9·2 = 118 wall seconds (checkpoints at work
        // 10,20,…,90); chunk = 12 wall seconds. Failure at t = 30: two
        // full chunks survive (done = 24).
        let trace = FailureTrace::from_times(vec![vec![30.0]], 1e9);
        let opts = SimOptions::default().with_mid_op_checkpoints(10.0, 2.0);
        let r = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        // completion = 30 (failure) + 0 (mttr) + (118 − 24) = 124.
        assert_eq!(r.completion, 124.0);
    }

    #[test]
    fn skew_stretches_the_straggler_node() {
        let plan = chain_plan(); // baseline 6.0 with no materialization
        let c = cluster(3, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::failure_free(&c, 1e9);
        let opts = SimOptions::default().with_skew(vec![1.0, 2.0, 1.0]);
        let r = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        assert_eq!(r.completion, 12.0, "the 2x-skewed node determines the makespan");
        // Coarse restart attempts also take the straggler's duration.
        let r2 = simulate(&plan, &none, Recovery::CoarseRestart, &c, &trace, &opts);
        assert_eq!(r2.completion, 12.0);
    }

    #[test]
    fn skew_interacts_with_failures() {
        let plan = chain_plan();
        let c = cluster(2, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        // Node 1 is 2x slower (12 s) and fails at t = 10.
        let trace = FailureTrace::from_times(vec![vec![], vec![10.0]], 1e9);
        let opts = SimOptions::default().with_skew(vec![1.0, 2.0]);
        let r = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        assert_eq!(r.completion, 22.0); // 10 + 12
    }

    #[test]
    fn recovery_time_is_lost_work_plus_repair() {
        let plan = chain_plan();
        let c = cluster(2, 1e9, 0.5);
        let all = MatConfig::all(&plan);
        // Node 0 fails at t = 1.0 during the scan stage (started at 0):
        // 1.0 s of work lost + 0.5 s repair.
        let trace = FailureTrace::from_times(vec![vec![1.0], vec![]], 1e9);
        let r = simulate(&plan, &all, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        assert_eq!(r.recovery_seconds, 1.5);
        // The single-failure case has no overlap, so the accounting equals
        // the wall-clock slowdown.
        assert_eq!(r.completion - failure_free_makespan(&plan, &all, 1.0), 1.5);
        // Failure-free runs charge nothing.
        let ok = simulate(
            &plan,
            &all,
            Recovery::FineGrained,
            &c,
            &no_failures(&c),
            &SimOptions::default(),
        );
        assert_eq!(ok.recovery_seconds, 0.0);
    }

    #[test]
    fn coarse_restart_charges_the_discarded_attempt() {
        let plan = chain_plan(); // 6 s attempt
        let c = cluster(2, 1e9, 1.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::from_times(vec![vec![], vec![5.0]], 1e9);
        let r = simulate(&plan, &none, Recovery::CoarseRestart, &c, &trace, &SimOptions::default());
        // 5 s of attempt discarded + 1 s repair.
        assert_eq!(r.recovery_seconds, 6.0);
    }

    #[test]
    fn checkpoints_shrink_the_lost_work_accounting() {
        let mut b = PlanDag::builder();
        b.free("long", 100.0, 0.0, &[]).unwrap();
        let plan = b.build().unwrap();
        let c = cluster(1, 1e9, 0.0);
        let none = MatConfig::none(&plan);
        let trace = FailureTrace::from_times(vec![vec![90.0]], 1e9);
        let plain =
            simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        assert_eq!(plain.recovery_seconds, 90.0);
        let opts = SimOptions::default().with_mid_op_checkpoints(10.0, 0.0);
        let ckpt = simulate(&plan, &none, Recovery::FineGrained, &c, &trace, &opts);
        assert_eq!(ckpt.recovery_seconds, 0.0, "failure exactly on a checkpoint boundary");
    }

    #[test]
    fn the_timeline_is_recorded_in_the_engine_vocabulary() {
        use ftpde_obs::{ArgValue, MemoryRecorder};

        let plan = chain_plan();
        let c = cluster(2, 1e9, 0.5);
        // Only the join materializes: stages {scan, join} and {agg}, whose
        // roots are operators 1 and 2 while their collapsed ids are 0 and 1.
        let cfg = MatConfig::from_materialized_free_ops(&plan, &[OpId(1)]).unwrap();
        let trace = FailureTrace::from_times(vec![vec![1.0], vec![]], 1e9);
        let rec = MemoryRecorder::new();
        let opts = SimOptions { rec: &rec, ..Default::default() };
        let r = simulate(&plan, &cfg, Recovery::FineGrained, &c, &trace, &opts);
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        // The failure precedes its stage's span; stages are named by root.
        assert_eq!(names, ["node_failure", "stage 1", "stage 2", "query_completed"]);
        let span = &events[1];
        // Simulated timestamps in µs: 6 s of work, 1 s lost, 0.5 s repair.
        assert_eq!((span.ts_us, span.dur_us, span.tid), (0, 7_500_000, 0));
        assert_eq!(span.get_arg("stage"), Some(&ArgValue::U64(1)));
        assert_eq!(span.get_arg("nodes"), Some(&ArgValue::U64(2)));
        assert_eq!(span.get_arg("failed"), Some(&ArgValue::Bool(false)));
        let failure = &events[0];
        assert_eq!((failure.ts_us, failure.tid), (1_000_000, 1), "node 0 records on track 1");
        assert_eq!(failure.get_arg("stage"), Some(&ArgValue::U64(1)));
        assert_eq!(failure.get_arg("attempt"), Some(&ArgValue::U64(0)));
        assert_eq!(failure.get_arg("resumes_at_s"), Some(&ArgValue::F64(1.5)));
        assert_eq!(failure.get_arg("lost_s"), Some(&ArgValue::F64(1.0)));
        let done = events.last().unwrap();
        assert_eq!(done.ts_us, (r.completion * 1e6).round() as u64);
        assert_eq!(done.get_arg("node_retries"), Some(&ArgValue::U64(1)));
        // The default recorder changes nothing.
        let r2 = simulate(&plan, &cfg, Recovery::FineGrained, &c, &trace, &SimOptions::default());
        assert_eq!(r, r2);
    }

    #[test]
    fn a_coarse_abort_is_recorded_once_as_the_terminal() {
        use ftpde_obs::{ArgValue, MemoryRecorder};

        let plan = chain_plan();
        let c = cluster(1, 1e9, 1.0);
        let none = MatConfig::none(&plan);
        // Failures at 5 and 11 kill both 6 s attempts; the limit is two.
        let trace = FailureTrace::from_times(vec![vec![5.0, 11.0]], 1e9);
        let rec = MemoryRecorder::new();
        let opts = SimOptions { max_restarts: 2, rec: &rec, ..Default::default() };
        let r = simulate(&plan, &none, Recovery::CoarseRestart, &c, &trace, &opts);
        assert!(r.aborted);
        assert_eq!(r.restarts, 2);
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["query_restart", "query_aborted"]);
        assert_eq!(events[0].ts_us, 6_000_000, "restart after the repair");
        assert_eq!(events[0].get_arg("attempt"), Some(&ArgValue::U64(1)));
        assert_eq!(events[1].ts_us, 12_000_000);
        assert_eq!(events[1].get_arg("restarts"), Some(&ArgValue::U64(2)));
    }

    #[test]
    fn failure_instants_account_for_the_recovery_time() {
        use ftpde_obs::{ArgValue, MemoryRecorder};

        let plan = chain_plan();
        let c = cluster(1, 1e9, 0.5);
        let all = MatConfig::all(&plan);
        // Stage 0 (scan, 0..3) fails at 1.0; stage 1 (join, starts after
        // scan) fails once more later.
        let trace = FailureTrace::from_times(vec![vec![1.0, 5.0]], 1e9);
        let rec = MemoryRecorder::new();
        let opts = SimOptions { rec: &rec, ..Default::default() };
        let r = simulate(&plan, &all, Recovery::FineGrained, &c, &trace, &opts);
        let f64_arg = |e: &Event, k| match e.get_arg(k) {
            Some(ArgValue::F64(v)) => *v,
            other => panic!("{k}: {other:?}"),
        };
        let failures: Vec<_> =
            rec.take().into_iter().filter(|e| e.name == "node_failure").collect();
        let stages: Vec<_> = failures.iter().map(|e| e.get_arg("stage").cloned()).collect();
        assert_eq!(stages, [Some(ArgValue::U64(0)), Some(ArgValue::U64(1))]);
        let total: f64 = failures
            .iter()
            .map(|e| f64_arg(e, "resumes_at_s") - e.ts_us as f64 / 1e6 + f64_arg(e, "lost_s"))
            .sum();
        assert!((total - r.recovery_seconds).abs() < 1e-9);
    }

    #[test]
    fn predictions_tag_the_trace_and_calibrate_to_zero_error() {
        use ftpde_core::cost::{estimate_ft_plan, CostParams};
        use ftpde_obs::{CalibrationReport, MemoryRecorder};

        // Self-consistency: feed the simulator the cost model's own
        // parameters on a failure-free run — every stage's observed
        // duration is exactly tr + tm, so calibration error is ~0.
        let plan = chain_plan();
        let c = cluster(2, 1e12, 0.5);
        let all = MatConfig::all(&plan);
        let params = CostParams::new(1e12, 0.5); // attempts ≈ 0
        let breakdown = estimate_ft_plan(&plan, &all, &params).breakdown(&params);
        let rec = MemoryRecorder::new();
        let opts = SimOptions { rec: &rec, pred: Some(&breakdown), ..Default::default() };
        simulate(&plan, &all, Recovery::FineGrained, &c, &no_failures(&c), &opts);
        let events = rec.events();
        assert_eq!(events[0].name, "plan_estimate", "the estimate opens the trace");
        let report = CalibrationReport::from_events(&events);
        assert_eq!(report.stages.len(), 3);
        for s in &report.stages {
            assert!(
                s.rel_error.unwrap().abs() < 1e-6,
                "stage {} rel error {:?}",
                s.stage,
                s.rel_error
            );
            assert_eq!(s.failures, 0);
        }
        assert_eq!(report.queries.len(), 1);
        assert!(report.queries[0].rel_error.unwrap().abs() < 1e-6);
        assert!(report.stages.iter().all(|s| s.dominant), "a chain has one path");
    }

    #[test]
    fn pipe_const_shortens_collapsed_groups() {
        let plan = chain_plan();
        let none = MatConfig::none(&plan);
        let full = failure_free_makespan(&plan, &none, 1.0);
        let piped = failure_free_makespan(&plan, &none, 0.5);
        assert_eq!(full, 6.0);
        assert_eq!(piped, 3.0);
    }
}
