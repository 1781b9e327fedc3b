//! Property-based tests of the discrete-event simulator's invariants.

use proptest::prelude::*;

use ftpde_cluster::config::ClusterConfig;
use ftpde_cluster::trace::FailureTrace;
use ftpde_core::config::MatConfig;
use ftpde_core::dag::PlanDag;
use ftpde_core::operator::OpId;
use ftpde_obs::MemoryRecorder;
use ftpde_sim::scheme::Recovery;
use ftpde_sim::simulate::{baseline_runtime, failure_free_makespan, simulate, SimOptions};

/// Strategy: a random chain plan of 1..=6 free operators.
fn arb_chain() -> impl Strategy<Value = PlanDag> {
    collection::vec((1.0f64..50.0, 0.0f64..20.0), 1..=6).prop_map(|ops| {
        let mut b = PlanDag::builder();
        let mut prev: Option<OpId> = None;
        for (i, (tr, tm)) in ops.into_iter().enumerate() {
            let inputs: Vec<OpId> = prev.into_iter().collect();
            prev = Some(b.free(format!("op{i}"), tr, tm, &inputs).unwrap());
        }
        b.build().unwrap()
    })
}

/// Strategy: a failure trace over `nodes` nodes with a handful of failure
/// times below `horizon`.
fn arb_trace(nodes: usize, horizon: f64) -> impl Strategy<Value = FailureTrace> {
    collection::vec(collection::vec(1.0f64..horizon, 0..5), nodes..=nodes)
        .prop_map(move |times| FailureTrace::from_times(times, 1e12))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Completion under failures is never below the failure-free makespan.
    #[test]
    fn failures_never_speed_things_up(
        plan in arb_chain(),
        mask in any::<u64>(),
        trace in arb_trace(4, 500.0),
        mttr in 0.0f64..10.0,
    ) {
        let cluster = ClusterConfig::new(4, 1000.0, mttr);
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let opts = SimOptions::default();
        let makespan = failure_free_makespan(&plan, &cfg, 1.0);
        for rec in [Recovery::FineGrained, Recovery::CoarseRestart] {
            let r = simulate(&plan, &cfg, rec, &cluster, &trace, &opts);
            if !r.aborted {
                prop_assert!(r.completion >= makespan - 1e-9,
                    "{rec:?}: {} < {makespan}", r.completion);
            }
        }
    }

    /// With no failures, every recovery mode takes exactly the makespan
    /// and reports zero retries/restarts.
    #[test]
    fn failure_free_is_exact(plan in arb_chain(), mask in any::<u64>()) {
        let cluster = ClusterConfig::new(4, 1000.0, 1.0);
        let trace = FailureTrace::failure_free(&cluster, 1e12);
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let opts = SimOptions::default();
        let makespan = failure_free_makespan(&plan, &cfg, 1.0);
        for rec in [Recovery::FineGrained, Recovery::CoarseRestart] {
            let r = simulate(&plan, &cfg, rec, &cluster, &trace, &opts);
            prop_assert!((r.completion - makespan).abs() < 1e-9);
            prop_assert_eq!(r.node_retries, 0);
            prop_assert_eq!(r.restarts, 0);
            prop_assert!(!r.aborted);
        }
    }

    /// The result is a fold of the recorded trace: one `node_failure` per
    /// node retry, one `query_restart` or terminal `query_aborted` per
    /// coarse restart, and a last event stamped at the completion time.
    /// Recording changes nothing.
    #[test]
    fn the_result_is_a_fold_of_the_trace(
        plan in arb_chain(),
        mask in any::<u64>(),
        trace in arb_trace(3, 300.0),
        mttr in 0.0f64..10.0,
        max_restarts in 1u32..6,
    ) {
        let cluster = ClusterConfig::new(3, 1000.0, mttr);
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let rec = MemoryRecorder::new();
        let traced = SimOptions { max_restarts, rec: &rec, ..Default::default() };
        let untraced = SimOptions { max_restarts, ..Default::default() };
        for recovery in [Recovery::FineGrained, Recovery::CoarseRestart] {
            let r = simulate(&plan, &cfg, recovery, &cluster, &trace, &traced);
            let events = rec.take();
            let count = |name: &str| events.iter().filter(|e| e.name == name).count();
            prop_assert_eq!(r.node_retries, count("node_failure") as u64);
            prop_assert_eq!(r.restarts as usize, count("query_restart") + count("query_aborted"));
            let last = events.last().expect("every run records its terminal event");
            prop_assert_eq!(last.name == "query_aborted", r.aborted, "{:?}", recovery);
            prop_assert_eq!(last.ts_us, (r.completion * 1e6).round() as u64);
            prop_assert_eq!(simulate(&plan, &cfg, recovery, &cluster, &trace, &untraced), r);
        }
    }

    /// Materializing more can only change completion by bounded amounts:
    /// adding a checkpoint adds at most its materialization cost on a
    /// failure-free run.
    #[test]
    fn materialization_cost_is_bounded_without_failures(plan in arb_chain()) {
        let baseline = baseline_runtime(&plan, 1.0);
        let all = failure_free_makespan(&plan, &MatConfig::all(&plan), 1.0);
        let total_mat: f64 = plan.iter().map(|(_, o)| o.mat_cost).sum();
        prop_assert!(all >= baseline - 1e-9);
        prop_assert!(all <= baseline + total_mat + 1e-9);
    }

    /// Mid-operator checkpointing never hurts on a failure-free run beyond
    /// its own write costs, and never loses more work than no
    /// checkpointing under failures.
    #[test]
    fn mid_op_checkpoints_bounded(
        plan in arb_chain(),
        trace in arb_trace(2, 300.0),
        interval in 1.0f64..50.0,
    ) {
        let cluster = ClusterConfig::new(2, 1000.0, 1.0);
        let cfg = MatConfig::none(&plan);
        let plain = SimOptions::default();
        let ckpt = SimOptions::default().with_mid_op_checkpoints(interval, 0.0);
        let r_plain = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &plain);
        let r_ckpt = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &ckpt);
        // Free checkpoints can only help.
        prop_assert!(r_ckpt.completion <= r_plain.completion + 1e-9,
            "free checkpoints hurt: {} vs {}", r_ckpt.completion, r_plain.completion);
    }

    /// Skew factors of 1.0 are a no-op; larger factors only increase
    /// completion.
    #[test]
    fn skew_monotone(
        plan in arb_chain(),
        trace in arb_trace(3, 400.0),
        extra in 0.0f64..2.0,
    ) {
        let cluster = ClusterConfig::new(3, 1000.0, 1.0);
        let cfg = MatConfig::none(&plan);
        let unit = SimOptions::default().with_skew(vec![1.0; 3]);
        let plain = SimOptions::default();
        let skewed = SimOptions::default().with_skew(vec![1.0, 1.0 + extra, 1.0]);
        let r_plain = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &plain);
        let r_unit = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &unit);
        let r_skew = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &skewed);
        prop_assert!((r_plain.completion - r_unit.completion).abs() < 1e-9);
        prop_assert!(r_skew.completion >= r_plain.completion - 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fine-grained recovery dominates coarse restart *in distribution*
    /// (it strictly preserves more work). Per-trace the ordering can flip
    /// by luck — a restart shifts later execution windows and may dodge a
    /// failure fine-grained execution runs into — so the property is
    /// asserted on the mean over many generated traces.
    #[test]
    fn fine_grained_dominates_coarse_on_average(
        plan in arb_chain(),
        mask in any::<u64>(),
        seed in 0u64..1000,
    ) {
        let cluster = ClusterConfig::new(3, 300.0, 1.0);
        let n = plan.free_count();
        let cfg = MatConfig::from_free_bits(&plan, mask & ((1u64 << n) - 1));
        let opts = SimOptions::default();
        let mut fine_sum = 0.0;
        let mut coarse_sum = 0.0;
        let mut completed = 0u32;
        for i in 0..32u64 {
            let trace = FailureTrace::generate(&cluster, 1e5, seed * 64 + i);
            let fine = simulate(&plan, &cfg, Recovery::FineGrained, &cluster, &trace, &opts);
            let coarse = simulate(&plan, &cfg, Recovery::CoarseRestart, &cluster, &trace, &opts);
            if coarse.aborted {
                continue; // coarse lost outright
            }
            completed += 1;
            fine_sum += fine.completion;
            coarse_sum += coarse.completion;
        }
        if completed >= 16 {
            prop_assert!(
                fine_sum <= coarse_sum * 1.02,
                "mean fine {} > mean coarse {}",
                fine_sum / completed as f64,
                coarse_sum / completed as f64
            );
        }
    }
}
