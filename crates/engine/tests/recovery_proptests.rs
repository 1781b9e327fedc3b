//! Property-based tests of the execution engine's recovery machinery:
//! under arbitrary failure schedules and materialization configurations,
//! query results must equal the answer of the reference evaluator in
//! `support/reference.rs`, which shares no code with the engine's kernels.
//! Each run's report must also equal two folds of its own trace: the
//! test's own `Tally` oracle, and the query row of `ftpde_obs::fold`.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_engine::coordinator::{
    run_query, run_query_resumable, EngineRecovery, RunOptions, RunReport,
};
use ftpde_engine::failure::{FailureInjector, Injection};
use ftpde_engine::plan::EnginePlan;
use ftpde_engine::queries::{
    load_catalog, q1_engine_plan, q1c_engine_plan, q2c_engine_plan, q3_engine_plan, q5_engine_plan,
};
use ftpde_engine::table::Catalog;
use ftpde_obs::{ArgValue, Event, MemoryRecorder, QueryState};
use ftpde_store::value::Row;
use ftpde_store::{DiskBackend, MemBackend, StoreBackend};
use ftpde_tpch::datagen::Database;

const NODES: usize = 3;

fn database() -> Database {
    // One small deterministic database for all cases.
    Database::generate(0.0003, 99)
}

fn catalog() -> Catalog {
    load_catalog(&database(), NODES)
}

type SinkResults = Vec<(ftpde_engine::plan::EOpId, Vec<Row>)>;

/// The expected sink results: the reference evaluator's answer.
fn answer(plan: &EnginePlan) -> SinkResults {
    reference::evaluate(plan, &database())
}

/// A run's counters and its stage timeline, one `(stage, skipped,
/// retries, wall_us)` entry per stage event.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    node_retries: u64,
    query_restarts: u32,
    aborted: bool,
    stages_skipped: u64,
    segments_corrupt: u64,
    rows_materialized: u64,
    timeline: Vec<(u32, bool, u64, u64)>,
}

impl Tally {
    fn of_report(r: &RunReport) -> Self {
        Tally {
            node_retries: r.node_retries,
            query_restarts: r.query_restarts,
            aborted: r.aborted,
            stages_skipped: r.stages_skipped,
            segments_corrupt: r.segments_corrupt,
            rows_materialized: r.rows_materialized,
            timeline: r
                .stage_timings
                .iter()
                .map(|t| (t.stage, t.skipped, t.retries, t.wall_us))
                .collect(),
        }
    }

    /// Folds a trace in file order. A retry is a `redeploy`; a restart is
    /// a `query_restart` or the `query_aborted` that ends the run. A
    /// timeline entry counts the redeploys since the previous stage event,
    /// and a stage span's `dur_us` is its `wall_us`. The materialized rows
    /// are the terminal event's argument.
    fn of_trace(events: &[Event]) -> Self {
        let arg = |e: &Event, k: &str| match e.get_arg(k) {
            Some(ArgValue::U64(n)) => *n,
            other => panic!("`{}` has no integer `{k}`: {other:?}", e.name),
        };
        let mut t = Tally::default();
        let mut redeploys = 0;
        for e in events {
            match e.name.as_str() {
                "redeploy" => {
                    t.node_retries += 1;
                    redeploys += 1;
                }
                "query_restart" => t.query_restarts += 1,
                "query_aborted" => {
                    t.query_restarts += 1;
                    t.aborted = true;
                    t.rows_materialized = arg(e, "rows_materialized");
                }
                "segment_corrupt" => t.segments_corrupt += 1,
                "query_completed" => t.rows_materialized = arg(e, "rows_materialized"),
                "stage_skipped" => {
                    t.stages_skipped += 1;
                    let stage = arg(e, "stage") as u32;
                    t.timeline.push((stage, true, std::mem::take(&mut redeploys), 0));
                }
                name if name.starts_with("stage ") => {
                    let stage = arg(e, "stage") as u32;
                    t.timeline.push((stage, false, std::mem::take(&mut redeploys), e.dur_us));
                }
                _ => {}
            }
        }
        t
    }
}

/// What a query row shares with the report.
#[derive(Debug, PartialEq)]
struct QueryCounters {
    node_retries: u64,
    query_restarts: u64,
    aborted: bool,
    stages_skipped: u64,
    segments_corrupt: u64,
    rows_materialized: u64,
    bytes_materialized: u64,
}

impl QueryCounters {
    fn of_report(r: &RunReport) -> Self {
        QueryCounters {
            node_retries: r.node_retries,
            query_restarts: u64::from(r.query_restarts),
            aborted: r.aborted,
            stages_skipped: r.stages_skipped,
            segments_corrupt: r.segments_corrupt,
            rows_materialized: r.rows_materialized,
            bytes_materialized: r.bytes_materialized,
        }
    }

    /// The trace's one query row, as `ftpde_obs::fold` reads it.
    fn of_fold(events: &[Event]) -> Self {
        let rows = ftpde_obs::fold(events).queries;
        assert_eq!(rows.len(), 1, "one run is one query: {rows:?}");
        let q = &rows[0];
        QueryCounters {
            node_retries: q.retries,
            query_restarts: q.restarts,
            aborted: q.state == QueryState::Aborted,
            stages_skipped: q.stages_skipped,
            segments_corrupt: q.segments_corrupt,
            rows_materialized: q.rows_materialized,
            bytes_materialized: q.bytes_materialized,
        }
    }
}

fn plan_by_index(i: u8) -> EnginePlan {
    match i % 5 {
        0 => q1_engine_plan(),
        1 => q3_engine_plan(),
        2 => q5_engine_plan(),
        3 => q2c_engine_plan(),
        _ => q1c_engine_plan(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fine-grained recovery under random failure schedules and random
    /// materialization configurations, over either store backend,
    /// reproduces the reference result, and its report agrees with its
    /// trace.
    #[test]
    fn random_failures_never_change_results(
        which in 0u8..5,
        mask in any::<u64>(),
        fail_p in 0.0f64..0.8,
        seed in any::<u64>(),
        disk in any::<bool>(),
    ) {
        let plan = plan_by_index(which);
        let dag = plan.to_plan_dag();
        let n = dag.free_count();
        let config = MatConfig::from_free_bits(&dag, mask & ((1u64 << n) - 1));
        let catalog = catalog();
        let expected = answer(&plan);

        let stage_roots: Vec<u32> = {
            let pc = CollapsedPlan::collapse(&dag, &config, 1.0);
            pc.iter().map(|(_, c)| c.root.0).collect()
        };
        let injector = FailureInjector::random_first_attempts(&stage_roots, NODES, fail_p, seed);
        let store: Box<dyn StoreBackend> = if disk {
            Box::new(DiskBackend::ephemeral().expect("temporary store directory"))
        } else {
            Box::new(MemBackend::new())
        };
        let rec = MemoryRecorder::new();
        let opts = RunOptions { rec: &rec, ..Default::default() };
        let report = run_query_resumable(&plan, &config, &catalog, &injector, &opts, &*store);
        prop_assert_eq!(&report.results, &expected);
        prop_assert_eq!(report.node_retries, injector.fired().len() as u64);
        prop_assert!(!report.aborted);
        prop_assert_eq!(Tally::of_trace(&rec.events()), Tally::of_report(&report));
        prop_assert_eq!(QueryCounters::of_fold(&rec.events()), QueryCounters::of_report(&report));
    }

    /// Repeated failures on the same node (multiple attempts) still
    /// converge to the right answer.
    #[test]
    fn repeated_failures_on_one_node(
        which in 0u8..5,
        node in 0usize..NODES,
        attempts in 1u32..4,
    ) {
        let plan = plan_by_index(which);
        let dag = plan.to_plan_dag();
        let config = MatConfig::none(&dag);
        let catalog = catalog();
        let expected = answer(&plan);
        let stage_roots: Vec<u32> = {
            let pc = CollapsedPlan::collapse(&dag, &config, 1.0);
            pc.iter().map(|(_, c)| c.root.0).collect()
        };
        let injections: Vec<Injection> = stage_roots
            .iter()
            .flat_map(|&s| (0..attempts).map(move |a| Injection { stage: s, node, attempt: a }))
            .collect();
        let injector = FailureInjector::with(injections);
        let rec = MemoryRecorder::new();
        let opts = RunOptions { rec: &rec, ..Default::default() };
        let report = run_query(&plan, &config, &catalog, &injector, &opts);
        prop_assert_eq!(&report.results, &expected);
        prop_assert_eq!(report.node_retries, (stage_roots.len() as u32 * attempts) as u64);
        prop_assert_eq!(QueryCounters::of_fold(&rec.events()), QueryCounters::of_report(&report));
    }

    /// Coarse restart under random single failures reproduces the
    /// reference result, counting one restart per injected failure, and
    /// its report agrees with its trace.
    #[test]
    fn coarse_restart_correctness(
        which in 0u8..5,
        node in 0usize..NODES,
        restarts in 1u32..4,
    ) {
        let plan = plan_by_index(which);
        let dag = plan.to_plan_dag();
        let config = MatConfig::none(&dag);
        let catalog = catalog();
        let expected = answer(&plan);
        // With no materialization the plan has one stage per sink; kill
        // the first `restarts` whole-query attempts at the first sink.
        let sink = plan.sinks()[0];
        let injector = FailureInjector::with(
            (0..restarts).map(|a| Injection { stage: sink.0, node, attempt: a }),
        );
        let rec = MemoryRecorder::new();
        let opts = RunOptions {
            recovery: EngineRecovery::CoarseRestart,
            max_restarts: 50,
            rec: &rec,
            ..Default::default()
        };
        let report = run_query(&plan, &config, &catalog, &injector, &opts);
        prop_assert!(!report.aborted);
        prop_assert_eq!(report.query_restarts, restarts);
        prop_assert_eq!(&report.results, &expected);
        prop_assert_eq!(Tally::of_trace(&rec.events()), Tally::of_report(&report));
        prop_assert_eq!(QueryCounters::of_fold(&rec.events()), QueryCounters::of_report(&report));
    }

    /// The materialized-row count is identical across failure schedules
    /// for all-mat (failures re-execute but the final stored state is the
    /// same set of intermediates; writes accumulate only on re-stores of
    /// interrupted stages' roots — which fine-grained retries do not redo
    /// for other nodes).
    #[test]
    fn partition_counts_scale(nodes in 1usize..6) {
        let plan = q3_engine_plan();
        let dag = plan.to_plan_dag();
        let catalog = load_catalog(&database(), nodes);
        let report = run_query(
            &plan,
            &MatConfig::all(&dag),
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
        );
        // Same logical result regardless of the node count.
        let single = load_catalog(&database(), 1);
        let expected = run_query(
            &plan,
            &MatConfig::all(&dag),
            &single,
            &FailureInjector::none(),
            &RunOptions::default(),
        );
        prop_assert_eq!(&report.results, &expected.results);
    }
}

/// A coarse run that reaches its restart limit still records what it
/// wrote: its trace folds into a query row equal to its report, and into
/// the store's gauges.
#[test]
fn an_aborted_run_folds_into_its_report_and_store_stats() {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let sink = plan.sinks()[0];
    let injector =
        FailureInjector::with((0..3).map(|attempt| Injection { stage: sink.0, node: 0, attempt }));
    let catalog = load_catalog(&Database::generate(0.001, 42), 2);
    let rec = MemoryRecorder::new();
    let opts = RunOptions {
        recovery: EngineRecovery::CoarseRestart,
        max_restarts: 3,
        rec: &rec,
        ..Default::default()
    };
    let report = run_query(&plan, &MatConfig::all(&dag), &catalog, &injector, &opts);
    assert!(report.aborted);
    assert!(report.rows_materialized > 0, "each attempt materializes before the sink dies");
    let events = rec.events();
    assert_eq!(QueryCounters::of_fold(&events), QueryCounters::of_report(&report));
    assert_eq!(Tally::of_trace(&events), Tally::of_report(&report));
    // A fresh in-memory store: its lifetime bytes are this run's.
    let metrics = ftpde_obs::fold(&events).metrics;
    let written = metrics.gauge("store.physical_bytes_written");
    assert_eq!(written, Some(report.bytes_materialized as f64));
}
