//! End-to-end conformance: real traced runs — the simulator under all
//! four fault-tolerance schemes and the engine under failure-injected
//! fine-grained and coarse-restart recovery — replay cleanly through the
//! trace-conformance checker (`FT101`…`FT108`), both executors name a
//! plan's stages alike, and deliberate damage is flagged with the right
//! code. This is the programmatic face of the `ftpde check` CI gate.

use ftpde::analysis::diag::Code;
use ftpde::analysis::prelude::*;
use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::engine::prelude::*;
use ftpde::obs::{ArgValue, Event, MemoryRecorder};
use ftpde::sim::prelude::*;
use ftpde::tpch::datagen::Database;
use ftpde::tpch::prelude::*;

#[test]
fn simulated_schemes_produce_conformant_traces() {
    let cm = CostModel::xdb_calibrated();
    let cluster = ClusterConfig::new(10, 400.0, 1.0);
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, ..Default::default() };
    for query in [Query::Q1, Query::Q3, Query::Q5] {
        let plan = query.plan(1.0, &cm);
        let horizon = suggested_horizon(&plan, &cluster, &opts);
        let trace = FailureTrace::generate(&cluster, horizon, 2026);
        for scheme in Scheme::ALL {
            let config = scheme.select_config(&plan, &cluster).expect("valid plan");
            simulate(&plan, &config, scheme.recovery(), &cluster, &trace, &opts);
            let sp = StagePlan::new(&plan, &config, opts.pipe_const);
            let subject = format!("{query}/{scheme}");
            let report = check_trace(&subject, &rec.take(), Some(&sp), &CheckOptions::default());
            assert!(report.is_clean(), "{subject} trace not conformant:\n{}", report.render());
        }
    }
}

fn small_catalog(nodes: usize) -> Catalog {
    load_catalog(&Database::generate(0.0005, 7), nodes)
}

/// The `stage …` spans of a trace: their names and `stage` args, in order.
fn stage_spans(events: &[Event]) -> Vec<(String, Option<ArgValue>)> {
    events
        .iter()
        .filter(|e| e.name.starts_with("stage "))
        .map(|e| (e.name.clone(), e.get_arg("stage").cloned()))
        .collect()
}

#[test]
fn engine_and_simulator_name_the_same_stages() {
    let nodes = 3;
    let catalog = small_catalog(nodes);
    let cluster = ClusterConfig::new(nodes, 1e12, 1.0);
    let trace = FailureTrace::failure_free(&cluster, 1e12);
    for (plan, bits) in [(q3_engine_plan(), 0b11), (q5_engine_plan(), 0b00101)] {
        let dag = plan.to_plan_dag();
        let config = MatConfig::from_free_bits(&dag, bits);
        let engine_rec = MemoryRecorder::new();
        let opts = RunOptions { rec: &engine_rec, ..Default::default() };
        run_query(&plan, &config, &catalog, &FailureInjector::none(), &opts);
        let sim_rec = MemoryRecorder::new();
        let opts = SimOptions { rec: &sim_rec, ..Default::default() };
        simulate(&dag, &config, Recovery::FineGrained, &cluster, &trace, &opts);

        let (engine, sim) = (engine_rec.events(), sim_rec.events());
        assert_eq!(stage_spans(&engine), stage_spans(&sim), "config {bits:#b}");
        let sp = StagePlan::new(&dag, &config, 1.0);
        for (layer, events) in [("engine", &engine), ("sim", &sim)] {
            let report = check_trace(layer, events, Some(&sp), &CheckOptions::default());
            assert!(report.is_clean(), "{layer} trace not conformant:\n{}", report.render());
        }
    }
}

#[test]
fn engine_fine_grained_failure_injected_trace_is_conformant() {
    let nodes = 3;
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let stage_roots: Vec<u32> =
        sp.stages().iter().map(|s| u32::try_from(s.id).expect("root op ids are u32")).collect();
    // Kill half the first attempts: plenty of redeploys, plus rewinds if
    // any materialized segment is lost mid-flight.
    let injector = FailureInjector::random_first_attempts(&stage_roots, nodes, 0.5, 11);
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    run_query(&plan, &config, &small_catalog(nodes), &injector, &opts);
    let report = check_trace("engine-fine", &rec.events(), Some(&sp), &CheckOptions::default());
    assert!(report.is_clean(), "fine-grained trace not conformant:\n{}", report.render());
}

#[test]
fn engine_coarse_restart_trace_is_conformant() {
    let nodes = 3;
    let plan = q1_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::none(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let first_stage = u32::try_from(sp.stages()[0].id).expect("root op ids are u32");
    // One injected failure on the first query attempt: the sibling
    // workers finish their attempt, the coordinator discards their output
    // and restarts the query, and the second attempt runs clean.
    let injector = FailureInjector::with([Injection { stage: first_stage, node: 0, attempt: 0 }]);
    let rec = MemoryRecorder::new();
    let opts = RunOptions {
        recovery: EngineRecovery::CoarseRestart,
        max_restarts: 10,
        rec: &rec,
        ..Default::default()
    };
    let r = run_query(&plan, &config, &small_catalog(nodes), &injector, &opts);
    assert!(r.query_restarts >= 1, "the injection must force a restart");
    let report = check_trace("engine-coarse", &rec.events(), Some(&sp), &CheckOptions::default());
    assert!(report.is_clean(), "coarse-restart trace not conformant:\n{}", report.render());
}

#[test]
fn damaged_engine_trace_is_rejected_with_the_right_code() {
    let nodes = 3;
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    run_query(&plan, &config, &small_catalog(nodes), &FailureInjector::none(), &opts);
    let mut events = rec.events();
    // Erase one stage entirely — the execution span and its worker
    // attempts — so the completed query no longer covers the plan.
    let stage_arg = |e: &Event| {
        e.args.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("stage", ArgValue::U64(n)) => Some(*n),
            _ => None,
        })
    };
    let victim = events
        .iter()
        .find(|e| e.name.starts_with("stage ") && e.tid == 0)
        .and_then(&stage_arg)
        .expect("trace has stage spans");
    events.retain(|e| stage_arg(e) != Some(victim) || e.name == "materialize");
    let report = check_trace("damaged", &events, Some(&sp), &CheckOptions::default());
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::FT103),
        "span deletion must be FT103:\n{}",
        report.render()
    );
}
