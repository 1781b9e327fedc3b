//! End-to-end observability: an engine `run_query` with an injected node
//! failure, recorded through the obs layer and exported to both JSONL and
//! Chrome trace-event JSON. Both artifacts must parse back and contain
//! the per-stage spans, the failure instant, and the recovery
//! re-execution of the killed sub-plan.

use serde::Value;

use ftpde::core::collapse::CollapsedPlan;
use ftpde::core::config::MatConfig;
use ftpde::engine::prelude::*;
use ftpde::obs::{export, fold, ArgValue, Event, MemoryRecorder, Metrics, Phase, QueryState};
use ftpde::tpch::datagen::Database;

/// One traced Q3 run, two stages (the first join materialized), with node
/// 1's first attempt on the sink stage killed.
fn traced_failure_run() -> (Vec<Event>, usize, u32) {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::from_free_bits(&dag, 0b01);
    let stages = CollapsedPlan::collapse(&dag, &config, 1.0).len();
    let sink = plan.sinks()[0];
    let injector = FailureInjector::with([Injection { stage: sink.0, node: 1, attempt: 0 }]);
    let catalog = load_catalog(&Database::generate(0.001, 42), 4);
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    let report = run_query(&plan, &config, &catalog, &injector, &opts);
    assert_eq!(report.node_retries, 1, "exactly the injected failure");
    assert!(!report.results.is_empty());
    (rec.events(), stages, sink.0)
}

#[test]
fn jsonl_export_of_a_failed_run_parses_back_with_recovery() {
    let (events, stages, sink) = traced_failure_run();

    let dir = std::env::temp_dir().join("ftpde_trace_export_test");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("run.jsonl");
    export::write_file(&path, &export::to_jsonl(&events)).unwrap();
    let parsed = export::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(parsed, events, "JSONL round-trips the run losslessly");

    // One coordinator stage span per collapsed stage, on track 0.
    let stage_spans: Vec<&Event> =
        parsed.iter().filter(|e| e.phase == Phase::Span && e.name.starts_with("stage ")).collect();
    assert_eq!(stage_spans.len(), stages);
    assert!(stage_spans.iter().all(|e| e.tid == 0 && e.cat == "engine"));

    // The injected failure is an instant on node 1's track.
    let failures: Vec<&Event> = parsed.iter().filter(|e| e.name == "node_failure").collect();
    assert_eq!(failures.len(), 1);
    let failure = failures[0];
    assert_eq!(failure.phase, Phase::Instant);
    assert_eq!(failure.tid, 2, "node 1 records on track node+1");
    assert_eq!(failure.get_arg("stage"), Some(&ArgValue::U64(sink as u64)));
    assert_eq!(failure.get_arg("attempt"), Some(&ArgValue::U64(0)));

    // Recovery: a redeploy instant, then a successful re-execution of the
    // killed sub-plan — an attempt span on the same stage and node with
    // attempt 1 that starts no earlier than the failure.
    assert_eq!(parsed.iter().filter(|e| e.name == "redeploy").count(), 1);
    let retry = parsed
        .iter()
        .find(|e| {
            e.name == "attempt"
                && e.phase == Phase::Span
                && e.tid == 2
                && e.get_arg("attempt") == Some(&ArgValue::U64(1))
        })
        .expect("the killed sub-plan re-executes");
    assert_eq!(retry.get_arg("stage"), Some(&ArgValue::U64(sink as u64)));
    assert_eq!(retry.get_arg("ok"), Some(&ArgValue::Bool(true)));
    assert!(retry.ts_us >= failure.ts_us, "recovery follows the failure");

    // The run closes with a completion instant.
    assert_eq!(parsed.last().unwrap().name, "query_completed");
}

#[test]
fn chrome_trace_of_a_failed_run_has_spans_and_the_failure_instant() {
    let (events, stages, _) = traced_failure_run();
    let root: Value = serde_json::from_str(&export::to_chrome_trace(&events)).unwrap();
    assert_eq!(root.get("displayTimeUnit").and_then(Value::as_str), Some("ms"));
    let trace_events = root.get("traceEvents").and_then(Value::as_array).unwrap();
    assert_eq!(trace_events.len(), events.len());

    let name_of = |v: &Value| v.get("name").and_then(Value::as_str).map(str::to_owned);
    let spans: Vec<&Value> =
        trace_events.iter().filter(|v| v.get("ph").and_then(Value::as_str) == Some("X")).collect();
    // Every span carries a duration; the stage spans are all present.
    assert!(spans.iter().all(|v| v.get("dur").and_then(Value::as_u64).is_some()));
    let stage_span_count =
        spans.iter().filter(|v| name_of(v).is_some_and(|n| n.starts_with("stage "))).count();
    assert_eq!(stage_span_count, stages);

    // The failure renders as a thread-scoped instant on node 1's track.
    let failure = trace_events
        .iter()
        .find(|v| name_of(v) == Some("node_failure".into()))
        .expect("failure instant exported");
    assert_eq!(failure.get("ph").and_then(Value::as_str), Some("i"));
    assert_eq!(failure.get("s").and_then(Value::as_str), Some("t"));
    assert_eq!(failure.get("tid").and_then(Value::as_u64), Some(2));
}

/// The metrics fold of an engine trace carries the engine counters and
/// the stage and query duration histograms, and `--format prom` renders
/// them.
#[test]
fn metrics_fold_of_a_failed_run_counts_its_retry_and_stages() {
    let (events, stages, _) = traced_failure_run();
    let m = fold(&events).metrics;
    assert_eq!(m.counter("engine.queries_total"), 1);
    assert_eq!(m.counter("engine.queries_aborted_total"), 0);
    assert_eq!(m.counter("engine.node_retries_total"), 1);
    assert_eq!(m.counter("engine.query_restarts_total"), 0);
    assert_eq!(m.counter("engine.stages_total"), stages as u64);
    assert_eq!(m.counter("trace.failures.engine"), 1);
    let stage_spans: u64 = events
        .iter()
        .filter(|e| e.phase == Phase::Span && e.name.starts_with("stage "))
        .map(|e| e.dur_us)
        .sum();
    let h = m.histogram("engine.stage_seconds").expect("stage durations");
    assert_eq!(h.count, stages as u64);
    assert!((h.sum - stage_spans as f64 / 1e6).abs() < 1e-9);
    let q = m.histogram("engine.query_seconds").expect("query duration");
    assert_eq!(q.max, Some(events.last().unwrap().ts_us as f64 / 1e6));

    let prom = export::to_prometheus(&m);
    for family in [
        "# TYPE engine_node_retries_total counter",
        "# TYPE engine_stage_seconds histogram",
        "# TYPE engine_query_seconds histogram",
        "# TYPE store_fsyncs gauge",
    ] {
        assert!(prom.contains(family), "{family} missing:\n{prom}");
    }
}

/// A coarse run that hits its restart limit folds into one aborted row
/// whose restarts count the aborting failure, as the report does.
#[test]
fn an_aborted_coarse_run_folds_into_an_aborted_row() {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::none(&dag);
    let sink = plan.sinks()[0];
    let injector =
        FailureInjector::with((0..3).map(|a| Injection { stage: sink.0, node: 0, attempt: a }));
    let catalog = load_catalog(&Database::generate(0.001, 42), 2);
    let rec = MemoryRecorder::new();
    let opts = RunOptions {
        recovery: EngineRecovery::CoarseRestart,
        max_restarts: 3,
        rec: &rec,
        ..Default::default()
    };
    let report = run_query(&plan, &config, &catalog, &injector, &opts);
    assert!(report.aborted);

    let folded = fold(&rec.events());
    assert_eq!(folded.queries.len(), 1);
    let row = &folded.queries[0];
    assert_eq!(row.state, QueryState::Aborted);
    assert_eq!(row.restarts, u64::from(report.query_restarts));
    assert_eq!(row.stages_executed, report.stage_timings.len() as u64);
    assert_eq!(row.retries, 0);
    assert_eq!(folded.metrics.counter("engine.queries_aborted_total"), 1);
    assert_eq!(folded.metrics.counter("engine.query_restarts_total"), 3);
}

// --- exporter edge cases -------------------------------------------------

#[test]
fn exporters_handle_an_empty_recorder() {
    let rec = MemoryRecorder::new();
    let events = rec.events();
    assert!(events.is_empty());

    // JSONL: empty in, empty out, round-trips to no events.
    assert_eq!(export::to_jsonl(&events), "");
    assert_eq!(export::from_jsonl("").unwrap(), Vec::<Event>::new());

    // Chrome trace: valid JSON with an empty traceEvents array.
    let root: Value = serde_json::from_str(&export::to_chrome_trace(&events)).unwrap();
    assert_eq!(root.get("traceEvents").and_then(Value::as_array).map(<[_]>::len), Some(0));

    // Prometheus: no metrics export an empty document — no stray
    // `# TYPE` headers for metrics that were never recorded — and so do
    // the folds of an empty trace.
    assert_eq!(export::to_prometheus(&Metrics::new()), "");
    let folded = fold(&events);
    assert!(folded.queries.is_empty());
    assert_eq!(export::to_prometheus(&folded.metrics), "");

    // Calibration over no events: empty report, no quantiles, no drift.
    let report = ftpde::obs::CalibrationReport::from_events(&events);
    assert!(report.stages.is_empty() && report.queries.is_empty());
    assert!(report.stage_error_stats().is_none());
    assert!(report.drift_score().is_none());
}

#[test]
fn a_truncated_timeline_keeps_every_exporter_well_formed() {
    use ftpde::analysis::prelude::{check_trace, CheckOptions, Code, Severity};

    // A simulation timeline cut off mid-run: stage 0 completed and a node
    // failed in stage 1, but neither stage 1's span nor a query
    // terminator was recorded.
    let events = vec![
        Event::span("stage 0", "sim", 0, 1_000_000)
            .arg("stage", 0u64)
            .arg("nodes", 2u64)
            .arg("failed", false),
        Event::instant("node_failure", "sim", 1_500_000)
            .tid(1)
            .arg("stage", 1u64)
            .arg("node", 0u64)
            .arg("attempt", 0u64)
            .arg("resumes_at_s", 2.0)
            .arg("lost_s", 0.5),
    ];

    // Every exporter stays well-formed on the truncated timeline.
    let parsed = export::from_jsonl(&export::to_jsonl(&events)).unwrap();
    assert_eq!(parsed, events);
    let root: Value = serde_json::from_str(&export::to_chrome_trace(&events)).unwrap();
    let trace_events = root.get("traceEvents").and_then(Value::as_array).unwrap();
    assert_eq!(trace_events.len(), events.len());
    assert!(trace_events.iter().all(|v| v.get("ph").and_then(Value::as_str) != Some("X")
        || v.get("dur").and_then(Value::as_u64).is_some()));

    // Calibration sees no terminator: no query row, and the one closed
    // stage has no prediction tags, so no stage rows either.
    let report = ftpde::obs::CalibrationReport::from_events(&events);
    assert!(report.queries.is_empty());
    assert!(report.stages.is_empty());

    // Both folds read the cut query as incomplete: its one executed
    // stage, no retries (the simulator counts them on the terminal it
    // never wrote), and no query duration.
    let folded = fold(&events);
    assert_eq!(folded.queries.len(), 1);
    let row = &folded.queries[0];
    assert_eq!(row.state, QueryState::Incomplete);
    assert_eq!((row.stages_executed, row.retries, row.restarts), (1, 0, 0));
    assert!((row.elapsed_s - 1.5).abs() < 1e-9, "the end of its last event");
    let m = &folded.metrics;
    assert_eq!(m.counter("sim.queries_total"), 1);
    assert_eq!(m.counter("sim.stages_total"), 1);
    assert_eq!(m.counter("trace.failures.sim"), 1);
    assert!(m.histogram("sim.query_seconds").is_none());
    assert!(export::to_prometheus(m).contains("# TYPE sim_stages_total counter"));

    // The conformance checker names the truncation, as a warning.
    let report = check_trace("truncated", &events, None, &CheckOptions::default());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::FT101 && d.severity == Severity::Warn));
}

#[test]
fn out_of_order_timestamps_survive_every_exporter() {
    // A hand-built trace whose events arrive out of timestamp order (a
    // late-flushed failure instant), with prediction tags so the
    // calibration join has to place the failure inside the span interval.
    let events = vec![
        Event::span("stage 0", "sim", 0, 3_000_000)
            .arg("stage", 0u64)
            .arg("pred_run_s", 1.0)
            .arg("pred_mat_s", 0.5)
            .arg("pred_rec_s", 0.0),
        Event::instant("query_completed", "sim", 3_000_000),
        // Flushed last, timestamped first: a failure 1 s into stage 0.
        Event::instant("node_failure", "sim", 1_000_000)
            .arg("stage", 0u64)
            .arg("lost_s", 1.0)
            .arg("resumes_at_s", 1.5),
        Event::instant("plan_estimate", "sim", 0).arg("pred_cost_s", 1.5),
    ];

    // JSONL and Chrome both preserve the recorded order verbatim.
    let parsed = export::from_jsonl(&export::to_jsonl(&events)).unwrap();
    assert_eq!(parsed, events);
    let root: Value = serde_json::from_str(&export::to_chrome_trace(&events)).unwrap();
    let trace_events = root.get("traceEvents").and_then(Value::as_array).unwrap();
    assert_eq!(trace_events.len(), events.len());
    assert_eq!(trace_events[2].get("ts").and_then(Value::as_u64), Some(1_000_000));

    // The calibration join is order-independent: the failure lands on
    // stage 0 by (stage, interval), not by position in the stream.
    let report = ftpde::obs::CalibrationReport::from_events(&events);
    assert_eq!(report.stages.len(), 1);
    assert_eq!(report.stages[0].failures, 1);
    assert!((report.stages[0].observed_recovery_s - 1.5).abs() < 1e-9);
    assert_eq!(report.queries.len(), 1);
    assert!((report.queries[0].observed_s - 3.0).abs() < 1e-9);

    // The folds go by file order: the terminal closes the first query,
    // and the two events flushed after it open a second one that never
    // ends.
    let folded = fold(&events);
    let states: Vec<QueryState> = folded.queries.iter().map(|q| q.state).collect();
    assert_eq!(states, [QueryState::Completed, QueryState::Incomplete]);
    assert_eq!(folded.queries[0].stages_executed, 1);
    assert!((folded.queries[0].elapsed_s - 3.0).abs() < 1e-9);
    assert_eq!(folded.queries[1].predicted_s, None, "plan_estimate carries no pred_runtime_s");
    assert_eq!(folded.metrics.counter("sim.queries_total"), 2);
    assert_eq!(folded.metrics.histogram("sim.query_seconds").map(|h| h.count), Some(1));

    // And the Prometheus side accepts the metrics plus the calibration.
    let mut metrics = folded.metrics;
    report.export_metrics(&mut metrics);
    let prom = export::to_prometheus(&metrics);
    assert!(prom.contains("# TYPE calibration_stage_count gauge"));
    assert!(prom.contains("calibration_stage_count 1"));
    assert!(prom.contains("sim_queries_total 2"));
}
