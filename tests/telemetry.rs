//! End-to-end test of the trace folds: a failure-injected Q3 run on a
//! disk store, a torn log, and the resumed run that heals it. Each run's
//! trace folds ([`ftpde::obs::fold`]) into one query row equal to the
//! run's `RunReport`, and the resumed trace's `store.*` metrics equal the
//! reopened store's own stats.
#![cfg(not(miri))]

use std::path::PathBuf;

use ftpde::analysis::prelude::*;
use ftpde::core::config::MatConfig;
use ftpde::engine::prelude::*;
use ftpde::obs::{self, MemoryRecorder, QueryRow, QueryState};
use ftpde::tpch::datagen::Database;

const SF: f64 = 0.001;
const SEED: u64 = 42;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftpde-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one query row of `events`, checked field by field against the
/// report of the run that recorded them.
fn assert_row_is_the_report(events: &[obs::Event], report: &RunReport) -> QueryRow {
    let rows = obs::fold(events).queries;
    assert_eq!(rows.len(), 1, "{rows:?}");
    let row = rows.into_iter().next().unwrap();
    assert_eq!(row.cat, "engine");
    assert_eq!(row.state, QueryState::Completed);
    let executed = report.stage_timings.iter().filter(|t| !t.skipped).count() as u64;
    assert_eq!(row.stages_executed, executed);
    assert_eq!(row.stages_skipped, report.stages_skipped);
    assert_eq!(row.retries, report.node_retries);
    assert_eq!(row.restarts, u64::from(report.query_restarts));
    assert_eq!(row.segments_corrupt, report.segments_corrupt);
    assert_eq!(row.rows_materialized, report.rows_materialized);
    assert_eq!(row.bytes_materialized, report.bytes_materialized);
    let end = events.last().map_or(0, |e| e.ts_us);
    assert_eq!(row.elapsed_s, end as f64 / 1e6, "the terminal event's timestamp");
    row
}

#[test]
fn torn_log_resume_folds_into_its_report_and_store_stats() {
    let store_dir = scratch("store");

    // A failure-injected Q3 run, fully materialized to disk.
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let nodes = 3;
    let catalog = load_catalog(&Database::generate(SF, SEED), nodes);
    let stage_roots: Vec<u32> = plan.op_ids().map(|id| id.0).collect();
    let injector = FailureInjector::random_first_attempts(&stage_roots, nodes, 0.4, 7);
    let first_rec = MemoryRecorder::new();
    let first = {
        let disk = DiskBackend::open(&store_dir).unwrap();
        let opts = RunOptions { rec: &first_rec, ..Default::default() };
        run_query_resumable(&plan, &config, &catalog, &injector, &opts, &disk)
    };
    assert!(first.node_retries > 0, "the injector must fire");
    let row = assert_row_is_the_report(&first_rec.events(), &first);
    assert_eq!(row.input_rewinds, 0);

    // Tear the last frame's image in half — the crash-mid-append shape.
    // Sinks are never materialized, so that frame holds a non-sink stage.
    let report = ftpde::store::inspect(&store_dir).unwrap();
    let victim = report.segments.iter().max_by_key(|s| s.offset).expect("a segment is stored");
    let image = ftpde::store::codec::HEADER_LEN as u64 + victim.payload_bytes;
    std::fs::OpenOptions::new()
        .write(true)
        .open(store_dir.join(ftpde::store::disk::LOG_FILE))
        .unwrap()
        .set_len(victim.offset + image / 2)
        .unwrap();

    // The resume reports open's repair, heals it and matches the first
    // run bit for bit.
    let reopened = DiskBackend::open(&store_dir).unwrap();
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    let resumed =
        run_query_resumable(&plan, &config, &catalog, &FailureInjector::none(), &opts, &reopened);
    assert_eq!(resumed.results, first.results, "healed resume must be bit-identical");
    let events = rec.events();
    let corrupt: Vec<&obs::Event> = events.iter().filter(|e| e.name == "segment_corrupt").collect();
    assert_eq!(corrupt.len(), 1, "open's repair reaches the trace exactly once: {corrupt:?}");
    assert_eq!(resumed.segments_corrupt, 1);
    assert!(resumed.stages_skipped > 0, "the intact stages resume from the store");

    // The resumed trace folds into its report...
    assert_row_is_the_report(&events, &resumed);

    // ...and into the reopened store's stats, one `store.*` gauge each.
    let metrics = obs::fold(&events).metrics;
    let s = reopened.stats();
    for (name, want) in [
        ("store.logical_rows_written", s.logical_rows_written as f64),
        ("store.physical_rows_written", s.physical_rows_written as f64),
        ("store.physical_bytes_written", s.physical_bytes_written as f64),
        ("store.bytes_read", s.bytes_read as f64),
        ("store.fsyncs", s.fsyncs as f64),
        ("store.segments_committed", s.segments_committed as f64),
        ("store.corrupt_segments", s.corrupt_segments as f64),
    ] {
        assert_eq!(metrics.gauge(name), Some(want), "{name}");
    }
    assert_eq!(metrics.gauge("store.write_bytes_per_s"), s.write_bytes_per_s());
    assert_eq!(metrics.gauge("store.read_bytes_per_s"), s.read_bytes_per_s());
    assert_eq!(s.corrupt_segments, 1, "the repair is counted in the store's lifetime stats");
    assert_eq!(metrics.counter("engine.segments_corrupt_total"), 1);
    assert_eq!(metrics.counter("engine.queries_total"), 1);

    // The trace the folds read is an ordinary JSONL event log that the
    // conformance checker accepts.
    let parsed = obs::export::from_jsonl(&obs::export::to_jsonl(&events)).unwrap();
    assert_eq!(parsed, events);
    let check = check_trace("resumed", &parsed, None, &CheckOptions::default());
    assert_eq!(check.count(Severity::Error), 0, "{:?}", check.diagnostics);

    drop(reopened);
    let _ = std::fs::remove_dir_all(&store_dir);
}
