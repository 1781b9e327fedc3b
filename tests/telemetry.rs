//! End-to-end test of the live telemetry plane: a failure-injected Q3
//! run on a disk store hits a torn (corrupt) segment, the always-on
//! flight recorder dumps its ring to JSONL, the dump replays through the
//! trace-conformance checker without parse errors, and the HTTP
//! telemetry endpoints serve the aftermath — per-query progress on
//! `/queries`, dump counters on `/healthz`, the ring itself on
//! `/flight` and Prometheus text on `/metrics`.
//!
//! One test function on purpose: the flight recorder's dump directory
//! is process-global state, and the endpoints read process-global
//! registries, so the scenario runs as a single ordered story.
#![cfg(not(miri))]

use std::path::PathBuf;

use ftpde::analysis::prelude::*;
use ftpde::core::config::MatConfig;
use ftpde::engine::prelude::*;
use ftpde::obs;
use ftpde::tpch::datagen::Database;

const SF: f64 = 0.001;
const SEED: u64 = 42;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftpde-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn flight_dump_from_injected_corruption_replays_and_serves() {
    let store_dir = scratch("store");
    let flight_dir = scratch("flight");
    std::fs::create_dir_all(&flight_dir).unwrap();
    let flight = obs::flight::global();
    flight.set_dump_dir(Some(flight_dir.clone()));

    // A failure-injected Q3 run, fully materialized to disk. The flight
    // recorder rides along on every engine run — no recorder was asked
    // for, yet the ring fills.
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let nodes = 3;
    let catalog = load_catalog(&Database::generate(SF, SEED), nodes);
    let stage_roots: Vec<u32> = plan.op_ids().map(|id| id.0).collect();
    let injector = FailureInjector::random_first_attempts(&stage_roots, nodes, 0.4, 7);
    let first = {
        let disk = DiskBackend::open(&store_dir).unwrap();
        run_query_resumable(&plan, &config, &catalog, &injector, &RunOptions::default(), &disk)
    };
    assert!(flight.total_recorded() > 0, "the flight ring must fill on any engine run");

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

    // The resume detects the corruption, heals it, and — the tentpole —
    // the detection anomaly snapshots the ring to disk.
    let dumps_before = flight.dump_count();
    let corrupt_total = || obs::global().snapshot().counter("store.corrupt_segments_total");
    let corrupt_before = corrupt_total();
    let reopened = DiskBackend::open(&store_dir).unwrap();
    assert_eq!(corrupt_total() - corrupt_before, 1, "open's repair reaches the live counter");
    let resumed = run_query_resumable(
        &plan,
        &config,
        &catalog,
        &FailureInjector::none(),
        &RunOptions::default(),
        &reopened,
    );
    assert_eq!(resumed.results, first.results, "healed resume must be bit-identical");
    assert!(resumed.segments_corrupt >= 1, "the torn segment must be detected");
    assert!(flight.dump_count() > dumps_before, "corruption must trigger a flight dump");
    assert_eq!(flight.dump_write_errors(), 0);

    // The dump file exists, names its trigger, parses as the same JSONL
    // schema every other tool reads, and ends on the trigger event.
    let dump_files: Vec<PathBuf> = std::fs::read_dir(&flight_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().contains("segment_corrupt")))
        .collect();
    assert!(!dump_files.is_empty(), "a segment_corrupt-triggered dump file must exist");
    let text = std::fs::read_to_string(&dump_files[0]).unwrap();
    let events =
        obs::export::from_jsonl(&text).expect("flight dump must replay without parse errors");
    assert!(!events.is_empty());
    assert_eq!(
        events.last().map(|e| e.name.as_str()),
        Some("segment_corrupt"),
        "the dump window must end on its trigger"
    );

    // The conformance checker replays the dump: a ring snapshot is a
    // truncated window, so findings are allowed — parse failures and
    // panics are not.
    let replay =
        check_trace(&dump_files[0].to_string_lossy(), &events, None, &CheckOptions::default());
    let _ = ReportSet::new(vec![replay]);

    // Endpoint smoke, in-process: serve the global registries and poll
    // exactly what `ftpde top` polls.
    let srv = obs::serve(obs::global()).unwrap();
    let addr = srv.addr();

    let (status, body) = obs::serve::http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let health: serde::Value = serde_json::from_str(&body).unwrap();
    let dumps =
        health.get("flight").and_then(|f| f.get("dumps")).and_then(serde::Value::as_u64).unwrap();
    assert!(dumps >= 1, "dump count must surface on /healthz: {body}");

    let (status, body) = obs::serve::http_get(addr, "/queries").unwrap();
    assert_eq!(status, 200);
    let snap: obs::ProgressSnapshot = serde_json::from_str(&body).unwrap();
    let healed = snap
        .queries
        .iter()
        .find(|q| q.segments_corrupt >= 1)
        .expect("the healed run must report its corruption on /queries");
    assert_eq!(healed.state, "completed");
    assert!(healed.stages_total >= 1);

    let (status, body) = obs::serve::http_get(addr, "/flight").unwrap();
    assert_eq!(status, 200);
    let fl: serde::Value = serde_json::from_str(&body).unwrap();
    assert!(fl.get("recorded").and_then(serde::Value::as_u64).unwrap() > 0);
    assert!(
        fl.get("events").and_then(serde::Value::as_array).is_some_and(|a| !a.is_empty()),
        "{body}"
    );

    let (status, body) = obs::serve::http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("obs_flight_dumps_total"), "{body}");

    srv.stop();
    flight.set_dump_dir(None);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&flight_dir);
}
