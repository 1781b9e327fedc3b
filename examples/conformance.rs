//! Conformance-gate driver: produce traced, failure-injected runs for CI
//! to audit.
//!
//! The example writes
//!
//! * `target/obs/engine_q3_all_fine.jsonl` — TPC-H Q3 on the engine,
//!   everything materialized, fine-grained recovery, with injected
//!   worker failures on every stage's first attempts;
//! * `target/obs/engine_q1_none_coarse.jsonl` — Q1 with nothing
//!   materialized under coarse restart, one injected failure forcing a
//!   full query restart;
//! * `target/obs/engine_q3_resume_corrupt.jsonl` — Q3, everything
//!   materialized, resumed from a disk store in which one byte of a
//!   segment the sink reads was flipped: the sink's input check finds
//!   the bad checksum and rewinds to the producer;
//! * `target/obs/sim_q1_{allmat,nomat_lineage,nomat_restart}.jsonl` —
//!   the simulator's three baseline schemes (§5.2) replaying a generated
//!   failure trace.
//!
//! CI replays every JSONL file through `ftpde check --trace`, so the
//! recovery protocol the traces exhibit is verified by the FT101…FT108
//! conformance passes — the example also runs the checker in-process and
//! exits nonzero if any trace fails, keeping it useful standalone.
//!
//! Run with `cargo run --release --example conformance`.

use ftpde::analysis::prelude::*;
use ftpde::cluster::prelude::*;
use ftpde::core::prelude::*;
use ftpde::engine::prelude::*;
use ftpde::obs::{export, Event, MemoryRecorder};
use ftpde::sim::prelude::*;
use ftpde::tpch::datagen::Database;
use ftpde::tpch::prelude::*;

const NODES: usize = 3;

/// One recorded trace plus the stage plan to audit it against.
struct Traced {
    file: &'static str,
    events: Vec<Event>,
    stage_plan: StagePlan,
}

fn catalog() -> Catalog {
    load_catalog(&Database::generate(0.002, 7), NODES)
}

/// Q3, everything materialized, fine-grained recovery, injected worker
/// failures on first attempts of every collapsed stage.
fn engine_fine() -> Traced {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let roots: Vec<u32> = sp.stages().iter().map(|s| s.id as u32).collect();
    let injector = FailureInjector::random_first_attempts(&roots, NODES, 0.5, 11);
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    run_query(&plan, &config, &catalog(), &injector, &opts);
    Traced { file: "engine_q3_all_fine.jsonl", events: rec.events(), stage_plan: sp }
}

/// Q1, nothing materialized, coarse restart: one injected failure aborts
/// the first query attempt, the second runs clean.
fn engine_coarse() -> Traced {
    let plan = q1_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::none(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let first = sp.stages()[0].id as u32;
    let injector = FailureInjector::with([Injection { stage: first, node: 0, attempt: 0 }]);
    let rec = MemoryRecorder::new();
    let opts = RunOptions {
        recovery: EngineRecovery::CoarseRestart,
        max_restarts: 10,
        rec: &rec,
        ..Default::default()
    };
    run_query(&plan, &config, &catalog(), &injector, &opts);
    Traced { file: "engine_q1_none_coarse.jsonl", events: rec.events(), stage_plan: sp }
}

/// Q3, everything materialized, checkpointed to a disk store in a
/// temporary directory. One byte of a segment the sink reads is flipped
/// (inside its image, so the reopened store keeps the slot), and
/// the resumed run heals it: the non-sink stages skip, then the sink's
/// input check reports `segment_corrupt` and `input_rewind`, and the
/// producer re-executes. The directory is removed afterwards.
fn engine_resume_corrupt() -> Traced {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let sp = StagePlan::new(&dag, &config, 1.0);
    let catalog = catalog();
    let dir = std::env::temp_dir().join(format!("ftpde-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |store: &DiskBackend, rec: &MemoryRecorder| {
        let opts = RunOptions { rec, ..Default::default() };
        run_query_resumable(&plan, &config, &catalog, &FailureInjector::none(), &opts, store);
    };
    run(&DiskBackend::open(&dir).expect("open store"), &MemoryRecorder::new());

    let input = plan.op(plan.sinks()[0]).inputs[0];
    let store = ftpde::store::inspect(&dir).expect("inspect store");
    let victim = store.segments.iter().find(|s| s.op == input.0).expect("sink input is stored");
    let log = dir.join(ftpde::store::disk::LOG_FILE);
    let mut bytes = std::fs::read(&log).expect("read log");
    let last =
        victim.offset as usize + ftpde::store::codec::HEADER_LEN + victim.payload_bytes as usize;
    bytes[last - 1] ^= 0x01;
    std::fs::write(&log, &bytes).expect("write log");

    let rec = MemoryRecorder::new();
    run(&DiskBackend::open(&dir).expect("reopen store"), &rec);
    std::fs::remove_dir_all(&dir).expect("remove store");
    Traced { file: "engine_q3_resume_corrupt.jsonl", events: rec.events(), stage_plan: sp }
}

/// Q1 in the simulator under one baseline scheme against a generated
/// failure trace.
fn sim_baseline(scheme: Scheme, file: &'static str) -> Traced {
    let cluster = ClusterConfig::new(10, 600.0, 1.0);
    let plan = Query::Q1.plan(1.0, &CostModel::xdb_calibrated());
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, ..Default::default() };
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let failures = FailureTrace::generate(&cluster, horizon, 7);
    let config = scheme.select_config(&plan, &cluster).expect("Q1 plan is valid");
    simulate(&plan, &config, scheme.recovery(), &cluster, &failures, &opts);
    let sp = StagePlan::new(&plan, &config, opts.pipe_const);
    Traced { file, events: rec.events(), stage_plan: sp }
}

fn main() {
    let obs_dir = std::path::Path::new("target/obs");
    std::fs::create_dir_all(obs_dir).expect("create target/obs");

    let traces = vec![
        engine_fine(),
        engine_coarse(),
        engine_resume_corrupt(),
        sim_baseline(Scheme::AllMat, "sim_q1_allmat.jsonl"),
        sim_baseline(Scheme::NoMatLineage, "sim_q1_nomat_lineage.jsonl"),
        sim_baseline(Scheme::NoMatRestart, "sim_q1_nomat_restart.jsonl"),
    ];

    let mut dirty = 0usize;
    for t in &traces {
        let path = obs_dir.join(t.file);
        export::write_file(&path, &export::to_jsonl(&t.events)).expect("write trace");
        let report = check_trace(t.file, &t.events, Some(&t.stage_plan), &CheckOptions::default());
        if report.is_clean() {
            println!("{}: {} events, conformant", path.display(), t.events.len());
        } else {
            dirty += 1;
            print!("{}", report.render());
        }
    }

    assert_eq!(dirty, 0, "{dirty} trace(s) failed conformance");
}
