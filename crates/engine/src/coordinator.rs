//! The query coordinator: splits a plan into sub-plans at its
//! materialization points, schedules them partition-parallel on worker
//! threads (one per node), monitors for injected node failures, and
//! recovers — fine-grained (redeploy the failed node's sub-plan, as the
//! paper's XDB coordinator does) or coarse-grained (restart the whole
//! query, the classic parallel-database behaviour).
//!
//! The stage structure is exactly the paper's collapsed plan: the engine
//! reuses [`ftpde_core::collapse::CollapsedPlan`] on a structural mirror
//! of the engine plan, so the recovery granularity the cost model reasons
//! about is the granularity the engine actually executes.
//!
//! Since the pluggable store ([`crate::store`]) the coordinator runs over
//! any [`StoreBackend`] and treats storage-level corruption as a third
//! failure class next to node failures: a stage whose materialized input
//! turns out corrupt (checksum mismatch, torn write after a crash) is not
//! an error — the coordinator emits a `segment_corrupt` event, walks back
//! to the producing stage and re-executes forward from there.

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::cost::EstimateBreakdown;
use ftpde_obs::{Event, NoopRecorder, Recorder};
use ftpde_store::value::Row;
use ftpde_store::StoreBackend;

use crate::failure::FailureInjector;
use crate::ops::{merge_partials, run_stage, ExecCtx, Interrupted};
use crate::plan::{EOpId, EnginePlan, OpKind};
use crate::store::default_store;
use crate::sync::clock;
use crate::sync::plain::{thread, Arc};
use crate::sync::{AtomicU64, InterruptFlag, Ordering};
use crate::table::{Catalog, Distribution};

/// How the coordinator recovers from node failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRecovery {
    /// Redeploy only the failed node's sub-plan (all-mat, lineage and
    /// cost-based schemes).
    FineGrained,
    /// Restart the whole query, discarding all intermediates
    /// (no-mat (restart)).
    CoarseRestart,
}

/// Coordinator options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Recovery mode.
    pub recovery: EngineRecovery,
    /// Whole-query restarts after which a coarse run aborts (paper: 100).
    pub max_restarts: u32,
    /// Virtual milliseconds the global [`clock`] advances at each
    /// injected failure — the paper's repair time `tr`, in simulated
    /// time. Zero (the default) means failures recover instantaneously,
    /// the engine's historical behavior; the simulation harness sets it
    /// so recovery stretches observed spans without a real sleep.
    pub repair_ms: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { recovery: EngineRecovery::FineGrained, max_restarts: 100, repair_ms: 0 }
    }
}

/// Tees every event the run records into the process-global flight
/// recorder ([`ftpde_obs::flight::global`]) on top of the caller's
/// recorder — the engine's feed into the live telemetry plane. The ring
/// is always on, so `enabled()` is unconditionally `true`; the caller's
/// sink still gates its own copy, and with a [`NoopRecorder`] attached
/// the event is moved (not cloned) into the ring. Under `--cfg loom`
/// the global ring's primitives are loom types unusable outside a
/// model, so the tee degrades to a plain pass-through.
struct FlightTee<'a> {
    inner: &'a dyn Recorder,
}

impl Recorder for FlightTee<'_> {
    fn enabled(&self) -> bool {
        cfg!(not(loom)) || self.inner.enabled()
    }

    fn record(&self, event: Event) {
        #[cfg(not(loom))]
        {
            let flight = ftpde_obs::flight::global();
            if self.inner.enabled() {
                flight.record(event.clone());
                self.inner.record(event);
            } else {
                flight.record(event);
            }
        }
        #[cfg(loom)]
        self.inner.record(event);
    }
}

/// Why a worker attempt did not produce rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerError {
    /// The injector (or the stage's cancel flag) killed the node.
    Interrupted,
    /// A cross-stage input read as absent mid-run: the segment was
    /// demoted (corruption found by a concurrent reader) after the
    /// coordinator's pre-check passed. Carries the producing operator id.
    InputLost(u32),
}

impl From<Interrupted> for WorkerError {
    fn from(Interrupted: Interrupted) -> Self {
        WorkerError::Interrupted
    }
}

/// Outcome of one node's participation in a stage barrier.
#[derive(Debug, Clone, PartialEq)]
enum NodeOutcome {
    /// The node finished its sub-plan.
    Done(Vec<Row>),
    /// An injected failure killed the node (coarse recovery: the stage is
    /// doomed and the query restarts).
    Failed,
    /// A sibling's failure raised the stage's cancel flag; this node
    /// aborted early instead of finishing work the restart will discard.
    Cancelled,
    /// A cross-stage input vanished mid-run; the coordinator must re-run
    /// its input check (which rewinds to the producer).
    InputLost(u32),
}

/// Wall-clock accounting for one stage execution (or resume-skip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// The stage's root operator id.
    pub stage: u32,
    /// Wall-clock duration of the stage barrier (all nodes, including
    /// retries), microseconds. Zero for skipped stages.
    pub wall_us: u64,
    /// Fine-grained re-executions within this stage execution.
    pub retries: u64,
    /// `true` when the stage was resumed from the store without running.
    pub skipped: bool,
}

/// Outcome of a query run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Result rows per sink operator, in sink id order.
    pub results: Vec<(EOpId, Vec<Row>)>,
    /// Fine-grained per-node sub-plan re-executions.
    pub node_retries: u64,
    /// Coarse whole-query restarts.
    pub query_restarts: u32,
    /// `true` iff the coarse restart limit was hit.
    pub aborted: bool,
    /// Logical rows written to the fault-tolerant store by this run
    /// (counting each replica target, matching the cost model's view of
    /// materialization volume).
    pub rows_materialized: u64,
    /// Physical bytes this run committed to the store's backing medium.
    pub bytes_materialized: u64,
    /// Corrupt segments encountered (and recovered from) during this run.
    pub segments_corrupt: u64,
    /// Stages skipped because their output was already materialized in the
    /// supplied store (only nonzero for [`run_query_resumable`]). A skip
    /// trusts the store's metadata, and a disk store checksums a segment
    /// only when it is first read. So a skipped stage can still execute:
    /// when a consumer's read finds its segment corrupt, the input check
    /// rewinds to it, and every stage the rewind revisits and skips again
    /// counts again.
    pub stages_skipped: u64,
    /// Per-stage wall-clock accounting in execution order. One entry per
    /// stage execution: a coarse restart appends the re-executed stages
    /// again, so the list is a timeline, not a per-stage map.
    pub stage_timings: Vec<StageTiming>,
}

/// Runs `plan` under materialization configuration `config` on `catalog`'s
/// sharded database, injecting failures from `injector`. Uses the backend
/// selected by [`crate::store::BACKEND_ENV`] (in-memory by default).
///
/// # Panics
/// Panics if `config` does not match the plan shape or a fine-grained node
/// exceeds 10 000 attempts (an injector bug — the engine's injections are
/// finite by construction).
pub fn run_query(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    injector: &FailureInjector,
    opts: &RunOptions,
) -> RunReport {
    run_query_resumable(plan, config, catalog, injector, opts, &*default_store())
}

/// Like [`run_query`], additionally mirroring the execution into an
/// observability [`Recorder`] as `"engine"`-category events with
/// wall-clock microsecond timestamps measured from the call's start:
/// a coordinator-track span per stage (tid 0), a worker-track span per
/// completed node attempt (tid = node + 1), instants for injected node
/// failures, redeploys, materialization writes, corrupt segments, coarse
/// restarts and query termination (including a final `store_stats` instant
/// carrying the backend's measured throughput — the observed `tm(o)`).
/// With a [`NoopRecorder`] every site costs one branch.
///
/// When `pred` carries the cost model's estimate of this plan (see
/// [`ftpde_core::cost::FtEstimate::breakdown`]), stage spans are tagged
/// with their predicted costs (matched by root operator id) and a
/// `plan_estimate` instant is emitted, making the trace self-contained
/// for offline calibration ([`ftpde_obs::CalibrationReport`],
/// `ftpde obs --trace`). Note the engine's observed side is wall-clock
/// seconds while predictions are in cost units — calibration against
/// engine runs measures the unit mismatch too, which is the point.
#[allow(clippy::too_many_arguments)]
pub fn run_query_traced(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    injector: &FailureInjector,
    opts: &RunOptions,
    pred: Option<&EstimateBreakdown>,
    rec: &dyn Recorder,
) -> RunReport {
    run_query_resumable_traced(plan, config, catalog, injector, opts, &*default_store(), pred, rec)
}

/// Like [`run_query`], but resuming from (and writing to) an external
/// fault-tolerant `store` — the paper's §2.2 recovery contract across
/// *coordinator* restarts: a re-submitted query skips every sub-plan whose
/// output already survived in the store and re-executes only the rest.
/// With a [`ftpde_store::DiskBackend`] reopened from its manifest this
/// holds across a genuine process crash, not just a dropped coordinator.
///
/// Stages are skipped only when **all** their partitions are present
/// (non-sink stages with materializing roots); coarse restarts still clear
/// the store, as the `no-mat (restart)` scheme keeps no state by
/// definition. A skipped stage whose surviving segment later fails its
/// checksum on read is demoted and re-executed — corruption can delay
/// recovery but never wrong the result.
pub fn run_query_resumable(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    injector: &FailureInjector,
    opts: &RunOptions,
    store: &dyn StoreBackend,
) -> RunReport {
    run_query_resumable_traced(plan, config, catalog, injector, opts, store, None, &NoopRecorder)
}

/// [`run_query_resumable`] with the event mirroring and prediction
/// tagging of [`run_query_traced`].
#[allow(clippy::too_many_arguments)]
pub fn run_query_resumable_traced(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    injector: &FailureInjector,
    opts: &RunOptions,
    store: &dyn StoreBackend,
    pred: Option<&EstimateBreakdown>,
    rec: &dyn Recorder,
) -> RunReport {
    // Every event this run records — including those below with a no-op
    // caller sink — is mirrored into the always-on flight recorder.
    let tee = FlightTee { inner: rec };
    let rec: &dyn Recorder = &tee;
    let dag = plan.to_plan_dag();
    config.validate(&dag).expect("config matches plan");
    let collapsed = CollapsedPlan::collapse(&dag, config, 1.0);
    let dists = plan.distributions(catalog);
    let nodes = catalog.nodes();
    assert!(nodes > 0, "catalog has no tables");
    let node_retries = AtomicU64::new(0);
    let mut query_restarts = 0u32;
    let mut stages_skipped = 0u64;
    let mut segments_corrupt = 0u64;
    let mut input_recoveries = 0u64;
    let mut first_attempt = true;
    let mut stage_timings: Vec<StageTiming> = Vec::new();
    let stats_at_start = store.stats();
    let t0 = clock::now();
    let now_us = move || clock::elapsed(t0).as_micros() as u64;
    // Always-on metrics: the run is visible in the process-global
    // registry even when `rec` is a no-op. Per-query totals fold in at
    // the single `report` choke point below.
    ftpde_obs::global().counter_add("engine.queries_total", 1);

    if let Some(p) = pred {
        rec.record_with(|| {
            Event::instant("plan_estimate", "engine", now_us())
                .arg("pred_cost_s", p.dominant_cost)
                .arg("pred_runtime_s", p.dominant_runtime)
        });
    }

    // Stages in execution (topological) order. The loop below walks this
    // list by index rather than iterating directly so input corruption can
    // *back up*: when a stage's materialized input fails its checksum, the
    // cursor rewinds to the producing stage and re-executes forward.
    let stage_list: Vec<_> = collapsed.op_ids().collect();
    // Live per-query progress for `/queries` and `ftpde top`, labelled
    // with the query's sink operator. Stage/retry/restart updates below
    // are single atomic RMWs on the run's handle; the `report` choke
    // point finishes the entry.
    let progress = ftpde_obs::progress::global().start(
        stage_list.last().map_or_else(
            || "query".to_owned(),
            |&cid| plan.op(EOpId(collapsed.op(cid).root.0)).name.clone(),
        ),
        stage_list.len() as u64,
        pred.map(|p| p.dominant_runtime),
    );
    // Surface whatever a disk backend demoted while opening (crash debris).
    let drained = emit_corruptions(store, rec, &now_us);
    segments_corrupt += drained;
    progress.add_corrupt(drained);

    let report = |results: Vec<(EOpId, Vec<Row>)>,
                  aborted: bool,
                  query_restarts: u32,
                  stages_skipped: u64,
                  segments_corrupt: u64,
                  stage_timings: Vec<StageTiming>,
                  node_retries: u64| {
        let stats = store.stats();
        let g = ftpde_obs::global();
        g.counter_add("engine.node_retries_total", node_retries);
        g.counter_add("engine.query_restarts_total", u64::from(query_restarts));
        g.counter_add("engine.stages_skipped_total", stages_skipped);
        g.counter_add("engine.segments_corrupt_total", segments_corrupt);
        if aborted {
            g.counter_add("engine.queries_aborted_total", 1);
        }
        g.observe("engine.query_seconds", clock::elapsed(t0).as_secs_f64());
        let executed = stage_timings.iter().filter(|t| !t.skipped);
        let mut stages_total = 0u64;
        for t in executed {
            stages_total += 1;
            g.observe("engine.stage_seconds", t.wall_us as f64 / 1e6);
        }
        g.counter_add("engine.stages_total", stages_total);
        progress.set_materialized(
            stats.physical_bytes_written - stats_at_start.physical_bytes_written,
            stats.logical_rows_written - stats_at_start.logical_rows_written,
        );
        progress.complete(aborted);
        RunReport {
            results,
            node_retries,
            query_restarts,
            aborted,
            rows_materialized: stats.logical_rows_written - stats_at_start.logical_rows_written,
            bytes_materialized: stats.physical_bytes_written
                - stats_at_start.physical_bytes_written,
            segments_corrupt,
            stages_skipped,
            stage_timings,
        }
    };

    'query: loop {
        // A resumed first attempt keeps the store's surviving state; any
        // coarse restart discards everything (no-mat semantics).
        if !first_attempt {
            store.clear();
        }
        first_attempt = false;
        let mut results: Vec<(EOpId, Vec<Row>)> = Vec::new();
        let mut idx = 0usize;

        while idx < stage_list.len() {
            let cid = stage_list[idx];
            let c = collapsed.op(cid);
            let root = EOpId(c.root.0);
            let members: Vec<EOpId> = c.members.iter().map(|m| EOpId(m.0)).collect();

            // Resume: a non-sink stage whose output fully survived in the
            // store needs no re-execution. (`contains` is a metadata
            // check; if the segment later fails its checksum on read, the
            // consumer's input check below rewinds to this stage, by then
            // demoted to absent.)
            let is_sink_stage = plan.consumers(root).is_empty();
            if !is_sink_stage && (0..nodes).all(|n| store.contains(root.0, n)) {
                stages_skipped += 1;
                stage_timings.push(StageTiming {
                    stage: root.0,
                    wall_us: 0,
                    retries: 0,
                    skipped: true,
                });
                rec.record_with(|| {
                    Event::instant("stage_skipped", "engine", now_us()).arg("stage", root.0)
                });
                progress.stage_done();
                idx += 1;
                continue;
            }

            // Storage-level recovery: verify every cross-stage input is
            // actually readable before deploying workers. A corrupt
            // segment is demoted by the failed read; rewind to its
            // producer and re-execute forward from there.
            if let Some(producer) = first_unavailable_input(plan, &members, store, nodes) {
                let drained = emit_corruptions(store, rec, &now_us);
                segments_corrupt += drained;
                progress.add_corrupt(drained);
                let back = stage_list
                    .iter()
                    .position(|&pc| collapsed.op(pc).root.0 == producer)
                    .expect("producer of a collapsed input is an earlier stage root");
                debug_assert!(back <= idx, "inputs come from earlier stages");
                rec.record_with(|| {
                    Event::instant("input_rewind", "engine", now_us())
                        .arg("stage", root.0)
                        .arg("producer", producer)
                });
                input_recoveries += 1;
                ftpde_obs::global().counter_add("engine.input_rewinds_total", 1);
                assert!(
                    input_recoveries < 10_000,
                    "storage keeps corrupting faster than stages re-execute"
                );
                idx = back;
                continue;
            }

            let stage_start = now_us();
            let retries_before = node_retries.load(Ordering::Relaxed);
            // Raised by the first coarse-recovery failure so sibling
            // workers abort at their next batch boundary: the restart
            // discards their output anyway. Fine-grained workers recover
            // per-node and never consult it.
            let cancel = InterruptFlag::new();

            // Execute the stage on every node.
            let partials: Vec<NodeOutcome> = thread::scope(|s| {
                let handles: Vec<_> = (0..nodes)
                    .map(|node| {
                        let members = &members;
                        let node_retries = &node_retries;
                        let cancel = &cancel;
                        s.spawn(move || match opts.recovery {
                            EngineRecovery::FineGrained => {
                                let mut attempt = 0u32;
                                loop {
                                    let attempt_start = now_us();
                                    match run_stage_on_node(
                                        plan, members, root, node, attempt, catalog, store,
                                        injector, None,
                                    ) {
                                        Ok(rows) => {
                                            rec.record_with(|| {
                                                worker_span(
                                                    attempt_start,
                                                    now_us(),
                                                    root,
                                                    node,
                                                    attempt,
                                                    true,
                                                )
                                                .arg("rows", rows.len())
                                            });
                                            break NodeOutcome::Done(rows);
                                        }
                                        Err(WorkerError::InputLost(producer)) => {
                                            // Retrying cannot help: the
                                            // segment stays absent until
                                            // the coordinator rewinds to
                                            // its producer.
                                            break NodeOutcome::InputLost(producer);
                                        }
                                        Err(WorkerError::Interrupted) => {
                                            rec.record_with(|| {
                                                failure_instant(
                                                    now_us(),
                                                    attempt_start,
                                                    root,
                                                    node,
                                                    attempt,
                                                )
                                            });
                                            node_retries.fetch_add(1, Ordering::Relaxed);
                                            attempt += 1;
                                            assert!(
                                                attempt < 10_000,
                                                "injector never lets node finish"
                                            );
                                            // Repair time passes in
                                            // virtual time only.
                                            if opts.repair_ms > 0 {
                                                clock::advance(std::time::Duration::from_millis(
                                                    opts.repair_ms,
                                                ));
                                            }
                                            // Fine-grained recovery: the
                                            // failed node's sub-plan is
                                            // redeployed on the spot.
                                            rec.record_with(|| {
                                                Event::instant("redeploy", "engine", now_us())
                                                    .tid(node as u32 + 1)
                                                    .arg("stage", root.0)
                                                    .arg("node", node)
                                                    .arg("attempt", attempt)
                                            });
                                        }
                                    }
                                }
                            }
                            EngineRecovery::CoarseRestart => {
                                let attempt_start = now_us();
                                match run_stage_on_node(
                                    plan,
                                    members,
                                    root,
                                    node,
                                    query_restarts,
                                    catalog,
                                    store,
                                    injector,
                                    Some(cancel),
                                ) {
                                    Ok(rows) => {
                                        rec.record_with(|| {
                                            worker_span(
                                                attempt_start,
                                                now_us(),
                                                root,
                                                node,
                                                query_restarts,
                                                true,
                                            )
                                            .arg("rows", rows.len())
                                        });
                                        NodeOutcome::Done(rows)
                                    }
                                    Err(WorkerError::InputLost(producer)) => {
                                        NodeOutcome::InputLost(producer)
                                    }
                                    Err(WorkerError::Interrupted) => {
                                        // Distinguish a genuine injected
                                        // kill from a cooperative abort
                                        // after a sibling's kill
                                        // (should_fail is idempotent).
                                        if injector.should_fail(root.0, node, query_restarts) {
                                            cancel.set();
                                            rec.record_with(|| {
                                                failure_instant(
                                                    now_us(),
                                                    attempt_start,
                                                    root,
                                                    node,
                                                    query_restarts,
                                                )
                                            });
                                            // Repair time before the
                                            // restart, in virtual time.
                                            if opts.repair_ms > 0 {
                                                clock::advance(std::time::Duration::from_millis(
                                                    opts.repair_ms,
                                                ));
                                            }
                                            NodeOutcome::Failed
                                        } else {
                                            rec.record_with(|| {
                                                Event::instant(
                                                    "worker_cancelled",
                                                    "engine",
                                                    now_us(),
                                                )
                                                .tid(node as u32 + 1)
                                                .arg("stage", root.0)
                                                .arg("node", node)
                                                .arg("attempt", query_restarts)
                                            });
                                            NodeOutcome::Cancelled
                                        }
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });

            let stage_failed =
                partials.iter().any(|o| matches!(o, NodeOutcome::Failed | NodeOutcome::Cancelled));
            let lost_input = partials.iter().any(|o| matches!(o, NodeOutcome::InputLost(_)));
            stage_timings.push(StageTiming {
                stage: root.0,
                wall_us: now_us() - stage_start,
                retries: node_retries.load(Ordering::Relaxed) - retries_before,
                skipped: false,
            });
            progress.add_retries(node_retries.load(Ordering::Relaxed) - retries_before);
            rec.record_with(|| {
                let mut span = Event::span(
                    format!("stage {}", root.0),
                    "engine",
                    stage_start,
                    now_us() - stage_start,
                )
                .arg("stage", root.0)
                .arg("nodes", nodes)
                .arg("failed", stage_failed || lost_input);
                if let Some(s) = pred.and_then(|p| p.by_root(root.0)) {
                    span = span
                        .arg("pred_run_s", s.run_cost)
                        .arg("pred_mat_s", s.mat_cost)
                        .arg("pred_rec_s", s.recovery_cost)
                        .arg("pred_cost_s", s.ft_cost)
                        .arg("dominant", s.on_dominant_path);
                }
                span
            });

            if !stage_failed && lost_input {
                // A worker observed a pre-checked input vanish (a
                // concurrent read demoted the segment). Surface the
                // corruption and re-enter the same stage: the input check
                // will find the slot absent and rewind to its producer.
                let drained = emit_corruptions(store, rec, &now_us);
                segments_corrupt += drained;
                progress.add_corrupt(drained);
                continue;
            }
            if stage_failed {
                // A node died under coarse recovery: restart the query.
                query_restarts += 1;
                if query_restarts >= opts.max_restarts {
                    rec.record_with(|| {
                        Event::instant("query_aborted", "engine", now_us())
                            .arg("restarts", query_restarts)
                    });
                    return report(
                        Vec::new(),
                        true,
                        query_restarts,
                        stages_skipped,
                        segments_corrupt,
                        stage_timings,
                        node_retries.load(Ordering::Relaxed),
                    );
                }
                rec.record_with(|| {
                    Event::instant("query_restart", "engine", now_us())
                        .arg("attempt", query_restarts)
                });
                progress.restart();
                continue 'query;
            }
            let partials: Vec<Vec<Row>> = partials
                .into_iter()
                .map(|o| match o {
                    NodeOutcome::Done(rows) => rows,
                    other => unreachable!("non-Done outcome {other:?} handled above"),
                })
                .collect();

            // Root output handling: gather points (aggregations, top-k)
            // merge globally and are broadcast; other roots stay
            // partitioned.
            let root_op = plan.op(root);
            let is_sink = plan.consumers(root).is_empty();
            let merge_ctx = ExecCtx { catalog, node: 0, interrupted: &|| false };
            if root_op.kind.is_gather() {
                let global = match dists[root_op.inputs[0].index()] {
                    // Replicated input: every node's partial already is the
                    // global answer.
                    Distribution::Replicated => partials.into_iter().next().unwrap(),
                    Distribution::Partitioned => match &root_op.kind {
                        OpKind::HashAgg { group_cols, aggs } => {
                            merge_partials(&partials, group_cols, aggs, &merge_ctx)
                                .expect("coordinator-side merge cannot be interrupted")
                        }
                        OpKind::TopK { sort_col, ascending, k } => {
                            let all: Vec<Row> = partials.into_iter().flatten().collect();
                            crate::ops::top_k(&all, *sort_col, *ascending, *k, &merge_ctx)
                                .expect("coordinator-side merge cannot be interrupted")
                        }
                        _ => unreachable!("is_gather covers exactly these kinds"),
                    },
                };
                if is_sink {
                    results.push((root, global));
                } else {
                    let before = store.stats().physical_bytes_written;
                    let rows_n = global.len();
                    store.put_replicated(root.0, global, nodes);
                    rec.record_with(|| {
                        Event::instant("materialize", "engine", now_us())
                            .arg("stage", root.0)
                            .arg("rows", rows_n)
                            .arg("bytes", store.stats().physical_bytes_written - before)
                            .arg("replicated", true)
                    });
                }
            } else if config.materializes(c.root) {
                // Sinks are non-materializable (EnginePlan::finish), so a
                // materialized non-agg root keeps its per-node partitions.
                for (node, rows) in partials.into_iter().enumerate() {
                    let before = store.stats().physical_bytes_written;
                    let rows_n = rows.len();
                    store.put(root.0, node, rows);
                    rec.record_with(|| {
                        Event::instant("materialize", "engine", now_us())
                            .tid(node as u32 + 1)
                            .arg("stage", root.0)
                            .arg("node", node)
                            .arg("rows", rows_n)
                            .arg("bytes", store.stats().physical_bytes_written - before)
                    });
                }
            } else {
                // Collapse boundaries are materialization points or sinks.
                debug_assert!(is_sink);
                let rows = match dists[root.index()] {
                    Distribution::Replicated => partials.into_iter().next().unwrap(),
                    Distribution::Partitioned => partials.into_iter().flatten().collect(),
                };
                results.push((root, rows));
            }
            progress.stage_done();
            let s = store.stats();
            progress.set_materialized(
                s.physical_bytes_written - stats_at_start.physical_bytes_written,
                s.logical_rows_written - stats_at_start.logical_rows_written,
            );
            idx += 1;
        }

        segments_corrupt += emit_corruptions(store, rec, &now_us);
        rec.record_with(|| store_stats_instant(store, now_us()));
        rec.record_with(|| {
            Event::instant("query_completed", "engine", now_us())
                .arg("node_retries", node_retries.load(Ordering::Relaxed))
                .arg("query_restarts", query_restarts)
                .arg(
                    "rows_materialized",
                    store.stats().logical_rows_written - stats_at_start.logical_rows_written,
                )
                .arg("stages_skipped", stages_skipped)
        });
        return report(
            results,
            false,
            query_restarts,
            stages_skipped,
            segments_corrupt,
            stage_timings,
            node_retries.load(Ordering::Relaxed),
        );
    }
}

/// Checks that every cross-stage input the stage will read is actually
/// available (readable, checksum-clean) on every node. Returns the
/// producing operator id of the first unavailable input. Reads via
/// `get`, which both verifies integrity and warms the backend's cache
/// for the worker threads.
fn first_unavailable_input(
    plan: &EnginePlan,
    members: &[EOpId],
    store: &dyn StoreBackend,
    nodes: usize,
) -> Option<u32> {
    for &m in members {
        for p in &plan.op(m).inputs {
            if members.contains(p) {
                continue;
            }
            for node in 0..nodes {
                if store.get(p.0, node).is_none() {
                    return Some(p.0);
                }
            }
        }
    }
    None
}

/// Drains the store's corruption log, emitting one `segment_corrupt`
/// instant per entry. Returns how many were drained.
fn emit_corruptions(store: &dyn StoreBackend, rec: &dyn Recorder, now_us: &dyn Fn() -> u64) -> u64 {
    let corruptions = store.drain_corruptions();
    for c in &corruptions {
        rec.record_with(|| {
            let mut ev = Event::instant("segment_corrupt", "engine", now_us())
                .arg("op", c.op)
                .arg("reason", c.reason.as_str());
            if let Some(n) = c.node {
                ev = ev.arg("node", n);
            }
            ev
        });
    }
    corruptions.len() as u64
}

/// The final `store_stats` instant: the backend's lifetime accounting,
/// including measured write throughput — the observed `tm(o)` that
/// `ftpde_obs::calibrate` joins against the cost model's assumptions.
fn store_stats_instant(store: &dyn StoreBackend, at_us: u64) -> Event {
    let s = store.stats();
    let mut ev = Event::instant("store_stats", "engine", at_us)
        .arg("logical_rows_written", s.logical_rows_written)
        .arg("physical_rows_written", s.physical_rows_written)
        .arg("physical_bytes_written", s.physical_bytes_written)
        .arg("bytes_read", s.bytes_read)
        .arg("fsyncs", s.fsyncs)
        .arg("segments_committed", s.segments_committed)
        .arg("corrupt_segments", s.corrupt_segments);
    if let Some(v) = s.write_bytes_per_s() {
        ev = ev.arg("write_bytes_per_s", v);
    }
    if let Some(v) = s.read_bytes_per_s() {
        ev = ev.arg("read_bytes_per_s", v);
    }
    ev
}

/// A completed worker-attempt span on the node's track (tid = node + 1;
/// tid 0 is the coordinator's stage track).
fn worker_span(
    start_us: u64,
    end_us: u64,
    root: EOpId,
    node: usize,
    attempt: u32,
    ok: bool,
) -> Event {
    Event::span("attempt", "engine", start_us, end_us.saturating_sub(start_us))
        .tid(node as u32 + 1)
        .arg("stage", root.0)
        .arg("node", node)
        .arg("attempt", attempt)
        .arg("ok", ok)
}

/// An injected-failure instant on the node's track. `lost_s` is the
/// wall-clock work discarded with the attempt — the engine redeploys
/// immediately (no repair window), so it is also the failure's whole
/// observed recovery cost.
fn failure_instant(at_us: u64, start_us: u64, root: EOpId, node: usize, attempt: u32) -> Event {
    Event::instant("node_failure", "engine", at_us)
        .tid(node as u32 + 1)
        .arg("stage", root.0)
        .arg("node", node)
        .arg("attempt", attempt)
        .arg("lost_s", at_us.saturating_sub(start_us) as f64 / 1e6)
}

/// Executes the sub-plan `members` (rooted at `root`) on one node,
/// checking the failure injector (and, under coarse recovery, the
/// stage's shared [`InterruptFlag`]) at batch boundaries.
#[allow(clippy::too_many_arguments)]
fn run_stage_on_node(
    plan: &EnginePlan,
    members: &[EOpId],
    root: EOpId,
    node: usize,
    attempt: u32,
    catalog: &Catalog,
    store: &dyn StoreBackend,
    injector: &FailureInjector,
    cancel: Option<&InterruptFlag>,
) -> Result<Vec<Row>, WorkerError> {
    let interrupted =
        || injector.should_fail(root.0, node, attempt) || cancel.is_some_and(InterruptFlag::is_set);
    // A planned kill takes the node down even when its partition holds no
    // rows — without this check an empty-input attempt would never reach a
    // batch boundary and the injection would silently not fire.
    if interrupted() {
        return Err(WorkerError::Interrupted);
    }
    // Cross-stage inputs come from the fault-tolerant store, one read per
    // member input. The coordinator's input check ran `get` on each of them
    // before deploying this worker — but a concurrent reader can demote the
    // segment between that check and this read (corruption discovered on
    // `get`), so a miss here is a recoverable lost-input, not a bug.
    let mut stored: Vec<(EOpId, Arc<Vec<Row>>)> = Vec::new();
    for &m in members {
        for &p in &plan.op(m).inputs {
            if !members.contains(&p) {
                stored.push((p, store.get(p.0, node).ok_or(WorkerError::InputLost(p.0))?));
            }
        }
    }
    let stored: Vec<(EOpId, &[Row])> =
        stored.iter().map(|(p, rows)| (*p, rows.as_slice())).collect();
    let ctx = ExecCtx { catalog, node, interrupted: &interrupted };
    Ok(run_stage(plan, members, root, &stored, &ctx)?)
}
