//! The query coordinator: splits a plan into sub-plans at its
//! materialization points, schedules them partition-parallel on worker
//! threads (one per node), monitors for injected node failures, and
//! recovers — fine-grained (redeploy the failed node's sub-plan, as the
//! paper's XDB coordinator does) or coarse-grained (restart the whole
//! query, the classic parallel-database behaviour).
//!
//! A node kill takes effect in one place: the injector check a worker
//! makes before the node reads its inputs. Both recovery modes run the same
//! worker loop. Under coarse recovery the siblings of a killed node finish
//! their attempt, and the coordinator discards their output when it
//! restarts the query at the stage barrier.
//!
//! The stage structure is exactly the paper's collapsed plan: the engine
//! reuses [`ftpde_core::collapse::CollapsedPlan`] on a structural mirror
//! of the engine plan, so the recovery granularity the cost model reasons
//! about is the granularity the engine actually executes.
//!
//! The coordinator runs over any [`StoreBackend`] and treats
//! storage-level corruption as a third failure class next to node
//! failures: a stage whose materialized input turns out corrupt (checksum
//! mismatch, torn write after a crash) is not an error — the coordinator
//! emits a `segment_corrupt` event, walks back to the producing stage and
//! re-executes forward from there.
//!
//! Every fact about a run is emitted once, as a private `Fact`, on the
//! coordinator's thread: workers hand theirs back at the stage barrier.
//! One fold (`Run::emit`) adds each fact to the [`RunReport`] and, when
//! the caller's recorder is enabled, records it as one trace event. The
//! run's query row and its `engine.*` metrics are folds of that trace
//! ([`ftpde_obs::fold()`]), so every channel agrees with the report, and the
//! trace's order is deterministic.

use std::time::Instant;

use ftpde_core::collapse::CollapsedPlan;
use ftpde_core::config::MatConfig;
use ftpde_core::cost::EstimateBreakdown;
use ftpde_obs::{Event, NoopRecorder, Recorder};
use ftpde_store::value::Row;
use ftpde_store::{CorruptSegment, MemBackend, StoreBackend, StoreStats};

use crate::failure::FailureInjector;
use crate::ops::{merge_aggregates, run_stage, sorted_top_k, ExecCtx};
use crate::plan::{EOpId, EnginePlan, OpKind};
use crate::sync::clock;
use crate::sync::plain::{thread, Arc};
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
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
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
    /// Receives the run's `"engine"` events, stamped in microseconds from
    /// the run's start: a span per stage (tid 0) and per completed node
    /// attempt (tid = node + 1), and instants for failures, redeploys,
    /// writes, corrupt segments, restarts, the store's measured throughput
    /// (the observed `tm(o)`) and termination. Under the default
    /// [`NoopRecorder`] no event is built. [`ftpde_obs::fold()`] turns the
    /// trace into the run's query row and metrics.
    pub rec: &'a dyn Recorder,
    /// The cost model's estimate of this plan
    /// ([`ftpde_core::cost::FtEstimate::breakdown`]): tags each stage span
    /// with its predicted costs (by root operator id), opens the trace with
    /// a `plan_estimate` instant and gives the query row its predicted
    /// runtime, so the trace is self-contained for calibration
    /// ([`ftpde_obs::CalibrationReport`]). Predictions are in cost units,
    /// engine spans in wall-clock seconds.
    pub pred: Option<&'a EstimateBreakdown>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            recovery: EngineRecovery::FineGrained,
            max_restarts: 100,
            repair_ms: 0,
            rec: &NoopRecorder,
            pred: None,
        }
    }
}

/// Outcome of one node attempt, and of the node's part in a stage barrier.
#[derive(Debug, Clone, PartialEq)]
enum NodeOutcome {
    /// The node finished its sub-plan.
    Done(Vec<Row>),
    /// An injected failure killed the node before it read its inputs
    /// (coarse recovery: the stage is doomed and the query restarts).
    Failed,
    /// A cross-stage input read as absent: the worker's read found the
    /// segment corrupt and demoted it after the coordinator's input check
    /// passed. Carries the producing operator id; the coordinator must
    /// re-run its input check, which rewinds to the producer.
    InputLost(u32),
}

/// Wall-clock accounting for one stage execution (or resume-skip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// The stage's root operator id.
    pub stage: u32,
    /// Wall-clock duration of the stage barrier (all nodes, including
    /// retries), microseconds: the `dur_us` of the stage's trace span.
    /// Zero for skipped stages.
    pub wall_us: u64,
    /// Fine-grained re-executions within this stage execution.
    pub retries: u64,
    /// `true` when the stage was resumed from the store without running.
    pub skipped: bool,
}

/// Outcome of a query run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Result rows per sink operator, in sink id order.
    pub results: Vec<(EOpId, Vec<Row>)>,
    /// Fine-grained per-node sub-plan re-executions.
    pub node_retries: u64,
    /// Coarse whole-query restarts, counting the failure that aborted the
    /// run.
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
/// sharded database over a fresh in-memory store, injecting failures from
/// `injector`.
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
    run_query_resumable(plan, config, catalog, injector, opts, &MemBackend::new())
}

/// Like [`run_query`], but resuming from (and writing to) an external
/// fault-tolerant `store` — the paper's §2.2 recovery contract across
/// *coordinator* restarts: a re-submitted query skips every sub-plan whose
/// output already survived in the store and re-executes only the rest.
/// With a [`ftpde_store::DiskBackend`] reopened from its checkpoint log this
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
    let dag = plan.to_plan_dag();
    config.validate(&dag).expect("config matches plan");
    let collapsed = CollapsedPlan::collapse(&dag, config, 1.0);
    let dists = plan.distributions(catalog);
    let nodes = catalog.nodes();
    assert!(nodes > 0, "catalog has no tables");

    // Stages in execution (topological) order. The loop below walks this
    // list by index rather than iterating directly so input corruption can
    // *back up*: when a stage's materialized input fails its checksum, the
    // cursor rewinds to the producing stage and re-executes forward.
    let stage_list: Vec<_> = collapsed.op_ids().collect();
    let mut run = Run::start(*opts, store, nodes);

    'query: loop {
        // A resumed first attempt keeps the store's surviving state; any
        // coarse restart discards everything (no-mat semantics).
        if run.report.query_restarts > 0 {
            store.clear();
        }
        let mut results: Vec<(EOpId, Vec<Row>)> = Vec::new();
        let mut idx = 0usize;

        while idx < stage_list.len() {
            let cid = stage_list[idx];
            let c = collapsed.op(cid);
            let (root, stage) = (EOpId(c.root.0), c.root.0);
            let members: Vec<EOpId> = c.members.iter().map(|m| EOpId(m.0)).collect();

            // Resume: a non-sink stage whose output fully survived in the
            // store needs no re-execution. (`contains` is a metadata
            // check; if the segment later fails its checksum on read, the
            // consumer's input check below rewinds to this stage, by then
            // demoted to absent.)
            let is_sink = plan.consumers(root).is_empty();
            if !is_sink && (0..nodes).all(|n| store.contains(stage, n)) {
                run.emit(Fact::StageSkipped { stage });
                idx += 1;
                continue;
            }

            // Storage-level recovery: verify every cross-stage input is
            // actually readable before deploying workers. A corrupt
            // segment is demoted by the failed read; rewind to its
            // producer and re-execute forward from there.
            if let Some(producer) = first_unavailable_input(plan, &members, store, nodes) {
                run.drain_corruptions();
                let back = stage_list
                    .iter()
                    .position(|&pc| collapsed.op(pc).root.0 == producer)
                    .expect("producer of a collapsed input is an earlier stage root");
                debug_assert!(back <= idx, "inputs come from earlier stages");
                run.emit(Fact::InputRewind { stage, producer });
                assert!(
                    run.input_rewinds < 10_000,
                    "storage keeps corrupting faster than stages re-execute"
                );
                idx = back;
                continue;
            }

            // One node's part in the stage, and the facts it learned. Its
            // first attempt is its own attempt 0 under fine-grained
            // recovery and the query restart count under coarse recovery:
            // the coordinate the injector addresses. The worker shares only
            // the store (and read-only inputs) with the coordinator.
            let (recovery, repair_ms, t0) = (opts.recovery, opts.repair_ms, run.t0);
            let first_attempt = match recovery {
                EngineRecovery::FineGrained => 0,
                EngineRecovery::CoarseRestart => run.report.query_restarts,
            };
            let run_node = |node: usize| {
                let (mut attempt, mut facts) = (first_attempt, Vec::new());
                loop {
                    let start_us = micros_since(t0);
                    let outcome = run_stage_on_node(
                        plan, &members, root, node, attempt, catalog, store, injector,
                    );
                    let end_us = micros_since(t0);
                    if let NodeOutcome::Done(rows) = &outcome {
                        let rows = rows.len();
                        facts.push(Fact::Attempt { stage, node, attempt, start_us, end_us, rows });
                    }
                    // A lost input is not retried: the segment stays absent
                    // until the coordinator rewinds to its producer.
                    if !matches!(outcome, NodeOutcome::Failed) {
                        break (outcome, facts);
                    }
                    facts.push(Fact::NodeFailure { stage, node, attempt, start_us, end_us });
                    // Repair time passes in virtual time only.
                    if repair_ms > 0 {
                        clock::advance(std::time::Duration::from_millis(repair_ms));
                    }
                    // Coarse recovery gives up here: the stage is doomed, its
                    // siblings finish their attempt and the query restarts at
                    // the barrier.
                    if recovery == EngineRecovery::CoarseRestart {
                        break (outcome, facts);
                    }
                    // Fine-grained recovery: the failed node's sub-plan is
                    // redeployed on the spot.
                    attempt += 1;
                    assert!(attempt < 10_000, "injector never lets node finish");
                    let at_us = micros_since(t0);
                    facts.push(Fact::Redeploy { stage, node, attempt, at_us });
                }
            };

            // Execute the stage on every node, then emit what the workers
            // learned, in node order, before the stage span.
            let stage_start = micros_since(t0);
            let partials: Vec<(NodeOutcome, Vec<Fact>)> = thread::scope(|s| {
                let handles: Vec<_> =
                    (0..nodes).map(|node| s.spawn(move || run_node(node))).collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });
            let wall_us = micros_since(t0) - stage_start;
            let mut outcomes = Vec::with_capacity(nodes);
            for (outcome, facts) in partials {
                facts.into_iter().for_each(|f| run.emit(f));
                outcomes.push(outcome);
            }
            let stage_failed = outcomes.iter().any(|o| matches!(o, NodeOutcome::Failed));
            let lost_input = outcomes.iter().any(|o| matches!(o, NodeOutcome::InputLost(_)));
            let failed = stage_failed || lost_input;
            run.emit(Fact::Stage { stage, start_us: stage_start, wall_us, failed });

            if !stage_failed && lost_input {
                // A worker observed a pre-checked input vanish (a
                // concurrent read demoted the segment). Surface the
                // corruption and re-enter the same stage: the input check
                // will find the slot absent and rewind to its producer.
                run.drain_corruptions();
                continue;
            }
            if stage_failed {
                // A node died under coarse recovery: restart the query, or
                // give up once this failure reaches the restart limit.
                if run.report.query_restarts + 1 >= opts.max_restarts {
                    run.emit(Fact::QueryAborted);
                    return run.finish(Vec::new());
                }
                run.emit(Fact::QueryRestart);
                continue 'query;
            }
            let partials: Vec<Vec<Row>> = outcomes
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
            if root_op.kind.is_gather() {
                let global = match dists[root_op.inputs[0].index()] {
                    // Replicated input: every node's partial already is the
                    // global answer.
                    Distribution::Replicated => partials.into_iter().next().unwrap(),
                    Distribution::Partitioned => match &root_op.kind {
                        OpKind::HashAgg { group_cols, aggs } => {
                            merge_aggregates(&partials, group_cols, aggs)
                        }
                        OpKind::TopK { sort_col, ascending, k } => {
                            let all: Vec<Row> = partials.into_iter().flatten().collect();
                            sorted_top_k(&all, *sort_col, *ascending, *k)
                        }
                        _ => unreachable!("is_gather covers exactly these kinds"),
                    },
                };
                if is_sink {
                    results.push((root, global));
                } else {
                    let before = store.stats().physical_bytes_written;
                    let rows = global.len();
                    store.put_replicated(stage, global, nodes);
                    let bytes = store.stats().physical_bytes_written - before;
                    run.emit(Fact::Materialize { stage, node: None, rows, bytes });
                }
            } else if config.materializes(c.root) {
                // Sinks are non-materializable (EnginePlan::finish), so a
                // materialized non-agg root keeps its per-node partitions.
                for (node, part) in partials.into_iter().enumerate() {
                    let before = store.stats().physical_bytes_written;
                    let rows = part.len();
                    store.put(stage, node, part);
                    let bytes = store.stats().physical_bytes_written - before;
                    run.emit(Fact::Materialize { stage, node: Some(node), rows, bytes });
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
            idx += 1;
        }

        run.drain_corruptions();
        run.emit(Fact::StoreStats);
        run.emit(Fact::QueryCompleted);
        return run.finish(results);
    }
}

/// One fact about a run. The coordinator emits each exactly once, on its
/// own thread, through [`Run::emit`]. Worker facts carry the worker's clock
/// reads; the coordinator's other facts are stamped when emitted.
enum Fact {
    /// The cost model's headline prediction for the plan.
    PlanEstimate { cost_s: f64, runtime_s: f64 },
    /// A stage resumed from the store without running.
    StageSkipped { stage: u32 },
    /// A stage's input read as absent: the cursor rewinds to its producer.
    InputRewind { stage: u32, producer: u32 },
    /// The store found a segment corrupt and demoted it.
    SegmentCorrupt(CorruptSegment),
    /// A node attempt that finished its sub-plan with `rows` output rows.
    Attempt { stage: u32, node: usize, attempt: u32, start_us: u64, end_us: u64, rows: usize },
    /// An injected failure killed a node attempt at `end_us`.
    NodeFailure { stage: u32, node: usize, attempt: u32, start_us: u64, end_us: u64 },
    /// Fine-grained recovery redeployed a failed node's sub-plan as
    /// `attempt`.
    Redeploy { stage: u32, node: usize, attempt: u32, at_us: u64 },
    /// A stage barrier: every node's part, retries included. `failed`
    /// when a node died or lost an input.
    Stage { stage: u32, start_us: u64, wall_us: u64, failed: bool },
    /// A stage's output written to the store: one partition, or with no
    /// `node` the replicated gather result.
    Materialize { stage: u32, node: Option<usize>, rows: usize, bytes: u64 },
    /// A node failure under coarse recovery restarts the query.
    QueryRestart,
    /// A node failure under coarse recovery reached the restart limit.
    QueryAborted,
    /// The store's lifetime accounting, at the end of a completed run.
    StoreStats,
    /// The query finished.
    QueryCompleted,
}

/// One run's state: its report so far, and what folding a fact needs.
struct Run<'a> {
    opts: RunOptions<'a>,
    store: &'a dyn StoreBackend,
    nodes: usize,
    t0: Instant,
    stats_at_start: StoreStats,
    report: RunReport,
    input_rewinds: u64,
    /// Redeploys since the last stage event: the next timeline entry's
    /// `retries`.
    stage_retries: u64,
}

impl<'a> Run<'a> {
    /// Starts a run: emits the plan estimate and whatever a disk backend
    /// demoted while opening (crash debris).
    fn start(opts: RunOptions<'a>, store: &'a dyn StoreBackend, nodes: usize) -> Self {
        let mut run = Run {
            opts,
            store,
            nodes,
            t0: clock::now(),
            stats_at_start: store.stats(),
            report: RunReport::default(),
            input_rewinds: 0,
            stage_retries: 0,
        };
        if let Some(p) = opts.pred {
            run.emit(Fact::PlanEstimate { cost_s: p.dominant_cost, runtime_s: p.dominant_runtime });
        }
        run.drain_corruptions();
        run
    }

    /// Physical bytes and logical rows this run has written to the store.
    fn materialized(&self) -> (u64, u64) {
        let s = self.store.stats();
        (
            s.physical_bytes_written - self.stats_at_start.physical_bytes_written,
            s.logical_rows_written - self.stats_at_start.logical_rows_written,
        )
    }

    /// Emits a [`Fact::SegmentCorrupt`] per entry of the store's
    /// corruption log.
    fn drain_corruptions(&mut self) {
        for c in self.store.drain_corruptions() {
            self.emit(Fact::SegmentCorrupt(c));
        }
    }

    /// The fact fold: adds `fact` to the run's report and stage timeline,
    /// then records it as one trace event if the caller's recorder is
    /// enabled.
    fn emit(&mut self, fact: Fact) {
        match &fact {
            Fact::StageSkipped { stage } => {
                self.report.stages_skipped += 1;
                self.push_timing(*stage, 0, true);
            }
            Fact::InputRewind { .. } => self.input_rewinds += 1,
            Fact::SegmentCorrupt(_) => self.report.segments_corrupt += 1,
            Fact::Redeploy { .. } => {
                self.report.node_retries += 1;
                self.stage_retries += 1;
            }
            Fact::Stage { stage, wall_us, .. } => self.push_timing(*stage, *wall_us, false),
            Fact::QueryRestart => self.report.query_restarts += 1,
            Fact::QueryAborted => {
                self.report.query_restarts += 1;
                self.report.aborted = true;
            }
            Fact::PlanEstimate { .. }
            | Fact::Attempt { .. }
            | Fact::NodeFailure { .. }
            | Fact::Materialize { .. }
            | Fact::StoreStats
            | Fact::QueryCompleted => {}
        }
        self.opts.rec.record_with(|| self.event(fact));
    }

    /// Appends a stage event to the timeline, with the redeploys since
    /// the previous one.
    fn push_timing(&mut self, stage: u32, wall_us: u64, skipped: bool) {
        let retries = std::mem::take(&mut self.stage_retries);
        self.report.stage_timings.push(StageTiming { stage, wall_us, retries, skipped });
    }

    /// The trace event of `fact`, stamped now unless the fact carries a
    /// worker's clock reads, after the fold has added it to the report.
    fn event(&self, fact: Fact) -> Event {
        let now = micros_since(self.t0);
        match fact {
            Fact::PlanEstimate { cost_s, runtime_s } => {
                Event::instant("plan_estimate", "engine", now)
                    .arg("pred_cost_s", cost_s)
                    .arg("pred_runtime_s", runtime_s)
            }
            Fact::StageSkipped { stage } => {
                Event::instant("stage_skipped", "engine", now).arg("stage", stage)
            }
            Fact::InputRewind { stage, producer } => Event::instant("input_rewind", "engine", now)
                .arg("stage", stage)
                .arg("producer", producer),
            Fact::SegmentCorrupt(c) => {
                let ev = Event::instant("segment_corrupt", "engine", now)
                    .arg("op", c.op)
                    .arg("reason", c.reason);
                match c.node {
                    Some(n) => ev.arg("node", n),
                    None => ev,
                }
            }
            Fact::Attempt { stage, node, attempt, start_us, end_us, rows } => {
                Event::span("attempt", "engine", start_us, end_us.saturating_sub(start_us))
                    .tid(node as u32 + 1)
                    .arg("stage", stage)
                    .arg("node", node)
                    .arg("attempt", attempt)
                    .arg("ok", true)
                    .arg("rows", rows)
            }
            // `lost_s` is the wall-clock work discarded with the attempt.
            Fact::NodeFailure { stage, node, attempt, start_us, end_us } => {
                Event::instant("node_failure", "engine", end_us)
                    .tid(node as u32 + 1)
                    .arg("stage", stage)
                    .arg("node", node)
                    .arg("attempt", attempt)
                    .arg("lost_s", end_us.saturating_sub(start_us) as f64 / 1e6)
            }
            Fact::Redeploy { stage, node, attempt, at_us } => {
                Event::instant("redeploy", "engine", at_us)
                    .tid(node as u32 + 1)
                    .arg("stage", stage)
                    .arg("node", node)
                    .arg("attempt", attempt)
            }
            Fact::Stage { stage, start_us, wall_us, failed } => {
                let span = Event::span(format!("stage {stage}"), "engine", start_us, wall_us)
                    .arg("stage", stage)
                    .arg("nodes", self.nodes)
                    .arg("failed", failed);
                match self.opts.pred.and_then(|p| p.by_root(stage)) {
                    Some(s) => span
                        .arg("pred_run_s", s.run_cost)
                        .arg("pred_mat_s", s.mat_cost)
                        .arg("pred_rec_s", s.recovery_cost)
                        .arg("pred_cost_s", s.ft_cost)
                        .arg("dominant", s.on_dominant_path),
                    None => span,
                }
            }
            Fact::Materialize { stage, node, rows, bytes } => match node {
                Some(n) => Event::instant("materialize", "engine", now)
                    .tid(n as u32 + 1)
                    .arg("stage", stage)
                    .arg("node", n)
                    .arg("rows", rows)
                    .arg("bytes", bytes),
                None => Event::instant("materialize", "engine", now)
                    .arg("stage", stage)
                    .arg("rows", rows)
                    .arg("bytes", bytes)
                    .arg("replicated", true),
            },
            Fact::QueryRestart => Event::instant("query_restart", "engine", now)
                .arg("attempt", self.report.query_restarts),
            Fact::QueryAborted => Event::instant("query_aborted", "engine", now)
                .arg("restarts", self.report.query_restarts),
            // The backend's lifetime accounting, including measured
            // throughput: the observed `tm(o)` that `ftpde_obs::calibrate`
            // joins against the cost model's assumptions.
            Fact::StoreStats => {
                let s = self.store.stats();
                let mut ev = Event::instant("store_stats", "engine", now)
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
            Fact::QueryCompleted => Event::instant("query_completed", "engine", now)
                .arg("node_retries", self.report.node_retries)
                .arg("query_restarts", self.report.query_restarts)
                .arg("rows_materialized", self.materialized().1)
                .arg("stages_skipped", self.report.stages_skipped),
        }
    }

    /// Ends the run: completes its report with the results and what the
    /// run wrote to the store.
    fn finish(self, results: Vec<(EOpId, Vec<Row>)>) -> RunReport {
        let (bytes_materialized, rows_materialized) = self.materialized();
        RunReport { results, rows_materialized, bytes_materialized, ..self.report }
    }
}

/// Microseconds since `t0` on the engine's [`clock`]: every timestamp a
/// run's trace carries.
fn micros_since(t0: Instant) -> u64 {
    clock::elapsed(t0).as_micros() as u64
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

/// Executes the sub-plan `members` (rooted at `root`) on one node. The
/// injector is checked once, before the node reads its inputs: a planned
/// kill takes the node down there even when its partition holds no rows,
/// and a node that passes it runs the stage to the end.
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
) -> NodeOutcome {
    if injector.should_fail(root.0, node, attempt) {
        return NodeOutcome::Failed;
    }
    // Cross-stage inputs come from the fault-tolerant store, one read per
    // member input. The coordinator's input check ran `get` on each of them
    // before deploying this worker — but a later `get` can still find the
    // segment corrupt and demote it, so a miss here is a recoverable
    // lost input, not a bug.
    let mut stored: Vec<(EOpId, Arc<Vec<Row>>)> = Vec::new();
    for &m in members {
        for &p in &plan.op(m).inputs {
            if !members.contains(&p) {
                let Some(rows) = store.get(p.0, node) else {
                    return NodeOutcome::InputLost(p.0);
                };
                stored.push((p, rows));
            }
        }
    }
    let stored: Vec<(EOpId, &[Row])> =
        stored.iter().map(|(p, rows)| (*p, rows.as_slice())).collect();
    let ctx = ExecCtx { catalog, node, interrupted: &|| false };
    NodeOutcome::Done(run_stage(plan, members, root, &stored, &ctx))
}
