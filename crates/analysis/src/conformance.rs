//! Trace-conformance verification: replaying an observability trace
//! against the collapsed plan and materialization configuration it claims
//! to describe, and checking that the execution it records actually obeys
//! the paper's recovery contract.
//!
//! The engine (`ftpde-engine`) and the simulator (`ftpde-sim`) both emit
//! JSONL traces through `ftpde-obs`, in one vocabulary that names each
//! stage by its collapsed root's operator id. This module is the
//! *outside auditor* of those traces: it never trusts the producing
//! layer, only the event stream, and re-derives from first principles
//! what a conforming execution must look like —
//!
//! * **FT101** trace well-formedness: required arguments present, floats
//!   finite, exactly one terminal (`query_completed`/`query_aborted`),
//!   nothing recorded after it.
//! * **FT102** span/track discipline: the coordinator's stage track is
//!   sequential, per-node attempt tracks do not self-overlap, and every
//!   worker `attempt` span nests inside its stage's span.
//! * **FT103** stage identity and completeness: every stage id in the
//!   trace names a collapsed-plan stage, and a completed query executed
//!   or legitimately skipped all of them.
//! * **FT104** stage ordering: no stage starts before every collapsed
//!   producer has completed (or been skipped) in the same attempt.
//! * **FT105** re-execution justification — the §2.2 recovery contract:
//!   a stage runs *again* within one attempt only after an
//!   `input_rewind`/`segment_corrupt` naming it or one of its ancestors;
//!   under a simulator trace a stage never repeats within an attempt.
//! * **FT106** skip legitimacy: only non-sink (materializing) stages may
//!   be skipped, and any skip after a coarse restart must be backed by a
//!   re-materialization in that same attempt (the restart cleared the
//!   store). First-attempt skips with no backing put are the resumed-run
//!   case and are legal.
//! * **FT107** store lifecycle: `materialize` events only for stages the
//!   configuration (or the gather/broadcast pattern) materializes, every
//!   cross-stage input covered by a put or skip when its consumer runs,
//!   and a corruption of live data followed by a rewind to its producer.
//! * **FT108** observed-cost conservation (Eq. 1): simulated stage spans
//!   last exactly the collapsed `tr + tm` when failure-free (and at
//!   least that long under failures); engine attempt time plus lost work
//!   never exceeds the stage wall-clock that contains it.
//!
//! Timestamps, not file order, drive the ordering checks: both producers
//! record a stage's per-node facts (attempts, failures) in node order
//! before the stage's span, so file order is not chronological. File
//! order is used only where it is authoritative — attempt windows are
//! delimited by `query_restart` markers, which both producers record
//! between stage executions.

use std::collections::{HashMap, HashSet};

use ftpde_core::collapse::{CId, CollapsedPlan};
use ftpde_core::config::MatConfig;
use ftpde_core::dag::PlanDag;
use ftpde_obs::{ArgValue, Event, Phase};

use crate::diag::{Code, Diagnostic, Report, Severity};

/// One collapsed stage as the checker sees it.
#[derive(Debug, Clone)]
pub struct StageInfo {
    /// Stage id as it appears in trace `stage` arguments: the plan
    /// operator id of the stage's collapsed root.
    pub id: u64,
    /// Producing stages (cross-stage inputs), by their root ids.
    pub inputs: Vec<u64>,
    /// Whether the configuration materializes this stage's root.
    pub materializes: bool,
    /// Whether the stage is a sink (no consumers).
    pub is_sink: bool,
    /// Predicted execution cost `tr(c)` in seconds.
    pub run_cost: f64,
    /// Predicted materialization cost `tm(c)` in seconds.
    pub mat_cost: f64,
}

/// The plan-side ground truth the checker verifies a trace against: the
/// collapsed stages, their dependencies, materialization flags and
/// predicted costs, keyed by root operator id — the name both the engine
/// and the simulator give a stage.
#[derive(Debug, Clone)]
pub struct StagePlan {
    stages: Vec<StageInfo>,
    index: HashMap<u64, usize>,
}

impl StagePlan {
    /// Collapses `plan` under `config` and projects it into the checker's
    /// view.
    pub fn new(plan: &PlanDag, config: &MatConfig, pipe_const: f64) -> Self {
        let pc = CollapsedPlan::collapse(plan, config, pipe_const);
        let root = |cid: CId| u64::from(pc.op(cid).root.0);
        let stages: Vec<StageInfo> = pc
            .op_ids()
            .map(|cid| {
                let op = pc.op(cid);
                StageInfo {
                    id: root(cid),
                    inputs: pc.inputs(cid).iter().map(|&p| root(p)).collect(),
                    materializes: config.materializes(op.root),
                    is_sink: pc.consumers(cid).is_empty(),
                    run_cost: op.run_cost,
                    mat_cost: op.mat_cost,
                }
            })
            .collect();
        let index = stages.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        StagePlan { stages, index }
    }

    /// The stages, in collapsed (topological) order.
    pub fn stages(&self) -> &[StageInfo] {
        &self.stages
    }

    /// Looks a stage up by trace id.
    pub fn get(&self, id: u64) -> Option<&StageInfo> {
        self.index.get(&id).map(|&i| &self.stages[i])
    }

    /// Whether `anc` is `desc` or one of its (transitive) producers.
    fn is_ancestor_or_self(&self, anc: u64, desc: u64) -> bool {
        let mut seen = HashSet::new();
        let mut work = vec![desc];
        while let Some(id) = work.pop() {
            if id == anc {
                return true;
            }
            if !seen.insert(id) {
                continue;
            }
            if let Some(info) = self.get(id) {
                work.extend(info.inputs.iter().copied());
            }
        }
        false
    }
}

/// Tunables of the conformance checks.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Relative tolerance of the simulated-time Eq. 1 comparison
    /// (absolute floor `1e-3` seconds; timestamps round to microseconds).
    pub rel_tol: f64,
    /// Slack in microseconds granted to engine wall-clock containment
    /// sums (clock sampling order between threads).
    pub slack_us: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { rel_tol: 1e-3, slack_us: 5 }
    }
}

/// A stage-span execution, normalized out of an [`Event`].
#[derive(Debug, Clone, Copy)]
struct Exec {
    stage: u64,
    ts: u64,
    end: u64,
    failed: bool,
}

/// One attempt window: the events between two `query_restart` markers
/// (file order), already classified by kind.
#[derive(Debug, Default)]
struct Window {
    /// 0 for the initial attempt, `n` after the n-th coarse restart.
    attempt: usize,
    execs: Vec<Exec>,
    /// `(stage, ts, file_idx)` of `stage_skipped` instants.
    skips: Vec<(u64, u64, usize)>,
    /// `(consumer stage, producer stage, ts)` of `input_rewind` instants.
    rewinds: Vec<(u64, u64, u64)>,
    /// `(op, ts, file_idx)` of `segment_corrupt` instants.
    corrupts: Vec<(u64, u64, usize)>,
    /// `(stage, replicated, ts, file_idx)` of `materialize` instants.
    puts: Vec<(u64, bool, u64, usize)>,
    /// `(stage, tid, ts, end)` of worker `attempt` spans (ok only).
    attempts: Vec<(u64, u32, u64, u64)>,
    /// `(stage, node, lost_us)` of `node_failure` instants.
    failures: Vec<(u64, u64, u64)>,
    /// File order of every event in the window, for the FT107 replay.
    ordered: Vec<WindowEvent>,
}

/// The store-lifecycle-relevant view of one event, in file order.
#[derive(Debug, Clone, Copy)]
enum WindowEvent {
    Put(u64),
    Skip(u64),
    Corrupt(u64),
    Rewind { producer: u64 },
    Exec { stage: u64 },
}

/// Verifies an observability trace against an optional plan-side ground
/// truth, returning one [`Report`] with FT101–FT108 findings.
///
/// Without a [`StagePlan`] the plan-dependent checks (identity,
/// completeness, ordering against the DAG, skip/materialize legitimacy,
/// Eq. 1) are skipped and only the self-consistency of the trace is
/// verified. The checker never panics on malformed input: damage is
/// reported, not thrown.
pub fn check_trace(
    subject: &str,
    events: &[Event],
    plan: Option<&StagePlan>,
    opts: &CheckOptions,
) -> Report {
    let mut report = Report::new(subject);

    // The trace's producing layer: engine wall-clock vs simulated time
    // decide which protocol checks are meaningful.
    let is_engine = events.iter().any(|e| e.cat == "engine");
    let cat = if is_engine { "engine" } else { "sim" };
    let trace: Vec<(usize, &Event)> =
        events.iter().enumerate().filter(|(_, e)| e.cat == cat).collect();
    if trace.is_empty() {
        report.push(Diagnostic::new(
            Code::FT101,
            Severity::Warn,
            "trace contains no engine or sim events; nothing to verify",
        ));
        return report;
    }

    check_well_formed(&mut report, &trace);
    let windows = split_windows(&mut report, &trace);
    if is_engine {
        check_tracks(&mut report, &trace, &windows, opts);
    }
    if let Some(plan) = plan {
        check_identity(&mut report, &trace, plan);
        check_completeness(&mut report, &trace, &windows, plan);
        for w in &windows {
            check_ordering(&mut report, w, plan);
        }
    }
    for w in &windows {
        check_reexecution(&mut report, w, is_engine, plan);
        if is_engine {
            check_skips(&mut report, w, plan);
            check_store_lifecycle(&mut report, w, plan);
        }
        if let Some(plan) = plan {
            check_cost_conservation(&mut report, w, is_engine, plan, opts);
        }
    }
    report
}

/// Parses a JSONL trace and verifies it — the shared entry point of
/// `ftpde check --trace` and the simulation harness's replay oracle.
///
/// A parse failure is itself a conformance finding (FT101, error), not
/// an `Err`: a torn or truncated trace is exactly the kind of damage
/// the checker exists to report.
pub fn check_trace_jsonl(
    subject: &str,
    jsonl: &str,
    plan: Option<&StagePlan>,
    opts: &CheckOptions,
) -> Report {
    match ftpde_obs::export::from_jsonl(jsonl) {
        Ok(events) => check_trace(subject, &events, plan, opts),
        Err(err) => {
            let mut report = Report::new(subject);
            report.push(Diagnostic::new(
                Code::FT101,
                Severity::Error,
                format!("trace does not parse as JSONL events: {err}"),
            ));
            report
        }
    }
}

fn arg_u64(e: &Event, key: &str) -> Option<u64> {
    match e.get_arg(key) {
        Some(ArgValue::U64(v)) => Some(*v),
        Some(ArgValue::I64(v)) => u64::try_from(*v).ok(),
        _ => None,
    }
}

fn arg_f64(e: &Event, key: &str) -> Option<f64> {
    match e.get_arg(key) {
        Some(ArgValue::F64(v)) => Some(*v),
        Some(ArgValue::U64(v)) => Some(*v as f64),
        Some(ArgValue::I64(v)) => Some(*v as f64),
        _ => None,
    }
}

fn arg_bool(e: &Event, key: &str) -> Option<bool> {
    match e.get_arg(key) {
        Some(ArgValue::Bool(v)) => Some(*v),
        _ => None,
    }
}

/// Whether this event is a stage-execution span (`stage <id>`).
fn is_stage_span(e: &Event) -> bool {
    e.phase == Phase::Span && e.name.starts_with("stage ")
}

fn is_terminal(e: &Event) -> bool {
    e.name == "query_completed" || e.name == "query_aborted"
}

/// FT101: argument presence, float sanity, single terminal, nothing
/// recorded after it.
fn check_well_formed(report: &mut Report, trace: &[(usize, &Event)]) {
    // Events that must carry a `stage` argument to mean anything.
    const STAGE_BEARING: &[&str] =
        &["stage_skipped", "input_rewind", "node_failure", "materialize"];

    for &(idx, e) in trace {
        if (is_stage_span(e) || STAGE_BEARING.contains(&e.name.as_str()))
            && arg_u64(e, "stage").is_none()
        {
            report.push(Diagnostic::new(
                Code::FT101,
                Severity::Error,
                format!("event #{idx} `{}` lacks a usable `stage` argument", e.name),
            ));
        }
        if e.name == "input_rewind" && arg_u64(e, "producer").is_none() {
            report.push(Diagnostic::new(
                Code::FT101,
                Severity::Error,
                format!("event #{idx} `input_rewind` lacks a `producer` argument"),
            ));
        }
        if e.name == "segment_corrupt" && arg_u64(e, "op").is_none() {
            report.push(Diagnostic::new(
                Code::FT101,
                Severity::Error,
                format!("event #{idx} `segment_corrupt` lacks an `op` argument"),
            ));
        }
        for (k, v) in &e.args {
            if let ArgValue::F64(f) = v {
                if !f.is_finite() {
                    report.push(Diagnostic::new(
                        Code::FT101,
                        Severity::Error,
                        format!("event #{idx} `{}` has non-finite argument {k} = {f}", e.name),
                    ));
                }
            }
        }
    }

    let terminals: Vec<usize> =
        trace.iter().filter(|(_, e)| is_terminal(e)).map(|&(i, _)| i).collect();
    match terminals.len() {
        0 => report.push(Diagnostic::new(
            Code::FT101,
            Severity::Warn,
            "trace has no terminal (query_completed/query_aborted); it may be truncated",
        )),
        1 => {
            let term = terminals[0];
            for &(idx, e) in trace {
                if idx > term {
                    report.push(Diagnostic::new(
                        Code::FT101,
                        Severity::Error,
                        format!("event #{idx} `{}` recorded after the terminal event", e.name),
                    ));
                }
            }
        }
        n => report.push(Diagnostic::new(
            Code::FT101,
            Severity::Error,
            format!("trace has {n} terminal events; a query terminates exactly once"),
        )),
    }
}

/// Splits the trace into attempt windows at `query_restart` markers
/// (file order — the coordinator emits them single-threadedly between
/// stage executions) and classifies each window's events.
fn split_windows(report: &mut Report, trace: &[(usize, &Event)]) -> Vec<Window> {
    let mut windows = vec![Window::default()];
    for &(idx, e) in trace {
        if e.name == "query_restart" {
            let attempt = windows.len();
            windows.push(Window { attempt, ..Window::default() });
            continue;
        }
        let w = windows.last_mut().expect("windows starts non-empty");
        if is_stage_span(e) {
            if let Some(stage) = arg_u64(e, "stage") {
                let failed = arg_bool(e, "failed").unwrap_or(false);
                w.execs.push(Exec {
                    stage,
                    ts: e.ts_us,
                    end: e.ts_us.saturating_add(e.dur_us),
                    failed,
                });
                w.ordered.push(WindowEvent::Exec { stage });
            }
            continue;
        }
        match e.name.as_str() {
            "stage_skipped" => {
                if let Some(stage) = arg_u64(e, "stage") {
                    w.skips.push((stage, e.ts_us, idx));
                    w.ordered.push(WindowEvent::Skip(stage));
                }
            }
            "input_rewind" => {
                if let (Some(stage), Some(producer)) = (arg_u64(e, "stage"), arg_u64(e, "producer"))
                {
                    w.rewinds.push((stage, producer, e.ts_us));
                    w.ordered.push(WindowEvent::Rewind { producer });
                }
            }
            "segment_corrupt" => {
                if let Some(op) = arg_u64(e, "op") {
                    w.corrupts.push((op, e.ts_us, idx));
                    w.ordered.push(WindowEvent::Corrupt(op));
                }
            }
            "materialize" => {
                if let Some(stage) = arg_u64(e, "stage") {
                    let replicated = arg_bool(e, "replicated").unwrap_or(false);
                    w.puts.push((stage, replicated, e.ts_us, idx));
                    w.ordered.push(WindowEvent::Put(stage));
                }
            }
            "attempt" => {
                if let (Some(stage), Some(true)) = (arg_u64(e, "stage"), arg_bool(e, "ok")) {
                    w.attempts.push((stage, e.tid, e.ts_us, e.ts_us.saturating_add(e.dur_us)));
                }
            }
            "node_failure" => {
                if let Some(stage) = arg_u64(e, "stage") {
                    let node = arg_u64(e, "node").unwrap_or(u64::from(e.tid));
                    let lost_us =
                        (arg_f64(e, "lost_s").unwrap_or(0.0).max(0.0) * 1e6).round() as u64;
                    w.failures.push((stage, node, lost_us));
                }
            }
            _ => {}
        }
    }
    // A restart with nothing after it is itself suspicious: the
    // coordinator restarts in order to run again (or abort, which is a
    // terminal, not a restart).
    if let Some(last) = windows.last() {
        if windows.len() > 1
            && last.execs.is_empty()
            && last.skips.is_empty()
            && trace.iter().all(|(_, e)| e.name != "query_aborted")
        {
            report.push(Diagnostic::new(
                Code::FT101,
                Severity::Warn,
                "trailing query_restart with no subsequent execution".to_string(),
            ));
        }
    }
    windows
}

/// FT102 (engine only): the coordinator's stage track is sequential,
/// per-node attempt tracks are sequential, and attempts nest inside a
/// stage span of the same stage.
fn check_tracks(
    report: &mut Report,
    trace: &[(usize, &Event)],
    windows: &[Window],
    opts: &CheckOptions,
) {
    // Per-(pid, tid) span intervals must not overlap: the coordinator is
    // one thread (tid 0) and each worker track serves one node at a time.
    type TrackSpans = Vec<(u64, u64, usize)>;
    let mut by_track: HashMap<(u32, u32), TrackSpans> = HashMap::new();
    for &(idx, e) in trace {
        if e.phase == Phase::Span {
            by_track.entry((e.pid, e.tid)).or_default().push((
                e.ts_us,
                e.ts_us.saturating_add(e.dur_us),
                idx,
            ));
        }
    }
    for ((pid, tid), mut spans) in by_track {
        spans.sort_unstable();
        for pair in spans.windows(2) {
            let (_, prev_end, prev_idx) = pair[0];
            let (ts, _, idx) = pair[1];
            if ts.saturating_add(opts.slack_us) < prev_end {
                report.push(Diagnostic::new(
                    Code::FT102,
                    Severity::Error,
                    format!(
                        "spans #{prev_idx} and #{idx} overlap on track (pid {pid}, tid {tid}): \
                         {ts} < {prev_end}"
                    ),
                ));
            }
        }
    }

    // Every successful worker attempt must sit inside an execution span
    // of its stage within the same attempt window.
    for w in windows {
        for &(stage, tid, ts, end) in &w.attempts {
            let contained = w.execs.iter().any(|x| {
                x.stage == stage
                    && ts.saturating_add(opts.slack_us) >= x.ts
                    && end <= x.end.saturating_add(opts.slack_us)
            });
            if !contained {
                report.push(
                    Diagnostic::new(
                        Code::FT102,
                        Severity::Error,
                        format!(
                            "worker attempt on tid {tid} ([{ts}, {end}] us) is not contained \
                                 in any execution span of stage {stage} (attempt {})",
                            w.attempt
                        ),
                    )
                    .at_stage(stage as u32),
                );
            }
        }
    }
}

/// FT103 (identity half): every stage id mentioned anywhere in the trace
/// names a collapsed-plan stage.
fn check_identity(report: &mut Report, trace: &[(usize, &Event)], plan: &StagePlan) {
    let mut flagged: HashSet<u64> = HashSet::new();
    let mut check = |report: &mut Report, id: u64, role: &str, idx: usize| {
        if plan.get(id).is_none() && flagged.insert(id) {
            report.push(
                Diagnostic::new(
                    Code::FT103,
                    Severity::Error,
                    format!("event #{idx} names {role} {id}, which is not a collapsed stage"),
                )
                .at_stage(id as u32),
            );
        }
    };
    for &(idx, e) in trace {
        if is_stage_span(e)
            || matches!(
                e.name.as_str(),
                "stage_skipped" | "input_rewind" | "node_failure" | "materialize"
            )
        {
            if let Some(id) = arg_u64(e, "stage") {
                check(report, id, "stage", idx);
            }
        }
        if e.name == "input_rewind" {
            if let Some(id) = arg_u64(e, "producer") {
                check(report, id, "producer", idx);
            }
        }
        if e.name == "segment_corrupt" {
            // `u32::MAX` marks damage that is not one segment's (a bad
            // frame header, an unreadable log or directory), which is
            // deliberately not a stage.
            if let Some(id) = arg_u64(e, "op") {
                if id != u64::from(u32::MAX) {
                    check(report, id, "corrupt op", idx);
                }
            }
        }
    }
}

/// FT103 (completeness half): a completed query executed or skipped every
/// collapsed stage in its final attempt. Coarse-simulator traces carry no
/// stage spans at all; with no execution evidence anywhere the check is
/// vacuous and skipped.
fn check_completeness(
    report: &mut Report,
    trace: &[(usize, &Event)],
    windows: &[Window],
    plan: &StagePlan,
) {
    let completed = trace.iter().any(|(_, e)| e.name == "query_completed");
    let any_exec = windows.iter().any(|w| !w.execs.is_empty());
    if !completed || !any_exec {
        return;
    }
    let last = windows.last().expect("split_windows returns at least one window");
    for s in plan.stages() {
        let executed = last.execs.iter().any(|x| x.stage == s.id && !x.failed);
        let skipped = last.skips.iter().any(|&(id, _, _)| id == s.id);
        if !executed && !skipped {
            report.push(
                Diagnostic::new(
                    Code::FT103,
                    Severity::Error,
                    format!(
                        "query completed but stage {} was neither executed nor skipped in the \
                         final attempt",
                        s.id
                    ),
                )
                .at_stage(s.id as u32),
            );
        }
    }
}

/// FT104: within an attempt, a stage's execution starts only after every
/// collapsed producer completed (or was skipped) — by timestamp, since
/// file order is not chronological across tracks.
fn check_ordering(report: &mut Report, w: &Window, plan: &StagePlan) {
    for x in &w.execs {
        let Some(info) = plan.get(x.stage) else { continue };
        for &p in &info.inputs {
            let produced = w.execs.iter().any(|px| px.stage == p && !px.failed && px.end <= x.ts)
                || w.skips.iter().any(|&(id, ts, _)| id == p && ts <= x.ts);
            let present =
                w.execs.iter().any(|px| px.stage == p) || w.skips.iter().any(|&(id, _, _)| id == p);
            if !produced && present {
                report.push(
                    Diagnostic::new(
                        Code::FT104,
                        Severity::Error,
                        format!(
                            "stage {} started at {} us before producer {p} completed \
                             (attempt {})",
                            x.stage, x.ts, w.attempt
                        ),
                    )
                    .at_stage(x.stage as u32),
                );
            }
            // A producer absent from the window entirely is a store /
            // completeness matter (FT107 / FT103), not an ordering one.
        }
    }
}

/// FT105 — the §2.2 recovery contract: within one attempt a stage is
/// re-executed only because storage lost something. Engine traces must
/// show an `input_rewind`/`segment_corrupt` naming the stage or one of
/// its ancestors between the two executions; simulator traces never
/// repeat a stage within an attempt at all (failures retry *inside* the
/// span).
fn check_reexecution(report: &mut Report, w: &Window, is_engine: bool, plan: Option<&StagePlan>) {
    // Chronological occurrences (exec end / skip ts) per stage.
    let mut history: HashMap<u64, Vec<(u64, bool)>> = HashMap::new();
    for x in &w.execs {
        history.entry(x.stage).or_default().push((x.end, true));
    }
    for &(id, ts, _) in &w.skips {
        history.entry(id).or_default().push((ts, false));
    }
    for (stage, mut occ) in history {
        occ.sort_unstable();
        for pair in occ.windows(2) {
            let (prev_at, _) = pair[0];
            let (cur_at, cur_is_exec) = pair[1];
            if !cur_is_exec {
                // Re-skips are FT106's concern (backing), not FT105's.
                continue;
            }
            if !is_engine {
                report.push(
                    Diagnostic::new(
                        Code::FT105,
                        Severity::Error,
                        format!(
                            "simulated stage {stage} executed twice within attempt {}; the \
                             simulator retries inside a span, never re-executes",
                            w.attempt
                        ),
                    )
                    .at_stage(stage as u32),
                );
                continue;
            }
            // Any storage-loss evidence strictly between the executions?
            let justification = w
                .rewinds
                .iter()
                .filter(|&&(_, _, ts)| ts >= prev_at && ts <= cur_at)
                .map(|&(_, producer, _)| producer)
                .chain(
                    w.corrupts
                        .iter()
                        .filter(|&&(_, ts, _)| ts >= prev_at && ts <= cur_at)
                        .map(|&(op, _, _)| op),
                )
                .collect::<Vec<_>>();
            if justification.is_empty() {
                report.push(
                    Diagnostic::new(
                        Code::FT105,
                        Severity::Error,
                        format!(
                            "stage {stage} re-executed within attempt {} with no input_rewind or \
                             segment_corrupt between the executions (recovery contract §2.2)",
                            w.attempt
                        ),
                    )
                    .at_stage(stage as u32),
                );
            } else if let Some(plan) = plan {
                let related =
                    justification.iter().any(|&cause| plan.is_ancestor_or_self(cause, stage));
                if !related {
                    report.push(
                        Diagnostic::new(
                            Code::FT105,
                            Severity::Warn,
                            format!(
                                "stage {stage} re-executed within attempt {} but the recorded \
                                 rewind/corruption concerns unrelated stages {justification:?}",
                                w.attempt
                            ),
                        )
                        .at_stage(stage as u32),
                    );
                }
            }
        }
    }
}

/// FT106 (engine): skips only for non-sink stages, and any skip after a
/// coarse restart backed by a materialization in the same attempt (the
/// restart cleared the store; only a fresh put can make a skip sound).
fn check_skips(report: &mut Report, w: &Window, plan: Option<&StagePlan>) {
    for &(stage, ts, idx) in &w.skips {
        if let Some(info) = plan.and_then(|p| p.get(stage)) {
            if info.is_sink {
                report.push(
                    Diagnostic::new(
                        Code::FT106,
                        Severity::Error,
                        format!(
                            "event #{idx}: sink stage {stage} was skipped; sinks produce the \
                             query result and are never materialized"
                        ),
                    )
                    .at_stage(stage as u32),
                );
            }
        }
        if w.attempt > 0 {
            let backed = w.puts.iter().any(|&(id, _, put_ts, _)| id == stage && put_ts <= ts);
            if !backed {
                report.push(
                    Diagnostic::new(
                        Code::FT106,
                        Severity::Error,
                        format!(
                            "stage {stage} skipped in attempt {} without a preceding \
                             materialization; the restart cleared the store",
                            w.attempt
                        ),
                    )
                    .at_stage(stage as u32),
                );
            }
        }
    }
}

/// FT107 (engine): materializations match the configuration, consumers
/// only run over inputs a put or skip vouches for, and a corruption of
/// live data is followed by a rewind to its producer.
fn check_store_lifecycle(report: &mut Report, w: &Window, plan: Option<&StagePlan>) {
    // Materialize legitimacy against the configuration.
    if let Some(plan) = plan {
        for &(stage, replicated, _, idx) in &w.puts {
            let Some(info) = plan.get(stage) else { continue };
            if info.is_sink {
                report.push(
                    Diagnostic::new(
                        Code::FT107,
                        Severity::Error,
                        format!("event #{idx}: sink stage {stage} must not be materialized"),
                    )
                    .at_stage(stage as u32),
                );
            } else if !replicated && !info.materializes {
                report.push(
                    Diagnostic::new(
                        Code::FT107,
                        Severity::Error,
                        format!(
                            "event #{idx}: stage {stage} materialized but the configuration \
                             does not materialize it (replicated gather outputs excepted)"
                        ),
                    )
                    .at_stage(stage as u32),
                );
            }
        }
    }

    // Availability replay in file order (authoritative for the
    // single-threaded coordinator): a put or skip makes a stage's output
    // available, a corruption demotes it, an execution requires every
    // producer to be available. First-attempt availability may also come
    // from a pre-seeded store (resume) — vouched for by the skip event
    // the coordinator emits in that case.
    let mut avail: HashSet<u64> = HashSet::new();
    for (pos, ev) in w.ordered.iter().enumerate() {
        match *ev {
            WindowEvent::Put(id) | WindowEvent::Skip(id) => {
                avail.insert(id);
            }
            WindowEvent::Corrupt(op) => {
                // Only a corruption of *live* data (materialized or
                // vouched-for earlier this attempt) obliges a rewind;
                // crash debris drained before the producer ever ran
                // resolves itself when the producer executes normally.
                if !avail.remove(&op) {
                    continue;
                }
                let rewound = w.ordered[pos..]
                    .iter()
                    .any(|e| matches!(e, WindowEvent::Rewind { producer } if *producer == op));
                let consumed_later = plan.is_some_and(|p| {
                    w.ordered[pos..].iter().any(|e| {
                        matches!(e, WindowEvent::Exec { stage }
                            if p.get(*stage).is_some_and(|i| i.inputs.contains(&op)))
                    })
                });
                if consumed_later && !rewound {
                    report.push(
                        Diagnostic::new(
                            Code::FT107,
                            Severity::Error,
                            format!(
                                "corruption of stage {op}'s live output is never followed by an \
                                 input_rewind to it, yet a consumer executes afterwards \
                                 (attempt {})",
                                w.attempt
                            ),
                        )
                        .at_stage(op as u32),
                    );
                }
            }
            WindowEvent::Exec { stage } => {
                let Some(info) = plan.and_then(|p| p.get(stage)) else { continue };
                for &p in &info.inputs {
                    if !avail.contains(&p) {
                        report.push(
                            Diagnostic::new(
                                Code::FT107,
                                Severity::Error,
                                format!(
                                    "stage {stage} executed without producer {p}'s output \
                                     covered by a materialize or skip (attempt {})",
                                    w.attempt
                                ),
                            )
                            .at_stage(stage as u32),
                        );
                    }
                }
            }
            WindowEvent::Rewind { .. } => {}
        }
    }
}

/// FT108 — Eq. 1 over observed time. Simulated stage spans last exactly
/// the collapsed `tr + tm` when the stage saw no failures (the simulator
/// *is* the cost model run forward), and at least that long otherwise.
/// Engine wall-clock is noisy, so only containment-style conservation is
/// asserted: per node, successful attempt time plus lost work fits in
/// the stage span that contains it.
fn check_cost_conservation(
    report: &mut Report,
    w: &Window,
    is_engine: bool,
    plan: &StagePlan,
    opts: &CheckOptions,
) {
    if !is_engine {
        for x in &w.execs {
            let Some(info) = plan.get(x.stage) else { continue };
            let expected = info.run_cost + info.mat_cost;
            let observed = (x.end - x.ts) as f64 / 1e6;
            let tol = opts.rel_tol * expected.max(1e-3) + 2e-6;
            let failed_here = w.failures.iter().any(|&(s, _, _)| s == x.stage);
            if failed_here {
                if observed + tol < expected {
                    report.push(
                        Diagnostic::new(
                            Code::FT108,
                            Severity::Error,
                            format!(
                                "simulated stage {} lasted {observed:.6}s, less than its \
                                 failure-free cost {expected:.6}s despite failures (Eq. 1)",
                                x.stage
                            ),
                        )
                        .at_stage(x.stage as u32),
                    );
                }
            } else if (observed - expected).abs() > tol {
                report.push(
                    Diagnostic::new(
                        Code::FT108,
                        Severity::Error,
                        format!(
                            "simulated stage {} lasted {observed:.6}s but the collapsed cost \
                             model predicts tr+tm = {expected:.6}s (Eq. 1)",
                            x.stage
                        ),
                    )
                    .at_stage(x.stage as u32),
                );
            }
        }
        return;
    }

    // Engine: per stage execution and node track, Σ successful-attempt
    // time + Σ lost work ≤ the stage's wall-clock span.
    for x in &w.execs {
        let wall = x.end - x.ts;
        let mut per_node: HashMap<u64, u64> = HashMap::new();
        for &(stage, tid, ts, end) in &w.attempts {
            if stage == x.stage && ts >= x.ts && end <= x.end.saturating_add(opts.slack_us) {
                *per_node.entry(u64::from(tid.saturating_sub(1))).or_default() += end - ts;
            }
        }
        for &(stage, node, lost_us) in &w.failures {
            if stage == x.stage {
                *per_node.entry(node).or_default() += lost_us;
            }
        }
        for (node, spent) in per_node {
            if spent > wall.saturating_add(opts.slack_us) {
                report.push(
                    Diagnostic::new(
                        Code::FT108,
                        Severity::Error,
                        format!(
                            "node {node} accounts {spent} us of attempts + lost work inside \
                             stage {}'s {wall} us span (attempt {}): time is not conserved",
                            x.stage, w.attempt
                        ),
                    )
                    .at_stage(x.stage as u32),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_core::dag::figure2_plan;

    fn plan_and_config() -> (PlanDag, MatConfig) {
        let plan = figure2_plan();
        let config = MatConfig::all(&plan);
        (plan, config)
    }

    /// A minimal clean engine-style trace over a 2-stage chain:
    /// stage 0 materializes, stage 1 (sink) consumes it.
    fn chain_plan() -> StagePlan {
        StagePlan {
            stages: vec![
                StageInfo {
                    id: 0,
                    inputs: vec![],
                    materializes: true,
                    is_sink: false,
                    run_cost: 1.0,
                    mat_cost: 0.5,
                },
                StageInfo {
                    id: 1,
                    inputs: vec![0],
                    materializes: false,
                    is_sink: true,
                    run_cost: 2.0,
                    mat_cost: 0.0,
                },
            ],
            index: [(0u64, 0usize), (1u64, 1usize)].into_iter().collect(),
        }
    }

    fn stage_span(stage: u64, ts: u64, dur: u64) -> Event {
        Event::span(format!("stage {stage}"), "engine", ts, dur)
            .arg("stage", stage)
            .arg("nodes", 1u64)
            .arg("failed", false)
    }

    fn clean_chain_trace() -> Vec<Event> {
        vec![
            stage_span(0, 0, 100),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64).arg("rows", 3u64),
            stage_span(1, 120, 200),
            Event::instant("query_completed", "engine", 330),
        ]
    }

    #[test]
    fn clean_trace_passes() {
        let plan = chain_plan();
        let report =
            check_trace("chain", &clean_chain_trace(), Some(&plan), &CheckOptions::default());
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn consumer_before_producer_is_ft104() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(1, 0, 50),
            Event::instant("materialize", "engine", 60).arg("stage", 0u64),
            stage_span(0, 60, 100),
            Event::instant("query_completed", "engine", 200),
        ];
        let report = check_trace("bad-order", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT104));
    }

    #[test]
    fn unknown_stage_is_ft103() {
        let plan = chain_plan();
        let mut trace = clean_chain_trace();
        trace.insert(2, stage_span(7, 105, 5));
        let report = check_trace("ghost", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT103));
    }

    #[test]
    fn missing_stage_is_incomplete_ft103() {
        let plan = chain_plan();
        let trace = vec![stage_span(1, 0, 50), Event::instant("query_completed", "engine", 60)];
        let report = check_trace("partial", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT103));
    }

    #[test]
    fn unjustified_reexecution_is_ft105() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(0, 0, 100),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64),
            stage_span(0, 120, 100),
            Event::instant("materialize", "engine", 230).arg("stage", 0u64),
            stage_span(1, 240, 50),
            Event::instant("query_completed", "engine", 300),
        ];
        let report = check_trace("repeat", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT105));
    }

    #[test]
    fn rewound_reexecution_is_clean() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(0, 0, 100),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64),
            Event::instant("segment_corrupt", "engine", 115)
                .arg("op", 0u64)
                .arg("reason", "checksum mismatch"),
            Event::instant("input_rewind", "engine", 116).arg("stage", 1u64).arg("producer", 0u64),
            stage_span(0, 120, 100),
            Event::instant("materialize", "engine", 230).arg("stage", 0u64),
            stage_span(1, 240, 50),
            Event::instant("query_completed", "engine", 300),
        ];
        let report = check_trace("rewound", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn corruption_without_rewind_is_ft107() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(0, 0, 100),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64),
            Event::instant("segment_corrupt", "engine", 115)
                .arg("op", 0u64)
                .arg("reason", "checksum mismatch"),
            stage_span(1, 120, 50),
            Event::instant("query_completed", "engine", 200),
        ];
        let report = check_trace("no-rewind", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT107));
    }

    #[test]
    fn sink_skip_is_ft106() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(0, 0, 100),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64),
            Event::instant("stage_skipped", "engine", 120).arg("stage", 1u64),
            Event::instant("query_completed", "engine", 130),
        ];
        let report = check_trace("sink-skip", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT106));
    }

    #[test]
    fn skip_after_restart_without_put_is_ft106() {
        let plan = chain_plan();
        let trace = vec![
            stage_span(0, 0, 100).arg("x", 1u64),
            Event::instant("materialize", "engine", 110).arg("stage", 0u64),
            Event::instant("query_restart", "engine", 150).arg("attempt", 1u64),
            Event::instant("stage_skipped", "engine", 160).arg("stage", 0u64),
            stage_span(1, 170, 50),
            Event::instant("query_completed", "engine", 230),
        ];
        let report = check_trace("stale-skip", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT106));
    }

    #[test]
    fn two_terminals_is_ft101() {
        let plan = chain_plan();
        let mut trace = clean_chain_trace();
        trace.push(Event::instant("query_completed", "engine", 400));
        let report = check_trace("double-end", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT101));
    }

    #[test]
    fn attempt_outside_stage_span_is_ft102() {
        let plan = chain_plan();
        let mut trace = clean_chain_trace();
        trace.insert(
            1,
            Event::span("attempt", "engine", 500, 50)
                .tid(1)
                .arg("stage", 0u64)
                .arg("node", 0u64)
                .arg("attempt", 0u64)
                .arg("ok", true),
        );
        let report = check_trace("orphan-attempt", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT102));
    }

    #[test]
    fn sim_duration_mismatch_is_ft108() {
        let plan = chain_plan();
        let trace = vec![
            Event::span("stage 0", "sim", 0, 3_000_000).arg("stage", 0u64),
            Event::span("stage 1", "sim", 3_000_000, 2_000_000).arg("stage", 1u64),
            Event::instant("query_completed", "sim", 5_000_000),
        ];
        // Stage 0 should last 1.5s (tr 1.0 + tm 0.5) but claims 3s.
        let report = check_trace("sim-drift", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.diagnostics.iter().any(|d| d.code == Code::FT108));
    }

    #[test]
    fn sim_exact_durations_are_clean() {
        let plan = chain_plan();
        let trace = vec![
            Event::span("stage 0", "sim", 0, 1_500_000).arg("stage", 0u64),
            Event::span("stage 1", "sim", 1_500_000, 2_000_000).arg("stage", 1u64),
            Event::instant("query_completed", "sim", 3_500_000),
        ];
        let report = check_trace("sim-clean", &trace, Some(&plan), &CheckOptions::default());
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn stage_plan_names_stages_by_root_operator() {
        let (plan, config) = plan_and_config();
        let sp = StagePlan::new(&plan, &config, 1.0);
        let pc = CollapsedPlan::collapse(&plan, &config, 1.0);
        let roots: Vec<u64> = pc.iter().map(|(_, c)| u64::from(c.root.0)).collect();
        assert_eq!(sp.stages().iter().map(|s| s.id).collect::<Vec<_>>(), roots);
        for s in sp.stages() {
            assert!(sp.get(s.id).is_some());
            assert!(s.inputs.iter().all(|p| roots.contains(p)));
        }
        // Figure 2 fans out into the two reduce UDF sinks.
        assert_eq!(sp.stages().iter().filter(|s| s.is_sink).count(), 2);
    }

    #[test]
    fn checker_survives_garbage() {
        // No args, weird names, zero-duration spans, no terminal: the
        // checker must report, never panic.
        let trace = vec![
            Event::span("stage ", "engine", 5, 0),
            Event::instant("input_rewind", "engine", 1),
            Event::instant("segment_corrupt", "engine", 2),
            Event::instant("node_failure", "engine", 3),
            Event::span("attempt", "engine", 0, u64::MAX),
        ];
        let plan = chain_plan();
        let report = check_trace("garbage", &trace, Some(&plan), &CheckOptions::default());
        assert!(!report.is_clean());
    }

    #[test]
    fn jsonl_entry_point_checks_and_reports_parse_damage() {
        let trace = vec![
            Event::span("stage", "sim", 0, 1_000_000).arg("stage", 0u64),
            Event::instant("query_completed", "sim", 1_000_000),
        ];
        let jsonl = ftpde_obs::export::to_jsonl(&trace);
        let report = check_trace_jsonl("rt", &jsonl, None, &CheckOptions::default());
        assert!(report.is_clean(), "{}", report.render());
        // Torn input is an FT101 error, not an Err.
        let report = check_trace_jsonl("torn", "{not json", None, &CheckOptions::default());
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics[0].code, Code::FT101);
    }
}
