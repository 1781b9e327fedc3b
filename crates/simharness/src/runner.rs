//! Executes a [`SimCase`] against the real engine and judges the outcome.
//!
//! The runner is a pipeline of oracles, each mapping to a diagnostic
//! code in the unified registry:
//!
//! 1. **FT0xx** — the plan linter validates the workload's DAG and
//!    materialization configuration before anything runs; a workload the
//!    linter rejects never reaches the engine.
//! 2. **Reference run** — the same workload, no faults. Its result is
//!    ground truth for the divergence oracle.
//! 3. **Faulted run** — the schedule's kills go through the engine's
//!    [`FailureInjector`], its storage faults through the [`FaultStore`]
//!    decorator, under `catch_unwind`: a panic anywhere in the engine is
//!    **FT303**, not a harness crash.
//! 4. **FT1xx** — the recorded trace replays through the conformance
//!    checker (`check_trace`): track discipline, stage identity, the
//!    §2.2 recovery contract, Eq. 1 conservation.
//! 5. **FT302** — the faulted run's (order-insensitive) result must equal
//!    the reference's. Recovery may cost time; it must never change the
//!    answer.
//! 6. **FT301** — the whole faulted run replays from scratch; the two
//!    canonical trace projections must be identical, event for event in
//!    file order, under either recovery mode. Same seed, same history.
//! 7. **FT304** (warn) — scheduled faults that never fired mean the
//!    schedule outran the run: the case tests less than it claims.

use std::panic::AssertUnwindSafe;

use ftpde_analysis::prelude::{
    check_trace, CheckOptions, Code, Diagnostic, PlanValidator, Report, Severity, StagePlan,
};
use ftpde_core::prelude::MatConfig;
use ftpde_engine::prelude::{
    load_catalog, run_query_resumable, Catalog, EnginePlan, FailureInjector, Injection, RunOptions,
    RunReport,
};
use ftpde_obs::export::{canonical_trace, to_jsonl};
use ftpde_obs::{Event, MemoryRecorder};
use ftpde_sim::prelude::FaultSchedule;
use ftpde_store::{FaultStore, MemBackend, StoreBug};
use ftpde_tpch::prelude::Database;
use serde::{Deserialize, Serialize};

use crate::case::SimCase;

/// The TPC-H generator seed every harness database uses. Varying data
/// per case would buy little coverage and cost shrink stability (a
/// schedule minimized on one dataset must keep failing on the same one).
pub const DATA_SEED: u64 = 1;

/// Deterministic facts about the faulted run, for reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Fine-grained node retries of the faulted run.
    pub node_retries: u64,
    /// Coarse query restarts of the faulted run.
    pub query_restarts: u32,
    /// Whether the coarse restart limit was hit.
    pub aborted: bool,
    /// Total result rows of the faulted run.
    pub result_rows: u64,
    /// Order-insensitive FNV-1a hash of the faulted run's result.
    pub result_hash: String,
    /// Same hash for the failure-free reference run.
    pub reference_hash: String,
    /// Corrupt segments the engine observed (injected and organic).
    pub corruptions: u64,
    /// Canonical trace length of the faulted run.
    pub trace_events: u64,
    /// Descriptions of faults that took effect, sorted.
    pub fired: Vec<String>,
}

/// The runner's verdict on one case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// The case that ran.
    pub case: SimCase,
    /// Findings, across all oracles.
    pub report: Report,
    /// Run facts; absent when the plan lint rejected the workload or
    /// every run panicked before producing a report.
    pub summary: Option<RunSummary>,
}

impl CaseOutcome {
    /// Whether any oracle found an error.
    pub fn failing(&self) -> bool {
        self.report.count(Severity::Error) > 0
    }

    /// One-line text rendering of the verdict.
    pub fn headline(&self) -> String {
        let verdict = match crate::shrink::primary_code(&self.report) {
            Some(code) => format!("{} error", code.as_str()),
            None if self.report.is_clean() => "clean".to_string(),
            None => "warn".to_string(),
        };
        format!(
            "seed {}: {verdict} ({}; {} fault(s))",
            self.case.seed,
            self.case.workload.describe(),
            self.case.schedule.len()
        )
    }
}

/// One engine execution under a schedule: what happened, in full.
struct Execution {
    /// The run's report, or the panic message.
    outcome: Result<RunReport, String>,
    /// Raw recorded trace.
    events: Vec<Event>,
    /// Fault descriptions that took effect, sorted.
    fired: Vec<String>,
    /// Armed fault descriptions that never fired, sorted.
    unfired: Vec<String>,
}

/// Runs `schedule` against `plan` once, with faults armed, under
/// `catch_unwind`.
fn execute(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    opts: &RunOptions,
    schedule: &FaultSchedule,
    bug: StoreBug,
) -> Execution {
    use ftpde_sim::prelude::FaultEvent;
    let inner = MemBackend::new();
    let store = FaultStore::new(&inner);
    store.set_bug(bug);
    for fault in schedule.store_faults() {
        match *fault {
            FaultEvent::TornWrite { op, node } => store.arm_torn(op, node as usize),
            FaultEvent::LostPut { op, node } => store.arm_lost_put(op, node as usize),
            FaultEvent::CorruptRead { op, node, nth_get } => {
                store.arm_corrupt_read(op, node as usize, nth_get);
            }
            FaultEvent::DelayIo { op, node, virtual_ms, uses } => {
                store.arm_delay(op, node as usize, u64::from(virtual_ms), uses);
            }
            FaultEvent::KillNode { .. } => unreachable!("kills are not store faults"),
        }
    }
    let injector =
        FailureInjector::with(schedule.kills().map(|(stage, node, attempt)| Injection {
            stage,
            node: node as usize,
            attempt,
        }));
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..*opts };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_query_resumable(plan, config, catalog, &injector, &opts, &store)
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    let mut fired = store.fired();
    fired.extend(
        injector
            .fired()
            .iter()
            .map(|i| format!("kill stage {} node {} attempt {}", i.stage, i.node, i.attempt)),
    );
    fired.sort();
    let mut unfired = store.unfired();
    let landed = injector.fired();
    for (stage, node, attempt) in schedule.kills() {
        let hit =
            landed.iter().any(|i| (i.stage, i.node as u32, i.attempt) == (stage, node, attempt));
        if !hit {
            unfired.push(format!("kill stage {stage} node {node} attempt {attempt}"));
        }
    }
    unfired.sort();
    Execution { outcome, events: rec.take(), fired, unfired }
}

/// Order-insensitive FNV-1a fingerprint of a run's result rows.
fn result_hash(report: &RunReport) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (id, rows) in &report.results {
        for row in rows {
            lines.push(format!("{} {row:?}", id.0));
        }
    }
    lines.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for byte in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Runs the full oracle pipeline on `case`.
pub fn run_case(case: &SimCase) -> CaseOutcome {
    let subject = format!("sim seed {}", case.seed);
    let mut report = Report::new(&subject);
    let plan = case.workload.plan();
    let dag = plan.to_plan_dag();
    let config = match case.workload.mat_config(&dag) {
        Ok(config) => config,
        Err(err) => {
            report.push(Diagnostic::new(
                Code::FT303,
                Severity::Error,
                format!("materialization config failed to resolve: {err}"),
            ));
            return CaseOutcome { case: case.clone(), report, summary: None };
        }
    };

    // Oracle 1: the workload must pass the plan linter before it runs.
    let lint =
        PlanValidator::new(case.workload.cost_params()).validate_ft_plan(&subject, &dag, &config);
    let lint_failed = lint.count(Severity::Error) > 0;
    for d in lint.diagnostics {
        report.push(d);
    }
    if lint_failed {
        return CaseOutcome { case: case.clone(), report, summary: None };
    }

    let db = Database::generate(case.workload.sf, DATA_SEED);
    let catalog = load_catalog(&db, case.workload.nodes as usize);
    let opts = case.workload.run_options();

    // Oracle 2: failure-free reference. A panic here is as much FT303 as
    // one under faults — the workload itself is broken.
    let reference =
        execute(&plan, &config, &catalog, &opts, &FaultSchedule::empty(), StoreBug::None);
    let reference_run = match reference.outcome {
        Ok(run) => run,
        Err(msg) => {
            report.push(Diagnostic::new(
                Code::FT303,
                Severity::Error,
                format!("panic during failure-free reference run: {msg}"),
            ));
            return CaseOutcome { case: case.clone(), report, summary: None };
        }
    };

    // Oracle 3: the faulted run, plus its from-scratch replay.
    let bug = case.bug.store_bug();
    let faulted = execute(&plan, &config, &catalog, &opts, &case.schedule, bug);
    let replay = execute(&plan, &config, &catalog, &opts, &case.schedule, bug);

    let summary = match &faulted.outcome {
        Err(msg) => {
            report.push(Diagnostic::new(
                Code::FT303,
                Severity::Error,
                format!("panic during simulated run: {msg}"),
            ));
            None
        }
        Ok(run) => {
            // Oracle 4: trace conformance (FT1xx).
            let pipe_const = case.workload.cost_params().pipe_const;
            let stage_plan = StagePlan::new(&dag, &config, pipe_const);
            let conformance =
                check_trace(&subject, &faulted.events, Some(&stage_plan), &CheckOptions::default());
            for d in conformance.diagnostics {
                report.push(d);
            }

            // Oracle 5: result divergence (FT302).
            let faulted_hash = result_hash(run);
            let reference_hash = result_hash(&reference_run);
            if faulted_hash != reference_hash {
                report.push(Diagnostic::new(
                    Code::FT302,
                    Severity::Error,
                    format!(
                        "faulted result {faulted_hash} diverges from failure-free \
                         reference {reference_hash} ({} fault(s) injected)",
                        case.schedule.len()
                    ),
                ));
            }

            // Oracle 6: replay determinism (FT301).
            let canon = canonical_trace(&faulted.events);
            match &replay.outcome {
                Err(msg) => report.push(Diagnostic::new(
                    Code::FT301,
                    Severity::Error,
                    format!("replay of the same schedule panicked: {msg}"),
                )),
                Ok(replay_run) => {
                    let canon_replay = canonical_trace(&replay.events);
                    if to_jsonl(&canon) != to_jsonl(&canon_replay) {
                        let first = canon
                            .iter()
                            .zip(canon_replay.iter())
                            .position(|(a, b)| a != b)
                            .map_or_else(
                                || format!("lengths {} vs {}", canon.len(), canon_replay.len()),
                                |i| format!("first divergence at canonical event {i}"),
                            );
                        report.push(Diagnostic::new(
                            Code::FT301,
                            Severity::Error,
                            format!("same schedule, different canonical trace: {first}"),
                        ));
                    }
                    let replay_hash = result_hash(replay_run);
                    if replay_hash != faulted_hash {
                        report.push(Diagnostic::new(
                            Code::FT301,
                            Severity::Error,
                            format!(
                                "same schedule, different result: {faulted_hash} vs \
                                 {replay_hash}"
                            ),
                        ));
                    }
                }
            }

            // Oracle 7: schedule coverage (FT304, warn-only).
            if !faulted.unfired.is_empty() {
                report.push(Diagnostic::new(
                    Code::FT304,
                    Severity::Warn,
                    format!("scheduled faults never fired: {}", faulted.unfired.join("; ")),
                ));
            }

            Some(RunSummary {
                node_retries: run.node_retries,
                query_restarts: run.query_restarts,
                aborted: run.aborted,
                result_rows: run.results.iter().map(|(_, rows)| rows.len() as u64).sum(),
                result_hash: faulted_hash,
                reference_hash,
                corruptions: run.segments_corrupt,
                trace_events: canon.len() as u64,
                fired: faulted.fired.clone(),
            })
        }
    };

    CaseOutcome { case: case.clone(), report, summary }
}

/// Convenience: derive and run one seed.
pub fn run_seed(seed: u64) -> CaseOutcome {
    run_case(&SimCase::derive(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::BugMode;

    #[test]
    fn a_clean_seed_produces_a_clean_report_and_summary() {
        // Seed 0 is part of the tier-1 determinism sweep; whatever its
        // workload, a correct engine must come back clean.
        let outcome = run_seed(0);
        assert!(!outcome.failing(), "{}", outcome.report.render());
        assert!(outcome.headline().contains("seed 0"));
        let summary = outcome.summary.expect("run completed");
        assert_eq!(summary.result_hash, summary.reference_hash);
        assert!(!summary.aborted);
        assert!(summary.trace_events > 0);
    }

    #[test]
    fn outcomes_are_identical_across_invocations() {
        for seed in [3u64, 11] {
            let a = run_seed(seed);
            let b = run_seed(seed);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn the_first_coarse_seed_whose_storage_fault_fires_runs_clean() {
        use crate::workload::RecoveryKind;
        use ftpde_sim::prelude::FaultEvent;
        // A coarse restart replays deterministically, event for event, so
        // its seeds carry storage faults like fine-grained ones.
        let outcome = (0..256u64)
            .map(SimCase::derive)
            .filter(|c| {
                c.workload.recovery == RecoveryKind::Coarse
                    && c.schedule.events.iter().any(FaultEvent::is_store_fault)
            })
            .map(|c| run_case(&c))
            .find(|o| {
                o.summary.as_ref().is_some_and(|s| s.fired.iter().any(|f| !f.starts_with("kill ")))
            })
            .expect("a coarse seed in 0..256 fires a storage fault");
        assert!(outcome.report.is_clean(), "{}", outcome.report.render());
    }

    #[test]
    fn result_hash_ignores_row_order() {
        use ftpde_engine::prelude::EOpId;
        use ftpde_store::int_row;
        let base = RunReport {
            results: vec![(EOpId(4), vec![int_row(&[1, 2]), int_row(&[3, 4])])],
            node_retries: 0,
            query_restarts: 0,
            aborted: false,
            rows_materialized: 0,
            bytes_materialized: 0,
            segments_corrupt: 0,
            stages_skipped: 0,
            stage_timings: Vec::new(),
        };
        let mut flipped = base.clone();
        flipped.results[0].1.reverse();
        assert_eq!(result_hash(&base), result_hash(&flipped));
        let mut other = base.clone();
        other.results[0].1[0] = int_row(&[1, 99]);
        assert_ne!(result_hash(&base), result_hash(&other));
    }

    #[test]
    fn the_serve_corrupt_data_bug_is_caught_by_ft302() {
        // Find a seed whose schedule damages a slot the query actually
        // reads back: under the bug the store serves mutated rows and
        // the result diverges from the reference.
        let caught = (0..200u64).find(|&seed| {
            let case = SimCase::derive(seed).with_bug(BugMode::ServeCorruptData);
            let has_damage = case.schedule.events.iter().any(|e| {
                matches!(
                    e,
                    ftpde_sim::prelude::FaultEvent::TornWrite { .. }
                        | ftpde_sim::prelude::FaultEvent::CorruptRead { .. }
                )
            });
            has_damage && run_case(&case).report.diagnostics.iter().any(|d| d.code == Code::FT302)
        });
        assert!(caught.is_some(), "no seed in 0..200 tripped FT302 under the seeded bug");
    }
}
