//! # ftpde-analysis — static analysis for fault-tolerant plans
//!
//! This crate is the reproduction's verification layer: it re-checks, from
//! the outside, the invariants the rest of the workspace relies on.
//!
//! * [`passes::PlanValidator`] — a **plan linter** running diagnostic
//!   passes over [`PlanDag`](ftpde_core::dag::PlanDag)s and fault-tolerant
//!   plans: DAG structural integrity, cost domains, binding consistency,
//!   the collapsed-plan partition property of §3.3, and cost-model sanity
//!   (probability domains, dominant-path supremacy, failure-penalty
//!   monotonicity). Every check has a stable code (`FT001`…`FT010`,
//!   [`diag::Code`]) and a severity; reports render as text or serialize
//!   to JSON for the CI lint gate.
//! * [`oracle`] — a **pruning-soundness oracle** cross-checking
//!   [`find_best_ft_plan`](ftpde_core::search::find_best_ft_plan) against
//!   exhaustive enumeration: the rule-3 family must reproduce the optimum
//!   exactly, the heuristic rules 1/2 must never beat it and stay within a
//!   bounded slack, and the Eq. 9 path memo must never under-report
//!   dominance ([`oracle::MemoMirror`]).
//! * [`conformance`] — a **trace-conformance verifier** replaying engine
//!   and simulator observability traces against the collapsed plan and
//!   materialization configuration: span/track discipline, stage identity
//!   and ordering, the §2.2 recovery contract (re-execution only after a
//!   rewind or corruption, materialized stages skipped on retry), store
//!   lifecycle, and Eq. 1 conservation of observed timings. Findings use
//!   the `FT101`…`FT108` codes and the same report machinery; the
//!   `ftpde check` CLI subcommand is its command-line face.
//! * [`source`] — a **source-discipline analyzer** linting the
//!   workspace's own Rust sources with a dependency-free tokenizer:
//!   panics in library code (`FT204`, a ratchet) and unsynced renames
//!   on the store commit path (`FT205`). `ftpde lint --source` is its
//!   CLI face.
//! * [`codes`] — the **unified diagnostic registry**: every FT code's
//!   default severity, summary and long-form explanation in one table,
//!   backing `ftpde explain FT###` (and `--list`) and the generated
//!   DESIGN.md code tables.
//! * [`sarif`] — **SARIF 2.1.0 export** of any report set, the
//!   interchange document code-scanning UIs ingest
//!   (`ftpde lint --source --format sarif`).
//!
//! The crate depends only on `ftpde-core` and `ftpde-obs` (plus serde):
//! it can lint any plan and audit any trace regardless of where they came
//! from — the `ftpde lint` / `ftpde check` CLI subcommands feed it the
//! built-in TPC-H plans and recorded JSONL traces.
//!
//! ## Quick example
//!
//! ```
//! use ftpde_analysis::prelude::*;
//! use ftpde_core::dag::figure2_plan;
//! use ftpde_core::prelude::*;
//!
//! let plan = figure2_plan();
//! let config = MatConfig::none(&plan);
//! let validator = PlanValidator::new(CostParams::new(60.0, 0.0));
//! let report = validator.validate_ft_plan("figure2", &plan, &config);
//! assert!(report.is_clean());
//!
//! // Two candidates: the second is the first at ten times every cost, so
//! // rule 3 skips it whole by its runtime floor.
//! let mut costly = figure2_plan();
//! for id in costly.op_ids().collect::<Vec<_>>() {
//!     costly.op_mut(id).run_cost *= 10.0;
//!     costly.op_mut(id).mat_cost *= 10.0;
//! }
//! let oracle = check_pruning_soundness(&[plan, costly], &CostParams::new(60.0, 0.0));
//! assert!(oracle.all_sound());
//! assert_eq!(oracle.reference.plan_index, 0);
//! ```

pub mod codes;
pub mod conformance;
pub mod diag;
pub mod oracle;
pub mod passes;
pub mod sarif;
pub mod source;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::conformance::{
        check_trace, check_trace_jsonl, CheckOptions, StageInfo, StagePlan,
    };
    pub use crate::diag::{Code, Diagnostic, Report, ReportSet, Severity};
    pub use crate::oracle::{
        check_pruning_soundness, exhaustive_best, ExhaustiveBest, MemoMirror, OracleOutcome,
        OracleReport, RULE12_SLACK,
    };
    pub use crate::passes::PlanValidator;
    pub use crate::source::{classify, lint_str, lint_workspace, FileClass, SourceScan};
}
