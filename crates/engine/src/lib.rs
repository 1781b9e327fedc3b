//! # ftpde-engine — an in-process partition-parallel execution engine
//!
//! The engine-level substrate of the reproduction: real tuples, real
//! operators (scan, filter, project, hash join, hash aggregate), one
//! worker thread per simulated node, a fault-tolerant intermediate store,
//! and a coordinator that splits plans into sub-plans at their
//! materialization points, injects node failures, and recovers exactly as
//! the paper's XDB middleware does — fine-grained (redeploy the failed
//! sub-plan) or coarse-grained (restart the query).
//!
//! The engine validates the *correctness* of every recovery path (results
//! under failures are bit-identical to failure-free single-node runs);
//! the time-domain performance experiments run in the discrete-event
//! simulator (`ftpde-sim`), which scales to the paper's multi-hour
//! workloads.
//!
//! ```
//! use ftpde_engine::prelude::*;
//! use ftpde_core::config::MatConfig;
//! use ftpde_tpch::datagen::Database;
//!
//! let db = Database::generate(0.0002, 1);
//! let catalog = load_catalog(&db, 4);
//! let plan = q1_engine_plan();
//! let config = MatConfig::none(&plan.to_plan_dag());
//! let report = run_query(&plan, &config, &catalog, &FailureInjector::none(),
//!                        &RunOptions::default());
//! assert_eq!(report.results.len(), 1); // one sink: the per-flag aggregate
//! ```

pub mod coordinator;
pub mod expr;
pub mod failure;
pub mod ops;
pub mod plan;
pub mod queries;
pub mod table;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::coordinator::{
        run_query, run_query_resumable, EngineRecovery, RunOptions, RunReport, StageTiming,
    };
    pub use crate::expr::{ArithOp, CmpOp, Expr};
    pub use crate::failure::{FailureInjector, Injection};
    pub use crate::ops::{execute, merge_partials, ExecCtx, Interrupted};
    pub use crate::plan::{Agg, AggFunc, EOpId, EngineOp, EnginePlan, OpKind};
    pub use crate::queries::{
        load_catalog, q1_engine_plan, q1c_engine_plan, q2c_engine_plan, q3_engine_plan,
        q5_engine_plan,
    };
    pub use crate::table::{hash_key, Catalog, Distribution, PartitionedTable};
    pub use ftpde_store::{
        int_row, row, DiskBackend, MemBackend, Row, StoreBackend, StoreStats, Value,
    };
}
