//! # ftpde — Cost-based Fault-tolerance for Parallel Data Processing
//!
//! A full Rust reproduction of *"Cost-based Fault-tolerance for Parallel
//! Data Processing"* (Salama, Binnig, Kraska, Zamanian — SIGMOD 2015):
//! given a DAG-structured parallel execution plan and a cluster's
//! reliability statistics (MTBF, MTTR), select the subset of intermediate
//! results to materialize so that the query's total runtime **under
//! mid-query failures** is minimized — beating both the Hadoop-style
//! "materialize everything" and the Spark/parallel-DB-style "materialize
//! nothing" extremes across query sizes and cluster setups.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | the paper's contribution: plan DAGs, materialization configurations, collapsed plans, the failure cost model (Eq. 1–8), `findBestFTPlan` (Listing 1) and the pruning rules (§4) |
//! | [`cluster`] | failure model: MTBF/MTTR configs, exponential failure traces, Poisson success analytics (Figure 1) |
//! | [`optimizer`] | join-order enumeration: connected-subgraph DP, k-best plans, physical costing |
//! | [`tpch`] | the TPC-H workload: schema, partitioning, queries Q1/Q3/Q5/Q1C/Q2C, calibrated cost model, row generator |
//! | [`sim`] | discrete-event cluster simulator executing fault-tolerant plans against failure traces under all four schemes |
//! | [`engine`] | in-process partition-parallel execution engine with real tuples, failure injection and recovery |
//! | [`store`] | durable, pluggable checkpoint storage: in-memory and on-disk backends with CRC-checked segments, an append-only commit log and crash recovery |
//! | [`obs`] | observability: event recorder used by the search, simulator and engine; trace folds into query rows and metrics; JSONL / Chrome-trace / Prometheus exporters |
//! | [`analysis`] | static analysis: the coded plan linter (`FT001`…), collapsed-plan and cost-model verifiers, pruning-soundness oracle |
//! | [`simharness`] | deterministic whole-system simulation: seeded workloads and fault schedules driven through the real engine, oracle checks (`FT301`…), schedule shrinking and the committed bug base |
//! | [`mod@bench`] | experiment harnesses reproducing the paper's tables and figures, plus the checkpoint-store micro-benchmark |
//!
//! ## Quickstart
//!
//! ```
//! use ftpde::core::prelude::*;
//!
//! // An analytical query: scan -> join -> join -> aggregate.
//! let mut b = PlanDag::builder();
//! let scan = b.bound_pipelined("scan", 120.0, 500.0, &[]).unwrap();
//! let j1 = b.free("join1", 300.0, 15.0, &[scan]).unwrap();
//! let j2 = b.free("join2", 250.0, 80.0, &[j1]).unwrap();
//! let _agg = b.bound_pipelined("agg", 30.0, 0.5, &[j2]).unwrap();
//! let plan = b.build().unwrap();
//!
//! // On a flaky cluster, checkpoint the cheap intermediate...
//! let flaky = CostParams::new(900.0, 1.0);
//! let (best, _) =
//!     find_best_ft_plan(std::slice::from_ref(&plan), &flaky, &PruneOptions::default()).unwrap();
//! assert!(best.config.materializes(j1));
//!
//! // ...on a reliable one, materialize nothing.
//! let reliable = CostParams::new(1e9, 1.0);
//! let (best, _) =
//!     find_best_ft_plan(std::slice::from_ref(&plan), &reliable, &PruneOptions::default()).unwrap();
//! assert_eq!(best.config.materialized_count(), 0);
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and the
//! `ftpde-bench` crate for the harnesses that regenerate every table and
//! figure of the paper's evaluation.

pub use ftpde_analysis as analysis;
pub use ftpde_bench as bench;
pub use ftpde_cluster as cluster;
pub use ftpde_core as core;
pub use ftpde_engine as engine;
pub use ftpde_obs as obs;
pub use ftpde_optimizer as optimizer;
pub use ftpde_sim as sim;
pub use ftpde_simharness as simharness;
pub use ftpde_store as store;
pub use ftpde_tpch as tpch;
