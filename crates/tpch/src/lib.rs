//! # ftpde-tpch — the TPC-H workload substrate
//!
//! Everything the reproduction needs from the paper's workload (§5.1–5.2):
//! the TPC-H schema with per-scale-factor cardinalities, the paper's
//! partitioning layout (hash co-partitioning + RREF + replication), the
//! five evaluation queries (Q1, Q3, Q5, Q1C, Q2C) as cost-annotated plan
//! builders, a calibrated cost model, and a deterministic row generator
//! for the in-process execution engine.
//!
//! ```
//! use ftpde_sim::simulate::baseline_runtime;
//! use ftpde_tpch::prelude::*;
//!
//! let cm = CostModel::xdb_calibrated();
//! let plan = Query::Q5.plan(100.0, &cm);
//! assert_eq!(plan.free_count(), 5); // Figure 9's free operators 1–5
//! let secs = baseline_runtime(&plan, 1.0);
//! assert!((800.0..1000.0).contains(&secs)); // the paper's ≈ 905 s anchor
//! ```

pub mod costing;
pub mod datagen;
pub mod partitioning;
pub mod queries;
pub mod rows;
pub mod schema;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::costing::{free_materialization_cost, CostModel};
    pub use crate::datagen::Database;
    pub use crate::partitioning::{join_is_local, paper_layout, storage_factor, Partitioning};
    pub use crate::queries::{
        left_deep_chain, q1_plan, q1c_plan, q2c_plan, q3_join_graph, q3_plan, q5_agg_spec,
        q5_join_graph, q5_join_graph_with, q5_plan, q5_plan_low_selectivity, Query,
    };
    pub use crate::rows::{
        Customer, Lineitem, Nation, Order, Part, Partsupp, Region, Supplier, DATE_RANGE_DAYS,
    };
    pub use crate::schema::{ratios, Table};
}
