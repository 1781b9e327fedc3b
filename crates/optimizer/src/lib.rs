//! # ftpde-optimizer — cost-based join-order enumeration
//!
//! The first phase of the paper's `enumFTPlans` (§3.2): a dynamic-
//! programming join enumerator over connected subgraphs that produces the
//! top-k bushy join trees (no cross products) ordered by failure-free
//! cost, plus the physical conversion that turns a join tree into a
//! cost-annotated `PlanDag` for the fault-tolerance search.
//!
//! ```
//! use ftpde_optimizer::prelude::*;
//!
//! // A two-relation join graph.
//! let g = chain_graph(
//!     &[("A", 10_000.0, 1.0, 64.0), ("B", 1_000.0, 1.0, 64.0)],
//!     &[0.001],
//! );
//! assert_eq!(count_join_orders(&g), 2); // A⋈B and B⋈A
//! let best = k_best_plans(&g, 2);
//! let plan = tree_to_plan(&g, &best[0], &CostModel::xdb_calibrated(), None);
//! assert_eq!(plan.free_count(), 1);
//! ```

pub mod enumerate;
pub mod logical;
pub mod physical;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::enumerate::{
        all_plans, count_join_orders, k_best_plans, JoinTree, BUILD_FACTOR,
    };
    pub use crate::logical::{chain_graph, JoinEdge, JoinGraph, RelId, Relation};
    pub use crate::physical::{tree_to_plan, AggSpec, CostModel};
}
