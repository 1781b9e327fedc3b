//! # ftpde-sim — discrete-event cluster simulator
//!
//! Executes fault-tolerant plans in virtual time against deterministic
//! failure traces, reproducing the evaluation methodology of the paper
//! (§5): collapsed sub-plans run partition-parallel on all nodes with
//! blocking materialization barriers; node failures interrupt the failed
//! node's sub-plan, which is redeployed after the MTTR (fine-grained
//! recovery) or restart the whole query (coarse recovery). The four
//! fault-tolerance schemes of the paper are provided by [`scheme::Scheme`].
//!
//! ```
//! use ftpde_cluster::prelude::*;
//! use ftpde_core::dag::figure2_plan;
//! use ftpde_sim::prelude::*;
//!
//! let plan = figure2_plan();
//! let cluster = ClusterConfig::paper_cluster(mtbf::DAY);
//! let horizon = suggested_horizon(&plan, &cluster, &SimOptions::default());
//! let traces = TraceSet::generate(&cluster, horizon, 10, 42);
//! let runs = run_all_schemes(&plan, &cluster, &traces, &SimOptions::default()).unwrap();
//! assert_eq!(runs.len(), 4);
//! ```

pub mod fault;
pub mod metrics;
pub mod scheme;
pub mod simulate;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::fault::{FaultEvent, FaultSchedule};
    pub use crate::metrics::{
        overhead_pct, run_all_schemes, run_scheme, suggested_horizon, SchemeRun,
    };
    pub use crate::scheme::{Recovery, Scheme};
    pub use crate::simulate::{
        baseline_runtime, failure_free_makespan, simulate, SimOptions, SimResult,
    };
}
