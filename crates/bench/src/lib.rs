//! # ftpde-bench — experiment harnesses
//!
//! One module per table/figure of the paper's evaluation (§5). Every
//! module exposes a `run()` returning plain data and a `print()` that
//! emits the same rows/series the paper reports; the `benches/` targets
//! call both, so `cargo bench` regenerates the whole evaluation.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig01`] | Figure 1 — probability of success of a query |
//! | [`tab02`] | Table 2 / Figure 3 — worked cost-estimation example |
//! | [`fig08`] | Figure 8 — overhead across queries (low/high MTBF) |
//! | [`fig10`] | Figure 10 — overhead vs query runtime |
//! | [`fig11`] | Figure 11 — overhead vs MTBF |
//! | [`fig12`] | Figure 12 — accuracy of the cost model |
//! | [`tab03`] | Table 3 — robustness to statistics errors |
//! | [`fig13`] | Figure 13 — effectiveness of the pruning rules |

pub mod ablation;
pub mod common;
pub mod diagrams;
pub mod fig01;
pub mod fig08;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod report;
pub mod store_micro;
pub mod tab02;
pub mod tab03;
