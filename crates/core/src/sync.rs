//! Clock shim for the optimizer: the crate's view of the workspace
//! wall-clock seam.
//!
//! `ftpde-core` is single-threaded by design — the cost-based search
//! owns all its state — so there are no synchronization primitives
//! here. The only nondeterminism the crate ever touches is wall time
//! (the search's elapsed-time budget accounting), and that routes
//! through [`clock`] so a deterministic simulator can virtualize it.
//! Clippy's `disallowed-methods` (this crate's `clippy.toml`) enforces
//! the routing.

pub use ftpde_obs::sync::clock;
