//! Synchronization shim for the coordinator's recovery protocol: `std`
//! normally, `loom` under `--cfg loom`.
//!
//! The coordinator's concurrency surface is deliberately small — scoped
//! worker threads and the internally-synchronized
//! [`ftpde_store::StoreBackend`], the one piece of state the coordinator
//! shares with its workers — and everything shared crosses this
//! module (or `ftpde_store::sync`), so the loom CI job
//! (`RUSTFLAGS="--cfg loom"`) model-checks the very primitives the
//! production build runs. The loom protocol models live in
//! `crates/engine/tests/loom.rs`: rewind-after-corruption and concurrent
//! partition writers over the real [`MemBackend`](ftpde_store::MemBackend).
//!
//! Scoped spawning itself stays on [`std::thread::scope`] in both builds:
//! loom threads are `'static` and cannot borrow the coordinator's stack,
//! so the models drive the shared store through loom threads rather than
//! running the whole coordinator under the model.

pub use ftpde_store::sync::{Mutex, MutexGuard};

pub use ftpde_obs::sync::clock;

/// `std`/`parking_lot` primitives used identically in every build —
/// synchronization documented as outside the loom-modeled protocol
/// (worker scope handles, the failure injector's script lock). See
/// [`ftpde_obs::sync::plain`] for the rationale.
pub mod plain {
    pub use std::sync::Arc;
    pub use std::thread;

    pub use parking_lot::Mutex;
}
