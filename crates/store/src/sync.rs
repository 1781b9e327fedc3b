//! Synchronization shim: `parking_lot` normally, `loom` under
//! `--cfg loom`.
//!
//! [`MemBackend`](crate::MemBackend) guards its segment map with this
//! module's [`Mutex`] so the loom job (`RUSTFLAGS="--cfg loom"`) can
//! model-check the *real* backend under adversarial interleavings —
//! concurrent partition writers, a reader racing a `clear`, replicated
//! puts — instead of a re-implementation that could drift from the code
//! under test. Normal builds compile to `parking_lot` with zero overhead.
//!
//! The API is the parking_lot shape (`lock()` returns the guard directly;
//! no poisoning): the loom branch unwraps poison errors, which matches
//! parking_lot's semantics of not poisoning at all.
//!
//! [`plain`] re-exports the primitives that are *not* part of the
//! loom-modeled protocol (refcounts, throughput counters, the disk
//! backend's coarse manifest lock), and [`clock`] is the crate's view of
//! the workspace wall-clock seam — see `ftpde_obs::sync` for both
//! stories. The `FT201` source lint (`ftpde lint --source`) and
//! clippy's `disallowed-methods` (`crates/clippy.toml`) enforce that
//! library code in this crate uses these modules rather than reaching
//! for `std::sync`/`parking_lot`/`Instant::now` directly.

#[cfg(not(loom))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(loom)]
mod loom_impl {
    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = loom::sync::MutexGuard<'a, T>;

    /// A loom-instrumented mutex with parking_lot's non-poisoning API.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(loom::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub fn new(value: T) -> Self {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Acquires the lock. Every acquisition is a loom schedule point.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }
}

#[cfg(loom)]
pub use loom_impl::{Mutex, MutexGuard};

pub use ftpde_obs::sync::clock;

/// `std`/`parking_lot` primitives used identically in every build —
/// synchronization documented as outside the loom-modeled protocol.
/// See [`ftpde_obs::sync::plain`] for the rationale.
pub mod plain {
    pub use std::sync::atomic::{AtomicU64, Ordering};
    pub use std::sync::{Arc, OnceLock};

    pub use parking_lot::Mutex;
}
