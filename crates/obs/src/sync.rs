//! Synchronization shim for the flight recorder: `std` + `parking_lot`
//! normally, `loom` under `--cfg loom`.
//!
//! The flight recorder ([`crate::flight`]) is the one piece of this crate
//! with a non-trivial concurrent protocol — a ticket-dispensing ring
//! written by every worker thread and snapshotted concurrently — so its
//! primitives cross this module and the loom CI job
//! (`RUSTFLAGS="--cfg loom"`) model-checks the very ring the production
//! build runs (`crates/obs/tests/loom.rs`). Everything else in the crate
//! (metrics registry, progress registry, HTTP server) uses [`plain`]:
//! `std` / `parking_lot` in every build, documented as *outside* the
//! loom-modeled protocol — those paths are either lock-free single-word
//! atomics or coarse mutexes with no ordering protocol worth modeling.
//! The source-discipline analyzer (`FT201`, `ftpde lint --source`)
//! enforces that every primitive in library code routes through one of
//! the two, so the split is visible instead of ambient.
//!
//! [`clock`] is the workspace's wall-clock seam: library code reads time
//! through it (clippy's `disallowed-methods`, configured in
//! `crates/clippy.toml`, rejects `Instant::now` everywhere else), which
//! is what lets a deterministic simulator virtualize time without
//! touching the call sites.

#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicU64, Ordering};

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

/// `std`/`parking_lot` primitives re-exported unchanged in **every**
/// build, including `--cfg loom`.
///
/// Code importing from here is declaring: *this synchronization is not
/// part of a loom-modeled protocol* — lock-free counters, coarse
/// registry mutexes, thread handles for the HTTP acceptor. Routing the
/// declaration through one module keeps the escape visible (grep
/// `sync::plain`) and lets the `FT201` source lint flag any primitive
/// that bypasses both this module and the loom-switched one above.
/// Anything with an ordering protocol worth model-checking belongs on
/// the loom-switched re-exports instead.
pub mod plain {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{Arc, OnceLock};
    pub use std::thread;

    pub use parking_lot::{Mutex, MutexGuard, RwLock};
}

/// The wall-clock seam: all library reads of monotonic time route
/// through [`clock::now`]/[`clock::elapsed`] (enforced by the
/// `disallowed-methods` entries in `crates/clippy.toml`).
///
/// Normally this is exactly `Instant::now()`. The indirection buys one
/// thing: a process-global virtual offset that a deterministic
/// simulator (ROADMAP: VOPR-style sim) can [`advance`](clock::advance)
/// to fast-forward timeouts and make timing-dependent control flow
/// reproducible, without touching any call site. The offset starts at
/// zero and nothing in production advances it, so shipping behavior is
/// byte-identical to calling `Instant::now()` directly.
pub mod clock {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    /// The offset logic behind the global functions, kept as a struct
    /// so tests can exercise advancement without perturbing the
    /// process-global clock other tests are reading.
    #[derive(Debug, Default)]
    pub struct VirtualClock {
        /// Nanoseconds of virtual time added on top of the real clock.
        offset_nanos: AtomicU64,
    }

    impl VirtualClock {
        /// A clock with zero offset: indistinguishable from the real one.
        pub const fn new() -> Self {
            VirtualClock { offset_nanos: AtomicU64::new(0) }
        }

        /// The current instant: real monotonic time plus the virtual
        /// offset. Monotone because both terms are.
        #[expect(
            clippy::disallowed_methods,
            reason = "the clock seam itself: the one sanctioned real-clock read"
        )]
        pub fn now(&self) -> Instant {
            Instant::now() + Duration::from_nanos(self.offset_nanos.load(Ordering::Relaxed))
        }

        /// Time elapsed since `earlier` on this clock — the seam's
        /// replacement for `earlier.elapsed()`. Saturates to zero if
        /// `earlier` was taken after the last offset advance.
        pub fn elapsed(&self, earlier: Instant) -> Duration {
            self.now().saturating_duration_since(earlier)
        }

        /// Fast-forwards the clock by `delta`. Simulator-only; nothing
        /// in production calls this. Saturates at u64 nanoseconds
        /// (~584 years of virtual time).
        pub fn advance(&self, delta: Duration) {
            let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
            let mut cur = self.offset_nanos.load(Ordering::Relaxed);
            // CAS loop: `fetch_add` would wrap, not saturate.
            while let Err(seen) = self.offset_nanos.compare_exchange_weak(
                cur,
                cur.saturating_add(nanos),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                cur = seen;
            }
        }
    }

    /// The process-global clock every library call site reads.
    static GLOBAL: VirtualClock = VirtualClock::new();

    /// The current instant on the global clock (drop-in for
    /// `Instant::now()`).
    pub fn now() -> Instant {
        GLOBAL.now()
    }

    /// Elapsed time since `earlier` on the global clock (drop-in for
    /// `earlier.elapsed()`).
    pub fn elapsed(earlier: Instant) -> Duration {
        GLOBAL.elapsed(earlier)
    }

    /// Fast-forwards the global clock. Simulator-only.
    pub fn advance(delta: Duration) {
        GLOBAL.advance(delta);
    }

    #[cfg(all(test, not(loom)))]
    mod tests {
        use super::*;

        #[test]
        fn advancing_moves_now_and_elapsed_saturates() {
            let clock = VirtualClock::new();
            let t0 = clock.now();
            clock.advance(Duration::from_secs(3600));
            assert!(clock.elapsed(t0) >= Duration::from_secs(3600));
            // An instant taken after the jump is "in the future" of t0
            // but elapsed against a *later* instant saturates to zero
            // rather than panicking.
            let t1 = clock.now();
            assert_eq!(Duration::ZERO, VirtualClock::new().elapsed(t1));
            // Overflow-proof: a ludicrous delta saturates.
            clock.advance(Duration::from_secs(u64::MAX));
            let _ = clock.now();
        }

        #[test]
        fn global_clock_is_monotone_and_starts_real() {
            let a = now();
            let b = now();
            assert!(b >= a);
            assert!(elapsed(a) < Duration::from_secs(3600), "offset starts at zero");
        }
    }
}
