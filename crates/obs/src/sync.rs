//! Time for library code.
//!
//! [`clock`] is the workspace's wall-clock seam: library code reads time
//! through it (clippy's `disallowed-methods`, configured in
//! `crates/clippy.toml`, rejects `Instant::now` everywhere else), which
//! is what lets a deterministic simulator virtualize time without
//! touching the call sites.

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

    #[cfg(test)]
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
