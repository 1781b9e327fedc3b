//! Always-on metrics: named counters, gauges and log-bucketed histograms,
//! cheap enough to leave enabled in every build.
//!
//! Two layers:
//!
//! - **Lock-free primitives** — [`ShardedCounter`] (per-thread striped
//!   atomic counters so concurrent `add`s don't bounce one cache line),
//!   [`AtomicF64`] (CAS on the bit pattern) and [`AtomicHistogram`]
//!   (one relaxed `fetch_add` per observation into fixed power-of-two
//!   buckets, plus CAS-maintained sum/min/max). The unit tests check it
//!   against a mutex-guarded reference histogram.
//! - **The registry** — [`MetricsRegistry`] maps names to primitives
//!   behind a read-mostly `RwLock`: the first touch of a name takes the
//!   write lock once; every later update is a read-lock + atomic op. Hot
//!   paths should resolve a [`Counter`] / [`Gauge`] / [`HistogramHandle`]
//!   once and update through it with no locking or lookup at all.
//!
//! The process-global registry behind [`global()`] is what the engine
//! coordinator, the store backends, the optimizer search and the
//! simulator instrument unconditionally — metrics exist even when no
//! JSONL recorder is attached to a run. Snapshots
//! ([`MetricsSnapshot`]) are serde-serializable for export
//! (`export::to_prometheus`) or test assertions.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::sync::plain::{Arc, AtomicU64, AtomicUsize, OnceLock, Ordering, RwLock};

/// Number of power-of-two histogram buckets. Bucket `i` covers values in
/// `[2^(i-OFFSET), 2^(i-OFFSET+1))`; the extremes clamp.
const BUCKETS: usize = 80;
/// Bucket 40 covers `[1, 2)`: forty octaves of sub-unit resolution
/// (down to ~1e-12, enough for microsecond fractions of a second) and
/// forty above (up to ~1e12).
const OFFSET: i32 = 40;
/// Stripes per [`ShardedCounter`]; must be a power of two.
const SHARDS: usize = 16;

fn bucket_index(value: f64) -> usize {
    let v = value.max(1e-300);
    (v.log2().floor() as i32 + OFFSET).clamp(0, BUCKETS as i32 - 1) as usize
}

/// A small stable per-thread index, assigned on first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    IDX.with(|i| *i) & (SHARDS - 1)
}

/// An `f64` updated atomically via CAS on its bit pattern.
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// A new cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Last-write-wins store.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` (CAS loop).
    pub fn add(&self, delta: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + delta).to_bits())
        });
    }

    /// Atomically lowers the cell to `min(current, v)`.
    fn update_min(&self, v: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            (v < f64::from_bits(bits)).then(|| v.to_bits())
        });
    }

    /// Atomically raises the cell to `max(current, v)`.
    fn update_max(&self, v: f64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            (v > f64::from_bits(bits)).then(|| v.to_bits())
        });
    }
}

/// One cache line per stripe so concurrent writers don't false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// A monotonic counter striped across `SHARDS` cache lines: `add` is a
/// single relaxed `fetch_add` on the calling thread's stripe; `get` sums
/// the stripes.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Vec<Shard>,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        ShardedCounter { shards: (0..SHARDS).map(|_| Shard::default()).collect() }
    }

    /// Adds `delta` to the calling thread's stripe.
    pub fn add(&self, delta: u64) {
        self.shards[shard_index()].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A lock-free log-bucketed histogram: `observe` is one relaxed
/// `fetch_add` into the value's bucket plus CAS updates of sum/min/max —
/// no lock, no allocation.
///
/// Snapshots taken while writers are active are *per-field* consistent
/// (each bucket, the sum, min and max are individually atomic) but not a
/// point-in-time cut across fields; quiescent snapshots are exact and
/// equal to those of a mutex-guarded histogram fed the same stream.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
        self.min.update_min(value);
        self.max.update_max(value);
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                count += c;
                (c > 0).then_some((i as u64, c))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: if count > 0 { self.sum.get() } else { 0.0 },
            min: (count > 0).then(|| self.min.get()),
            max: (count > 0).then(|| self.max.get()),
            buckets,
        }
    }
}

/// Frozen state of one histogram.
///
/// `min`/`max` are `None` when the histogram has no observations — the
/// `±inf` sentinels of the live histogram would serialize to JSON `null`
/// and fail to deserialize back as bare floats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation, `None` when empty.
    pub min: Option<f64>,
    /// Largest observation, `None` when empty.
    pub max: Option<f64>,
    /// Sparse `(bucket_index, count)` pairs; bucket `i` covers
    /// `[2^(i-40), 2^(i-39))`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An empty snapshot (no observations).
    pub fn empty() -> Self {
        HistogramSnapshot { count: 0, sum: 0.0, min: None, max: None, buckets: Vec::new() }
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `[lower, upper)` value range of bucket `index`.
    pub fn bucket_bounds(index: u64) -> (f64, f64) {
        let lo = 2f64.powi(index as i32 - OFFSET);
        (lo, lo * 2.0)
    }

    /// The combined distribution of `self` and `other`: counts and sums
    /// add, bucket counts add index-wise, min/max take the extremes.
    /// Merging histograms recorded on different threads (or bench
    /// repeats) is equivalent to having observed both streams into one.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *buckets.entry(i).or_insert(0) += c;
        }
        let opt = |a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64| match (a, b) {
            (Some(x), Some(y)) => Some(pick(x, y)),
            (x, y) => x.or(y),
        };
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: opt(self.min, other.min, f64::min),
            max: opt(self.max, other.max, f64::max),
            buckets: buckets.into_iter().collect(),
        }
    }

    /// Quantile `q ∈ [0, 1]` interpolated from the log-bucketed counts,
    /// `None` when empty.
    ///
    /// The cumulative rank `q·count` is located in the sparse buckets and
    /// interpolated linearly within the containing bucket's `[lo, hi)`
    /// range, then clamped to the exact observed `[min, max]` — so
    /// `quantile(0.0) == min` and `quantile(1.0) == max` exactly, and a
    /// constant distribution returns the constant at every `q`. Between
    /// those anchors the resolution is one power-of-two bucket (≤ 2×).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            if (cum + c) as f64 >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = if c == 0 { 0.0 } else { (rank - cum as f64) / c as f64 };
                return Some((lo + frac * (hi - lo)).clamp(min, max));
            }
            cum += c;
        }
        Some(max)
    }
}

/// Frozen state of a whole registry, sorted by name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins values.
    pub gauges: Vec<(String, f64)>,
    /// Distributions.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram's snapshot, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// A pre-resolved counter: updates are lock-free and lookup-free.
#[derive(Debug, Clone)]
pub struct Counter(Arc<ShardedCounter>);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.add(delta);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A pre-resolved gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicF64>);

impl Gauge {
    /// Last-write-wins store.
    pub fn set(&self, value: f64) {
        self.0.set(value);
    }

    /// Current value (`NaN` while never set).
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// A pre-resolved histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.0.observe(value);
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug, Default)]
struct Registered {
    counters: BTreeMap<String, Arc<ShardedCounter>>,
    gauges: BTreeMap<String, Arc<AtomicF64>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
}

/// Thread-safe registry of named metrics.
///
/// Name-based updates ([`counter_add`](Self::counter_add),
/// [`gauge_set`](Self::gauge_set), [`observe`](Self::observe)) take a
/// read lock for the lookup and update atomically; hot paths should
/// resolve a handle once ([`counter`](Self::counter),
/// [`gauge`](Self::gauge), [`histogram`](Self::histogram)) and skip the
/// lookup entirely.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<Registered>,
}

/// Resolves `name` in one of [`Registered`]'s maps, registering it (write
/// lock, once per name) on first touch.
fn resolve<T: Default>(
    registry: &MetricsRegistry,
    pick: impl Fn(&Registered) -> &BTreeMap<String, Arc<T>>,
    pick_mut: impl Fn(&mut Registered) -> &mut BTreeMap<String, Arc<T>>,
    name: &str,
) -> Arc<T> {
    if let Some(v) = pick(&registry.inner.read()).get(name) {
        return Arc::clone(v);
    }
    let mut inner = registry.inner.write();
    Arc::clone(pick_mut(&mut inner).entry(name.to_owned()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering if needed) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(resolve(self, |r| &r.counters, |r| &mut r.counters, name))
    }

    /// Resolves (registering if needed) the gauge `name`. A gauge that
    /// was never `set` holds `NaN` and is omitted from snapshots.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(v) = self.inner.read().gauges.get(name) {
            return Gauge(Arc::clone(v));
        }
        let mut inner = self.inner.write();
        Gauge(Arc::clone(
            inner
                .gauges
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(AtomicF64::new(f64::NAN))),
        ))
    }

    /// Resolves (registering if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(resolve(self, |r| &r.histograms, |r| &mut r.histograms, name))
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(c) = self.inner.read().counters.get(name) {
            c.add(delta);
            return;
        }
        self.counter(name).add(delta);
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(g) = self.inner.read().gauges.get(name) {
            g.set(value);
            return;
        }
        self.gauge(name).set(value);
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(h) = self.inner.read().histograms.get(name) {
            h.observe(value);
            return;
        }
        self.histogram(name).observe(value);
    }

    /// Freezes the current state (sorted by metric name). Gauges that
    /// were registered but never set (still `NaN`) are omitted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner
                .gauges
                .iter()
                .filter(|(_, v)| !v.get().is_nan())
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// The process-global registry: the always-on sink the engine
/// coordinator, store backends, optimizer search and simulator
/// instrument unconditionally, so operational metrics exist even when no
/// event recorder is attached to a run. Export with
/// [`crate::export::to_prometheus`]`(&global().snapshot())`.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::plain::Mutex;

    /// The original mutex-guarded histogram, kept as the reference
    /// implementation the lock-free [`AtomicHistogram`] is differentially
    /// tested against: for any quiescent observation stream both produce
    /// identical [`HistogramSnapshot`]s.
    #[derive(Debug, Default)]
    struct MutexHistogram {
        inner: Mutex<Histogram>,
    }

    impl MutexHistogram {
        fn new() -> Self {
            Self::default()
        }

        fn observe(&self, value: f64) {
            self.inner.lock().observe(value);
        }

        fn snapshot(&self) -> HistogramSnapshot {
            self.inner.lock().snapshot()
        }
    }

    #[derive(Debug, Clone)]
    struct Histogram {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: Vec<u64>,
    }

    impl Default for Histogram {
        fn default() -> Self {
            Histogram {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                buckets: vec![0; BUCKETS],
            }
        }
    }

    impl Histogram {
        fn observe(&mut self, value: f64) {
            self.count += 1;
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.buckets[bucket_index(value)] += 1;
        }

        fn snapshot(&self) -> HistogramSnapshot {
            // Sparse form: only non-empty buckets, as (index, count).
            let buckets = self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u64, c))
                .collect();
            HistogramSnapshot {
                count: self.count,
                sum: self.sum,
                min: (self.count > 0).then_some(self.min),
                max: (self.count > 0).then_some(self.max),
                buckets,
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("retries", 1);
        m.counter_add("retries", 2);
        m.counter_add("restarts", 5);
        let s = m.snapshot();
        assert_eq!(s.counter("retries"), 3);
        assert_eq!(s.counter("restarts"), 5);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn gauges_take_the_last_value() {
        let m = MetricsRegistry::new();
        m.gauge_set("overhead_pct", 12.0);
        m.gauge_set("overhead_pct", 7.5);
        assert_eq!(m.snapshot().gauge("overhead_pct"), Some(7.5));
        assert_eq!(m.snapshot().gauge("absent"), None);
    }

    #[test]
    fn registered_but_unset_gauges_are_omitted() {
        let m = MetricsRegistry::new();
        let g = m.gauge("pending");
        assert!(g.get().is_nan());
        assert_eq!(m.snapshot().gauge("pending"), None);
        g.set(0.0);
        assert_eq!(m.snapshot().gauge("pending"), Some(0.0));
    }

    #[test]
    fn handles_share_state_with_name_based_updates() {
        let m = MetricsRegistry::new();
        let c = m.counter("n");
        c.add(2);
        m.counter_add("n", 3);
        assert_eq!(c.get(), 5);
        assert_eq!(m.counter("n").get(), 5);

        let h = m.histogram("lat");
        h.observe(1.0);
        m.observe("lat", 2.0);
        assert_eq!(h.snapshot().count, 2);
        assert_eq!(m.snapshot().histogram("lat").unwrap().count, 2);
    }

    #[test]
    fn histograms_track_distribution() {
        let m = MetricsRegistry::new();
        for v in [0.5, 1.0, 1.5, 2.0, 100.0] {
            m.observe("stage_seconds", v);
        }
        let s = m.snapshot();
        let h = s.histogram("stage_seconds").unwrap();
        assert_eq!(h.count, 5);
        assert!((h.sum - 105.0).abs() < 1e-12);
        assert_eq!(h.min, Some(0.5));
        assert_eq!(h.max, Some(100.0));
        assert_eq!(h.mean(), Some(21.0));
        // 0.5 → bucket 39; 1.0 and 1.5 → 40; 2.0 → 41; 100 → 46.
        let total: u64 = h.buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        assert!(h.buckets.iter().any(|&(i, c)| i == 40 && c == 2));
    }

    #[test]
    fn empty_histogram_snapshot_has_no_min_max() {
        let m = MetricsRegistry::new();
        m.observe("touched", 1.0); // force the histogram map to exist
        let s = m.snapshot();
        assert_eq!(s.histogram("absent"), None);
        let empty = HistogramSnapshot::empty();
        assert_eq!(empty.min, None);
        assert_eq!(empty.max, None);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_is_exact_on_constant_distributions() {
        let m = MetricsRegistry::new();
        for _ in 0..17 {
            m.observe("c", 3.25);
        }
        let s = m.snapshot();
        let h = s.histogram("c").unwrap();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(3.25), "q = {q}");
        }
    }

    #[test]
    fn quantile_pins_extremes_and_bimodal_tail() {
        // 50 × 1.0 and 50 × 1024.0: p50 lands in the low mode, p99 in the
        // high mode; min/max clamping makes both exact.
        let m = MetricsRegistry::new();
        for _ in 0..50 {
            m.observe("b", 1.0);
            m.observe("b", 1024.0);
        }
        let s = m.snapshot();
        let h = s.histogram("b").unwrap();
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1024.0));
        // rank 50 is exactly the last observation of the low bucket.
        assert_eq!(h.quantile(0.5), Some(2.0)); // bucket [1,2) upper edge, within 2× of 1.0
        assert_eq!(h.quantile(0.99), Some(1024.0)); // clamped to max
    }

    #[test]
    fn quantiles_are_monotone() {
        let m = MetricsRegistry::new();
        for v in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0] {
            m.observe("mono", v);
        }
        let s = m.snapshot();
        let h = s.histogram("mono").unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99, "p50 = {p50}, p90 = {p90}, p99 = {p99}");
        assert!(p99 <= h.max.unwrap());
    }

    #[test]
    fn bucket_bounds_bracket_their_observations() {
        for v in [0.0001, 0.7, 1.0, 1.9, 1000.0] {
            let i = bucket_index(v) as u64;
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            assert!(lo <= v && v < hi, "value {v} outside bucket {i} = [{lo}, {hi})");
        }
    }

    #[test]
    fn bucket_index_clamps_extremes() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1.0), OFFSET as usize);
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = &m;
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.counter_add("n", 1);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counter("n"), 8000);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = ShardedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn atomic_f64_add_min_max() {
        let v = AtomicF64::new(1.5);
        v.add(2.5);
        assert_eq!(v.get(), 4.0);
        v.update_min(3.0);
        assert_eq!(v.get(), 3.0);
        v.update_min(5.0);
        assert_eq!(v.get(), 3.0);
        v.update_max(7.0);
        assert_eq!(v.get(), 7.0);
        v.update_max(2.0);
        assert_eq!(v.get(), 7.0);
        v.set(-1.0);
        assert_eq!(v.get(), -1.0);
    }

    /// The differential contract: for any quiescent observation stream
    /// the lock-free histogram and the mutex-based reference produce
    /// identical snapshots.
    #[test]
    fn atomic_histogram_matches_mutex_reference() {
        let strided: Vec<f64> =
            (0..500).map(|i| ((i * 2_654_435_761_u64 % 10_000) as f64).max(0.001) * 0.37).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let pseudo_random: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 1e4 + 1e-6
            })
            .collect();
        for values in [strided, pseudo_random] {
            let atomic = AtomicHistogram::new();
            let mutex = MutexHistogram::new();
            for &v in &values {
                atomic.observe(v);
                mutex.observe(v);
            }
            let a = atomic.snapshot();
            let m = mutex.snapshot();
            assert_eq!(a.count, m.count);
            assert_eq!(a.min, m.min);
            assert_eq!(a.max, m.max);
            assert_eq!(a.buckets, m.buckets);
            assert!((a.sum - m.sum).abs() < 1e-6 * m.sum.abs().max(1.0));
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(a.quantile(q), m.quantile(q), "{} values, q = {q}", values.len());
            }
        }
    }

    /// Concurrent observers into the atomic histogram must account every
    /// observation exactly once, and merging per-thread mutex histograms
    /// must reproduce the shared atomic one.
    #[test]
    fn concurrent_atomic_observes_match_merged_mutex_snapshots() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let atomic = AtomicHistogram::new();
        let merged = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let atomic = &atomic;
                    s.spawn(move || {
                        let local = MutexHistogram::new();
                        for i in 0..PER_THREAD {
                            let v = (t * PER_THREAD + i + 1) as f64 * 0.125;
                            atomic.observe(v);
                            local.observe(v);
                        }
                        local.snapshot()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("observer thread"))
                .fold(HistogramSnapshot::empty(), |acc, s| acc.merge(&s))
        });
        let a = atomic.snapshot();
        assert_eq!(a.count, (THREADS * PER_THREAD) as u64);
        assert_eq!(a.count, merged.count);
        assert_eq!(a.min, merged.min);
        assert_eq!(a.max, merged.max);
        assert_eq!(a.buckets, merged.buckets);
        assert!((a.sum - merged.sum).abs() < 1e-6 * merged.sum.abs().max(1.0));
    }

    #[test]
    fn merge_combines_counts_sums_and_extremes() {
        let a = MutexHistogram::new();
        let b = MutexHistogram::new();
        for v in [1.0, 2.0, 3.0] {
            a.observe(v);
        }
        for v in [0.5, 10.0] {
            b.observe(v);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert!((m.sum - 16.5).abs() < 1e-12);
        assert_eq!(m.min, Some(0.5));
        assert_eq!(m.max, Some(10.0));
        // Merging with the empty snapshot is the identity.
        assert_eq!(m.merge(&HistogramSnapshot::empty()), m);
        assert_eq!(HistogramSnapshot::empty().merge(&m), m);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a: *const MetricsRegistry = global();
        let b: *const MetricsRegistry = global();
        assert_eq!(a, b);
        // Use a namespaced key so other tests touching the global
        // registry cannot interfere.
        global().counter_add("metrics_tests.global_singleton", 1);
        assert!(global().snapshot().counter("metrics_tests.global_singleton") >= 1);
    }
}
