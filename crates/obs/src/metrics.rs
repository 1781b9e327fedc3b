//! Named counters, gauges and log-bucketed histograms, folded from a
//! recorded trace ([`crate::fold()`]) or built by hand.
//!
//! [`Metrics`] is a plain value: it is filled through `&mut self` adders
//! and read, exported ([`crate::export::to_prometheus`]) or serialized
//! as it stands. Each kind is kept sorted by name.

use serde::{Deserialize, Serialize};

/// Number of power-of-two histogram buckets. Bucket `i` covers values in
/// `[2^(i-OFFSET), 2^(i-OFFSET+1))`; the extremes clamp.
const BUCKETS: usize = 80;
/// Bucket 40 covers `[1, 2)`: forty octaves of sub-unit resolution
/// (down to ~1e-12, enough for microsecond fractions of a second) and
/// forty above (up to ~1e12).
const OFFSET: i32 = 40;

fn bucket_index(value: f64) -> usize {
    let v = value.max(1e-300);
    (v.log2().floor() as i32 + OFFSET).clamp(0, BUCKETS as i32 - 1) as usize
}

/// A log-bucketed distribution.
///
/// `min`/`max` are `None` when the histogram has no observations, so
/// the empty state survives a JSON round trip (`±inf` would serialize
/// to `null`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation, `None` when empty.
    pub min: Option<f64>,
    /// Largest observation, `None` when empty.
    pub max: Option<f64>,
    /// Sparse `(bucket_index, count)` pairs in index order; bucket `i`
    /// covers `[2^(i-40), 2^(i-39))`.
    pub buckets: Vec<(u64, u64)>,
}

impl Histogram {
    /// An empty histogram (no observations).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        let i = bucket_index(value) as u64;
        match self.buckets.binary_search_by_key(&i, |&(b, _)| b) {
            Ok(k) => self.buckets[k].1 += 1,
            Err(k) => self.buckets.insert(k, (i, 1)),
        }
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
    /// Merging two histograms is equivalent to having observed both
    /// streams into one.
    #[must_use]
    pub fn merge(&self, other: &Histogram) -> Histogram {
        let mut buckets: std::collections::BTreeMap<u64, u64> =
            self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *buckets.entry(i).or_insert(0) += c;
        }
        let opt = |a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64| match (a, b) {
            (Some(x), Some(y)) => Some(pick(x, y)),
            (x, y) => x.or(y),
        };
        Histogram {
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

/// Named metrics, each kind sorted by name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins values.
    pub gauges: Vec<(String, f64)>,
    /// Distributions.
    pub histograms: Vec<(String, Histogram)>,
}

/// The entry named `name` in a name-sorted list, inserted with `T`'s
/// default when absent.
fn entry<'a, T: Default>(list: &'a mut Vec<(String, T)>, name: &str) -> &'a mut T {
    let k = match list.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(k) => k,
        Err(k) => {
            list.insert(k, (name.to_owned(), T::default()));
            k
        }
    };
    &mut list[k].1
}

impl Metrics {
    /// No metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *entry(&mut self.counters, name) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        *entry(&mut self.gauges, name) = value;
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        entry(&mut self.histograms, name).observe(value);
    }

    /// Value of a counter, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A histogram, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_of(values: &[f64]) -> Histogram {
        let mut h = Histogram::empty();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.counter_add("retries", 1);
        m.counter_add("retries", 2);
        m.counter_add("restarts", 5);
        assert_eq!(m.counter("retries"), 3);
        assert_eq!(m.counter("restarts"), 5);
        assert_eq!(m.counter("absent"), 0);
        // Kept sorted by name, whatever the insertion order.
        let names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["restarts", "retries"]);
    }

    #[test]
    fn gauges_take_the_last_value() {
        let mut m = Metrics::new();
        m.gauge_set("overhead_pct", 12.0);
        m.gauge_set("overhead_pct", 7.5);
        assert_eq!(m.gauge("overhead_pct"), Some(7.5));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histograms_track_distribution() {
        let mut m = Metrics::new();
        for v in [0.5, 1.0, 1.5, 2.0, 100.0] {
            m.observe("stage_seconds", v);
        }
        let h = m.histogram("stage_seconds").unwrap();
        assert_eq!(h.count, 5);
        assert!((h.sum - 105.0).abs() < 1e-12);
        assert_eq!(h.min, Some(0.5));
        assert_eq!(h.max, Some(100.0));
        assert_eq!(h.mean(), Some(21.0));
        // 0.5 → bucket 39; 1.0 and 1.5 → 40; 2.0 → 41; 100 → 46.
        assert_eq!(h.buckets, [(39, 1), (40, 2), (41, 1), (46, 1)]);
    }

    #[test]
    fn empty_histogram_has_no_min_max() {
        let m = Metrics::new();
        assert_eq!(m.histogram("absent"), None);
        let empty = Histogram::empty();
        assert_eq!(empty.min, None);
        assert_eq!(empty.max, None);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_is_exact_on_constant_distributions() {
        let h = histogram_of(&[3.25; 17]);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(3.25), "q = {q}");
        }
    }

    #[test]
    fn quantile_pins_extremes_and_bimodal_tail() {
        // 50 × 1.0 and 50 × 1024.0: p50 lands in the low mode, p99 in the
        // high mode; min/max clamping makes both exact.
        let mut h = Histogram::empty();
        for _ in 0..50 {
            h.observe(1.0);
            h.observe(1024.0);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1024.0));
        // rank 50 is exactly the last observation of the low bucket.
        assert_eq!(h.quantile(0.5), Some(2.0)); // bucket [1,2) upper edge, within 2× of 1.0
        assert_eq!(h.quantile(0.99), Some(1024.0)); // clamped to max
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = histogram_of(&[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]);
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
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v < hi, "value {v} outside bucket {i} = [{lo}, {hi})");
        }
    }

    #[test]
    fn bucket_index_clamps_extremes() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1.0), OFFSET as usize);
    }

    /// Observing two streams into one histogram equals merging the
    /// histograms of each: the same counts, extremes and buckets.
    #[test]
    fn merge_equals_observing_both_streams() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let values: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 1e4 + 1e-6
            })
            .collect();
        let (a, b) = values.split_at(3_000);
        let whole = histogram_of(&values);
        let merged = histogram_of(a).merge(&histogram_of(b));
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert_eq!(merged.buckets, whole.buckets);
        assert!((merged.sum - whole.sum).abs() < 1e-6 * whole.sum.abs());
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn merge_combines_counts_sums_and_extremes() {
        let a = histogram_of(&[1.0, 2.0, 3.0]);
        let b = histogram_of(&[0.5, 10.0]);
        let m = a.merge(&b);
        assert_eq!(m.count, 5);
        assert!((m.sum - 16.5).abs() < 1e-12);
        assert_eq!(m.min, Some(0.5));
        assert_eq!(m.max, Some(10.0));
        // Merging with the empty histogram is the identity.
        assert_eq!(m.merge(&Histogram::empty()), m);
        assert_eq!(Histogram::empty().merge(&m), m);
    }
}
