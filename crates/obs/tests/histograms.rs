//! Integration coverage for the histogram through the public API:
//! quantile edge cases, `bucket_bounds` round-trips against `observe`,
//! merging and serde round-trips.

use ftpde_obs::{Histogram, Metrics};

fn histogram_of(values: &[f64]) -> Histogram {
    let mut h = Histogram::empty();
    for &v in values {
        h.observe(v);
    }
    h
}

#[test]
fn quantile_of_empty_histogram_is_none() {
    let empty = Histogram::empty();
    for q in [0.0, 0.5, 1.0] {
        assert_eq!(empty.quantile(q), None);
    }
    assert_eq!(empty.mean(), None);
    assert_eq!(empty.count, 0);
    assert!(empty.buckets.is_empty());
}

#[test]
fn quantile_extremes_return_exact_min_and_max() {
    let h = histogram_of(&[0.031, 7.0, 7.1, 900.0, 3.5]);
    assert_eq!(h.quantile(0.0), Some(0.031));
    assert_eq!(h.quantile(1.0), Some(900.0));
    // Out-of-range q clamps rather than panicking or extrapolating.
    assert_eq!(h.quantile(-3.0), Some(0.031));
    assert_eq!(h.quantile(42.0), Some(900.0));
}

#[test]
fn single_bucket_histogram_is_exact_at_every_quantile() {
    // All values in [4, 8) land in one bucket; min/max clamping pins
    // every quantile inside the observed range.
    let h = histogram_of(&[4.5, 5.0, 6.0, 7.5]);
    assert_eq!(h.buckets.len(), 1);
    for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
        let v = h.quantile(q).unwrap();
        assert!((4.5..=7.5).contains(&v), "q = {q} escaped [min, max]: {v}");
    }
    assert_eq!(h.quantile(0.0), Some(4.5));
    assert_eq!(h.quantile(1.0), Some(7.5));
}

#[test]
fn single_observation_is_every_quantile() {
    let h = histogram_of(&[13.37]);
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(h.quantile(q), Some(13.37));
    }
    assert_eq!(h.mean(), Some(13.37));
}

#[test]
fn bucket_bounds_round_trip_with_observe() {
    // Every observed value must fall inside the [lo, hi) range of the
    // bucket its observation incremented.
    let values = [1e-9, 0.001, 0.25, 0.5, 0.99, 1.0, 1.5, 2.0, 3.0, 64.0, 1e6, 1e11];
    for v in values {
        let h = histogram_of(&[v]);
        assert_eq!(h.count, 1);
        let (i, c) = h.buckets[0];
        assert_eq!(c, 1);
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo <= v && v < hi, "{v} outside its bucket {i} = [{lo}, {hi})");
        assert!((hi - 2.0 * lo).abs() < f64::EPSILON * hi, "buckets are one octave wide");
    }
}

#[test]
fn bucket_bounds_of_adjacent_indices_tile_the_axis() {
    for i in 0..79u64 {
        let (_, hi) = Histogram::bucket_bounds(i);
        let (next_lo, _) = Histogram::bucket_bounds(i + 1);
        assert_eq!(hi, next_lo, "gap between buckets {i} and {}", i + 1);
    }
}

#[test]
fn extreme_values_clamp_into_edge_buckets() {
    // Values beyond the bucketed range clamp to the first/last bucket,
    // so counts are never dropped; min/max still record exact values.
    let h = histogram_of(&[1e-300, 1e300]);
    assert_eq!(h.count, 2);
    assert_eq!(h.min, Some(1e-300));
    assert_eq!(h.max, Some(1e300));
    let indices: Vec<u64> = h.buckets.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, vec![0, 79]);
}

#[test]
fn merge_is_commutative_and_has_empty_identity() {
    let a = histogram_of(&[1.0, 2.0, 3.0]);
    let b = histogram_of(&[0.125, 700.0]);
    assert_eq!(a.merge(&b), b.merge(&a));
    assert_eq!(a.merge(&Histogram::empty()), a);
    assert_eq!(Histogram::empty().merge(&b), b);
}

#[test]
fn metrics_round_trip_through_serde() {
    // Exported metrics must survive serialization.
    let mut reg = Metrics::new();
    reg.counter_add("engine.node_retries_total", 4);
    reg.gauge_set("bench.overhead_pct", 2.5);
    for v in [0.002, 0.004, 0.1] {
        reg.observe("engine.stage_seconds", v);
    }
    let json = serde_json::to_string(&reg).unwrap();
    let back: Metrics = serde_json::from_str(&json).unwrap();
    assert_eq!(back, reg);
    assert_eq!(back.histogram("engine.stage_seconds").unwrap().count, 3);
}
