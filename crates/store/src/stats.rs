//! Backend-agnostic storage accounting.
//!
//! Every [`crate::StoreBackend`] keeps one [`StoreStats`] and exposes it
//! via `stats()`. The split between *logical* and *physical* writes is
//! the point: `put_replicated` makes one partition visible on `n` nodes,
//! which is `n` logical writes but (in both current backends) a single
//! physical copy. The old engine-internal store conflated the two and
//! under-reported write amplification; here both are first-class, and
//! byte volumes are computed from the codec's encoded length so the
//! in-memory and on-disk backends report comparable numbers.
//!
//! Measured write throughput (`write_bytes_per_s`) is what the paper
//! calls `tm(o)` — the cost of materializing to fault-tolerant storage —
//! and is what `obs::calibrate` uses to ground the cost model's assumed
//! constant in observed disk behavior.
//!
//! The stats reach a trace as the engine's closing `store_stats`
//! instant, whose arguments `ftpde_obs::fold` exposes as the `store.*`
//! gauges; that fold is the one mapping from these fields to metric
//! names.

use ftpde_obs::Summary;
use serde::{Deserialize, Serialize};

/// Cumulative counters of one store backend (or of a store directory
/// across process lifetimes — the disk backend persists its stats in
/// every log frame, so throughput survives a reopen).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Rows made visible to readers, counting each replica target.
    pub logical_rows_written: u64,
    /// Rows actually copied to the backing medium (one per stored copy).
    pub physical_rows_written: u64,
    /// Encoded bytes corresponding to `logical_rows_written`.
    pub logical_bytes_written: u64,
    /// Encoded bytes actually written to the backing medium.
    pub physical_bytes_written: u64,
    /// Rows returned by `get`.
    pub rows_read: u64,
    /// Encoded bytes returned by `get`.
    pub bytes_read: u64,
    /// Durability barriers issued (`File::sync_all` / directory fsyncs);
    /// always zero for the in-memory backend.
    pub fsyncs: u64,
    /// Segments committed (one synced log frame each, for the disk
    /// backend).
    pub segments_committed: u64,
    /// Segments found corrupt (bad checksum, torn write, undecodable).
    pub corrupt_segments: u64,
    /// Wall-clock seconds spent inside write paths; a disk put is timed
    /// through its sync.
    pub write_seconds: f64,
    /// Wall-clock seconds spent inside read paths.
    pub read_seconds: f64,
}

impl StoreStats {
    /// Measured materialization throughput in bytes/s — the observed
    /// `tm(o)` of the paper's cost model. `None` until a timed write has
    /// happened.
    pub fn write_bytes_per_s(&self) -> Option<f64> {
        (self.write_seconds > 0.0 && self.physical_bytes_written > 0)
            .then(|| self.physical_bytes_written as f64 / self.write_seconds)
    }

    /// Measured read-back throughput in bytes/s.
    pub fn read_bytes_per_s(&self) -> Option<f64> {
        (self.read_seconds > 0.0 && self.bytes_read > 0)
            .then(|| self.bytes_read as f64 / self.read_seconds)
    }

    /// Logical-over-physical row ratio (how much replication inflates the
    /// visible write volume). `None` before any physical write.
    pub fn replication_amplification(&self) -> Option<f64> {
        (self.physical_rows_written > 0)
            .then(|| self.logical_rows_written as f64 / self.physical_rows_written as f64)
    }

    /// Human-readable rendering for CLI and bench output.
    pub fn to_summary(&self) -> Summary {
        let rate = |v: Option<f64>| {
            v.map_or_else(|| "n/a".to_string(), |b| format!("{:.2} MB/s", b / 1e6))
        };
        let mut s = Summary::new();
        s.banner("store stats");
        s.kv(
            "rows written (logical/physical)",
            format!("{} / {}", self.logical_rows_written, self.physical_rows_written),
        );
        s.kv(
            "bytes written (logical/physical)",
            format!("{} / {}", self.logical_bytes_written, self.physical_bytes_written),
        );
        s.kv("rows read", self.rows_read);
        s.kv("bytes read", self.bytes_read);
        s.kv("fsyncs", self.fsyncs);
        s.kv("segments committed", self.segments_committed);
        s.kv("corrupt segments", self.corrupt_segments);
        s.kv("write throughput (measured tm)", rate(self.write_bytes_per_s()));
        s.kv("read throughput", rate(self.read_bytes_per_s()));
        if let Some(a) = self.replication_amplification() {
            s.kv("replication amplification", format!("{a:.2}x"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreStats {
        StoreStats {
            logical_rows_written: 40,
            physical_rows_written: 10,
            logical_bytes_written: 4000,
            physical_bytes_written: 1000,
            rows_read: 5,
            bytes_read: 500,
            fsyncs: 3,
            segments_committed: 2,
            corrupt_segments: 1,
            write_seconds: 0.5,
            read_seconds: 0.25,
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert_eq!(s.write_bytes_per_s(), Some(2000.0));
        assert_eq!(s.read_bytes_per_s(), Some(2000.0));
        assert_eq!(s.replication_amplification(), Some(4.0));
        let zero = StoreStats::default();
        assert_eq!(zero.write_bytes_per_s(), None);
        assert_eq!(zero.read_bytes_per_s(), None);
        assert_eq!(zero.replication_amplification(), None);
    }

    #[test]
    fn summary_mentions_throughput() {
        let text = sample().to_summary().render();
        assert!(text.contains("store stats"));
        assert!(text.contains("measured tm"));
        assert!(text.contains("0.00 MB/s"));
        assert!(text.contains("4.00x"));
    }

    #[test]
    fn serde_round_trip() {
        let s = sample();
        let json = serde_json::to_string(&s).unwrap();
        let back: StoreStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
