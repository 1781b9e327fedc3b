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

use ftpde_obs::{MetricsRegistry, Summary};
use serde::{Deserialize, Serialize};

/// Pre-resolved handles into the process-global registry
/// ([`ftpde_obs::global`]) for the always-on store metrics. Both
/// backends record through the `record_*` helpers below; resolution
/// happens once per process, after which every update is a lock-free
/// atomic op.
///
/// Throughput is derivable from these: physical write MB/s is
/// `store.put_bytes_total / histogram("store.put_seconds").sum` (and
/// symmetrically for reads) — the live view of the paper's `tm(o)`.
#[cfg(not(loom))]
#[derive(Debug)]
struct LiveStoreMetrics {
    /// `store.puts_total` — put/put_replicated calls.
    puts: ftpde_obs::Counter,
    /// `store.gets_total` — successful gets.
    gets: ftpde_obs::Counter,
    /// `store.put_bytes_total` — physical encoded bytes written.
    put_bytes: ftpde_obs::Counter,
    /// `store.get_bytes_total` — encoded bytes read back.
    get_bytes: ftpde_obs::Counter,
    /// `store.fsyncs_total` — durability barriers issued.
    fsyncs: ftpde_obs::Counter,
    /// `store.segments_committed_total`.
    segments_committed: ftpde_obs::Counter,
    /// `store.corrupt_segments_total`.
    corrupt_segments: ftpde_obs::Counter,
    /// `store.put_seconds` — wall seconds per write path entry.
    put_seconds: ftpde_obs::HistogramHandle,
    /// `store.get_seconds` — wall seconds per successful read.
    get_seconds: ftpde_obs::HistogramHandle,
}

/// The singleton [`LiveStoreMetrics`].
#[cfg(not(loom))]
fn live() -> &'static LiveStoreMetrics {
    static LIVE: crate::sync::plain::OnceLock<LiveStoreMetrics> =
        crate::sync::plain::OnceLock::new();
    LIVE.get_or_init(|| {
        let g = ftpde_obs::global();
        LiveStoreMetrics {
            puts: g.counter("store.puts_total"),
            gets: g.counter("store.gets_total"),
            put_bytes: g.counter("store.put_bytes_total"),
            get_bytes: g.counter("store.get_bytes_total"),
            fsyncs: g.counter("store.fsyncs_total"),
            segments_committed: g.counter("store.segments_committed_total"),
            corrupt_segments: g.counter("store.corrupt_segments_total"),
            put_seconds: g.histogram("store.put_seconds"),
            get_seconds: g.histogram("store.get_seconds"),
        }
    })
}

/// Records one physical write (a committed segment) into the global
/// registry. No-op under `--cfg loom`: the loom model checker explores
/// `MemBackend` interleavings and must not touch foreign (untracked)
/// synchronization like the global registry's `OnceLock`.
pub(crate) fn record_put(bytes: u64, elapsed_s: f64) {
    #[cfg(not(loom))]
    {
        let m = live();
        m.puts.inc();
        m.put_bytes.add(bytes);
        m.segments_committed.inc();
        m.put_seconds.observe(elapsed_s);
    }
    #[cfg(loom)]
    let _ = (bytes, elapsed_s);
}

/// Records one successful read into the global registry (loom no-op).
pub(crate) fn record_get(bytes: u64, elapsed_s: f64) {
    #[cfg(not(loom))]
    {
        let m = live();
        m.gets.inc();
        m.get_bytes.add(bytes);
        m.get_seconds.observe(elapsed_s);
    }
    #[cfg(loom)]
    let _ = (bytes, elapsed_s);
}

/// Records durability barriers into the global registry (loom no-op).
pub(crate) fn record_fsyncs(n: u64) {
    #[cfg(not(loom))]
    live().fsyncs.add(n);
    #[cfg(loom)]
    let _ = n;
}

/// Records detected segment corruption into the global registry
/// (loom no-op).
pub(crate) fn record_corrupt_segments(n: u64) {
    #[cfg(not(loom))]
    live().corrupt_segments.add(n);
    #[cfg(loom)]
    let _ = n;
}

/// Records one [`crate::DiskBackend`] reopen — debris sweep, a scan of
/// the log's frame headers and any repair (checksums wait for each slot's
/// first `get`) — into the global registry, so cold-start recovery cost is
/// visible on `/metrics`: `store.reopen_seconds` (histogram) and
/// `store.segments_scanned` (counter of committed segments the scan
/// walked, kept or torn). Loom no-op. These
/// are resolved ad hoc rather than through [`LiveStoreMetrics`]: reopen
/// is a once-per-process-lifetime path, not a hot one.
pub(crate) fn record_reopen(elapsed_s: f64, segments_scanned: u64) {
    #[cfg(not(loom))]
    {
        let g = ftpde_obs::global();
        g.observe("store.reopen_seconds", elapsed_s);
        g.counter_add("store.segments_scanned", segments_scanned);
    }
    #[cfg(loom)]
    let _ = (elapsed_s, segments_scanned);
}

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

    /// Folds the stats into a metrics registry under the `store.`
    /// namespace, from where `export::to_prometheus` renders them.
    pub fn export_metrics(&self, reg: &MetricsRegistry) {
        reg.counter_add("store.logical_rows_written_total", self.logical_rows_written);
        reg.counter_add("store.physical_rows_written_total", self.physical_rows_written);
        reg.counter_add("store.logical_bytes_written_total", self.logical_bytes_written);
        reg.counter_add("store.physical_bytes_written_total", self.physical_bytes_written);
        reg.counter_add("store.rows_read_total", self.rows_read);
        reg.counter_add("store.bytes_read_total", self.bytes_read);
        reg.counter_add("store.fsyncs_total", self.fsyncs);
        reg.counter_add("store.segments_committed_total", self.segments_committed);
        reg.counter_add("store.corrupt_segments_total", self.corrupt_segments);
        if let Some(v) = self.write_bytes_per_s() {
            reg.gauge_set("store.write_bytes_per_s", v);
            reg.observe("store.write_throughput_bytes_per_s", v);
        }
        if let Some(v) = self.read_bytes_per_s() {
            reg.gauge_set("store.read_bytes_per_s", v);
            reg.observe("store.read_throughput_bytes_per_s", v);
        }
        if let Some(v) = self.replication_amplification() {
            reg.gauge_set("store.replication_amplification", v);
        }
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
    fn metrics_export_lands_in_registry() {
        let reg = MetricsRegistry::new();
        sample().export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("store.logical_rows_written_total"), 40);
        assert_eq!(snap.counter("store.physical_rows_written_total"), 10);
        assert_eq!(snap.counter("store.fsyncs_total"), 3);
        assert_eq!(snap.counter("store.corrupt_segments_total"), 1);
        assert_eq!(snap.gauge("store.write_bytes_per_s"), Some(2000.0));
        assert_eq!(snap.gauge("store.replication_amplification"), Some(4.0));
        assert!(snap.histogram("store.write_throughput_bytes_per_s").is_some());
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
