//! The in-memory backend: today's engine behavior, extracted.
//!
//! A partitioned map from `(operator, node)` to shared row vectors. Rows
//! are behind `Arc` so replicating a partition to all nodes (the gather
//! pattern) stores one physical copy — which is exactly the distinction
//! the [`crate::StoreStats`] logical/physical split records. Nothing here
//! survives the process; this backend exists for fast tests and as the
//! semantic baseline the disk backend must be bit-identical to.

use std::collections::HashMap;

use crate::codec::encoded_rows_len;
use crate::stats::StoreStats;
use crate::sync::clock;
use crate::sync::plain::Arc;
use crate::sync::Mutex;
use crate::value::Row;
use crate::{CorruptSegment, StoreBackend};

#[derive(Debug, Default)]
struct MemInner {
    segments: HashMap<(u32, usize), Arc<Vec<Row>>>,
    stats: StoreStats,
}

/// Volatile checkpoint storage keyed by `(operator id, node index)`.
#[derive(Debug, Default)]
pub struct MemBackend {
    inner: Mutex<MemInner>,
}

impl MemBackend {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StoreBackend for MemBackend {
    fn put(&self, op: u32, node: usize, rows: Vec<Row>) {
        let started = clock::now();
        let bytes = encoded_rows_len(&rows);
        let n = rows.len() as u64;
        let mut inner = self.inner.lock();
        inner.segments.insert((op, node), Arc::new(rows));
        let elapsed = clock::elapsed(started).as_secs_f64();
        inner.stats.logical_rows_written += n;
        inner.stats.physical_rows_written += n;
        inner.stats.logical_bytes_written += bytes;
        inner.stats.physical_bytes_written += bytes;
        inner.stats.segments_committed += 1;
        inner.stats.write_seconds += elapsed;
    }

    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize) {
        let started = clock::now();
        let bytes = encoded_rows_len(&rows);
        let n = rows.len() as u64;
        let shared = Arc::new(rows);
        let mut inner = self.inner.lock();
        for node in 0..nodes {
            inner.segments.insert((op, node), Arc::clone(&shared));
        }
        // One physical copy made visible on `nodes` targets.
        let elapsed = clock::elapsed(started).as_secs_f64();
        inner.stats.logical_rows_written += n * nodes as u64;
        inner.stats.logical_bytes_written += bytes * nodes as u64;
        inner.stats.physical_rows_written += n;
        inner.stats.physical_bytes_written += bytes;
        inner.stats.segments_committed += 1;
        inner.stats.write_seconds += elapsed;
    }

    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>> {
        let started = clock::now();
        let mut inner = self.inner.lock();
        let hit = inner.segments.get(&(op, node)).cloned();
        if let Some(rows) = &hit {
            let bytes = encoded_rows_len(rows);
            let elapsed = clock::elapsed(started).as_secs_f64();
            inner.stats.rows_read += rows.len() as u64;
            inner.stats.bytes_read += bytes;
            inner.stats.read_seconds += elapsed;
        }
        hit
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        self.inner.lock().segments.contains_key(&(op, node))
    }

    fn clear(&self) {
        // Stats survive a clear: they account the backend's lifetime, and
        // a coarse query restart must not erase the write volume it cost.
        self.inner.lock().segments.clear();
    }

    fn len(&self) -> usize {
        self.inner.lock().segments.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        // Memory cannot tear or bit-rot; there is never anything to drain.
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::int_row;

    #[test]
    fn put_and_get_round_trip() {
        let store = MemBackend::new();
        assert!(store.is_empty());
        store.put(1, 0, vec![int_row(&[1, 2]), int_row(&[3, 4])]);
        assert!(store.contains(1, 0));
        assert!(!store.contains(1, 1));
        assert_eq!(store.get(1, 0).unwrap().len(), 2);
        assert!(store.get(2, 0).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let store = MemBackend::new();
        store.put(1, 0, vec![int_row(&[1])]);
        store.put(1, 0, vec![int_row(&[2]), int_row(&[3])]);
        assert_eq!(store.get(1, 0).unwrap().len(), 2);
    }

    #[test]
    fn replication_is_one_physical_copy() {
        let store = MemBackend::new();
        store.put_replicated(9, vec![int_row(&[5]), int_row(&[6])], 4);
        for node in 0..4 {
            assert_eq!(store.get(9, node).unwrap().len(), 2);
        }
        let stats = store.stats();
        // The satellite fix: 2 rows × 4 nodes logical, 2 physical.
        assert_eq!(stats.logical_rows_written, 8);
        assert_eq!(stats.physical_rows_written, 2);
        assert_eq!(stats.logical_bytes_written, 4 * stats.physical_bytes_written);
        assert!(stats.physical_bytes_written > 0);
        assert_eq!(stats.replication_amplification(), Some(4.0));
        assert_eq!(stats.fsyncs, 0);
    }

    #[test]
    fn clear_keeps_lifetime_stats() {
        let store = MemBackend::new();
        store.put(1, 0, vec![int_row(&[1])]);
        store.clear();
        assert!(store.is_empty());
        assert!(!store.contains(1, 0));
        assert_eq!(store.stats().logical_rows_written, 1);
    }

    #[test]
    fn reads_are_accounted() {
        let store = MemBackend::new();
        store.put(1, 0, vec![int_row(&[1, 2, 3])]);
        let _ = store.get(1, 0);
        let _ = store.get(1, 1); // miss: not accounted
        let stats = store.stats();
        assert_eq!(stats.rows_read, 1);
        assert_eq!(stats.bytes_read, stats.physical_bytes_written);
    }
}
