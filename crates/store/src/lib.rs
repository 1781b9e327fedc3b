//! # ftpde-store — durable, pluggable checkpoint storage
//!
//! The paper's cost model prices every materialization decision against
//! *fault-tolerant storage* (§2.2; the evaluation uses an iSCSI-backed
//! store, §5.1): a materialized intermediate is only worth its `tm(o)`
//! write cost if it still exists after the failure it insures against.
//! This crate provides that storage layer behind one trait:
//!
//! * [`MemBackend`] — the engine's historical `Mutex<HashMap>` behavior,
//!   extracted. Fast, volatile, the semantic baseline.
//! * [`DiskBackend`] — one append-only checkpoint log per directory: each
//!   put appends a CRC-32-checked segment and its commit record as one
//!   frame and syncs it once, so a **brand-new process** can reopen the
//!   directory and resume a query from its committed checkpoints
//!   ([`disk`] has the full contract).
//!
//! Corruption is a first-class, *recoverable* condition: a torn or
//! bit-flipped segment is demoted to "not materialized" and reported via
//! [`StoreBackend::drain_corruptions`] — a torn one (or a damaged frame
//! header) when the directory is opened, a bit-flipped one at its first
//! read; the engine re-executes the producing stage and emits a
//! `segment_corrupt` observability event.
//! Backends also meter themselves ([`StoreStats`]) — the measured write
//! throughput is the observed `tm(o)` that `ftpde-obs`'s calibration
//! layer compares against the cost model's assumed constants.

pub mod codec;
pub mod disk;
pub mod fault;
pub mod mem;
pub mod stats;
pub mod sync;
pub mod value;

use std::fmt;

use crate::sync::plain::Arc;

pub use disk::{inspect, verify, DiskBackend, StoreReport};
pub use fault::{FaultStore, StoreBug};
pub use mem::MemBackend;
pub use stats::StoreStats;
pub use value::{int_row, row, Row, Value};

/// A segment the store found unusable (checksum mismatch, torn write,
/// undecodable payload, damaged or unreadable log). To the engine this
/// means "re-execute the producer", never "fail the query".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSegment {
    /// Producing operator id (`u32::MAX` when the damage is not one
    /// segment's: a frame header that failed its CRC, or a log or
    /// directory this build cannot read).
    pub op: u32,
    /// Partition index; `None` for a replicated segment (or `op: u32::MAX`).
    pub node: Option<usize>,
    /// Human-readable diagnosis.
    pub reason: String,
}

/// Checkpoint storage for materialized operator outputs, keyed by
/// `(operator id, node index)`.
///
/// Implementations are internally synchronized (`&self` methods callable
/// from the engine's per-node worker threads) and must satisfy:
///
/// * **Read-your-writes**: after `put(op, n, rows)` returns, `get(op, n)`
///   returns exactly those rows, bit-identically, until `clear` or a
///   replacing put.
/// * **All-or-nothing visibility**: `get` returns a slot's complete,
///   checksum-clean rows or `None`; partial or damaged writes never
///   surface as rows. `contains` and `len` report committed metadata
///   (the disk backend's log frames), so they may count a slot whose
///   damage only its first `get` discovers.
/// * **Corruption demotion**: integrity failures make the slot absent
///   and are reported through [`drain_corruptions`]
///   (never a panic or an `Err` on the read path).
///
/// [`drain_corruptions`]: StoreBackend::drain_corruptions
pub trait StoreBackend: Send + Sync + fmt::Debug {
    /// Stores one partition of an operator's output, replacing any
    /// previous segment in that slot.
    fn put(&self, op: u32, node: usize, rows: Vec<Row>);

    /// Makes one row set visible on all `nodes` partitions (the gather
    /// pattern). Counts `nodes` logical writes but backends may — and
    /// both built-ins do — store a single physical copy.
    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize);

    /// Reads a partition, or `None` if absent (including "was committed
    /// but found corrupt", which also records a [`CorruptSegment`]).
    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>>;

    /// Whether a committed segment covers `(op, node)`. A cheap metadata
    /// check: integrity is enforced on `get`.
    fn contains(&self, op: u32, node: usize) -> bool;

    /// Drops all segments (coarse query restart). Lifetime [`stats`]
    /// survive.
    ///
    /// [`stats`]: StoreBackend::stats
    fn clear(&self);

    /// Number of visible `(op, node)` slots.
    fn len(&self) -> usize;

    /// Whether no slots are visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative accounting (rows/bytes, fsyncs, measured throughput).
    fn stats(&self) -> StoreStats;

    /// Takes (and clears) the corruptions observed since the last drain,
    /// so the engine can surface each exactly once as an obs event.
    fn drain_corruptions(&self) -> Vec<CorruptSegment>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends must expose identical trait-level behavior; the
    /// engine only ever sees `&dyn StoreBackend`.
    fn exercise(store: &dyn StoreBackend) {
        assert!(store.is_empty());
        store.put(1, 0, vec![int_row(&[1, 2])]);
        store.put_replicated(2, vec![int_row(&[3])], 2);
        assert_eq!(store.len(), 3);
        assert!(store.contains(1, 0) && store.contains(2, 0) && store.contains(2, 1));
        assert_eq!(store.get(2, 1).unwrap()[0][0], Value::Int(3));
        let stats = store.stats();
        assert_eq!(stats.logical_rows_written, 3);
        assert_eq!(stats.physical_rows_written, 2);
        store.clear();
        assert!(store.is_empty());
        assert!(store.drain_corruptions().is_empty());
    }

    #[test]
    fn mem_backend_object_safety_and_contract() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn fault_store_with_nothing_armed_keeps_the_contract() {
        let inner = MemBackend::new();
        exercise(&FaultStore::new(&inner));
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn disk_backend_object_safety_and_contract() {
        exercise(&DiskBackend::ephemeral().unwrap());
    }
}
