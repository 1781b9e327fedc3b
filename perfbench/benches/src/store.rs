//! A timing [`StoreBackend`] decorator: it forwards every call to the
//! backend under test, records a span per call, and keeps the row sets
//! that went through it for the codec replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use ftpde_store::{CorruptSegment, Row, StoreBackend, StoreStats};

use crate::trace::Tracer;

/// One distinct row set written or read by a query's operation.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Query name.
    pub query: &'static str,
    /// Producing operator id.
    pub op: u32,
    /// Partition, `None` for a replicated set.
    pub node: Option<usize>,
    /// The rows.
    pub rows: Arc<Vec<Row>>,
}

/// Distinct row sets seen by a decorator, one per `(query, op, node)` slot.
/// A replicated set, read back through any node, is kept once.
#[derive(Debug, Default)]
pub struct Capture {
    sets: Mutex<Vec<Captured>>,
}

impl Capture {
    fn seen(
        sets: &[Captured],
        query: &str,
        op: u32,
        node: Option<usize>,
        rows: Option<&Arc<Vec<Row>>>,
    ) -> bool {
        sets.iter().any(|c| {
            c.query == query
                && c.op == op
                && (c.node == node
                    || c.node.is_none()
                    || rows.is_some_and(|r| Arc::ptr_eq(r, &c.rows)))
        })
    }

    fn put(&self, query: &'static str, op: u32, node: Option<usize>, rows: &[Row]) {
        let mut sets = self.sets.lock().expect("capture lock poisoned");
        if !Self::seen(&sets, query, op, node, None) {
            sets.push(Captured { query, op, node, rows: Arc::new(rows.to_vec()) });
        }
    }

    fn get(&self, query: &'static str, op: u32, node: usize, rows: &Arc<Vec<Row>>) {
        let mut sets = self.sets.lock().expect("capture lock poisoned");
        if !Self::seen(&sets, query, op, Some(node), Some(rows)) {
            sets.push(Captured { query, op, node: Some(node), rows: Arc::clone(rows) });
        }
    }

    /// Whether any set of `query` was captured.
    pub fn has(&self, query: &str) -> bool {
        self.sets.lock().expect("capture lock poisoned").iter().any(|c| c.query == query)
    }

    /// The captured sets.
    pub fn sets(&self) -> Vec<Captured> {
        self.sets.lock().expect("capture lock poisoned").clone()
    }
}

/// Wraps the store of one operation.
#[derive(Debug)]
pub struct TimingStore<'a> {
    inner: &'a dyn StoreBackend,
    tracer: &'a Tracer,
    capture: Option<&'a Capture>,
    query: &'static str,
    put_delay: Duration,
    client: ThreadId,
    get_hits: AtomicU64,
    worker_get_ns: Vec<AtomicU64>,
}

impl<'a> TimingStore<'a> {
    /// Decorates `inner` for one operation of `query`, keeping its row
    /// sets in `capture` when given. `put_delay` is
    /// slept inside every timed `put` and `put_replicated`; the command
    /// line always passes zero, the attribution test does not.
    pub fn new(
        inner: &'a dyn StoreBackend,
        tracer: &'a Tracer,
        capture: Option<&'a Capture>,
        query: &'static str,
        nodes: usize,
        put_delay: Duration,
    ) -> Self {
        TimingStore {
            inner,
            tracer,
            capture,
            query,
            put_delay,
            client: thread::current().id(),
            get_hits: AtomicU64::new(0),
            worker_get_ns: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// `get` calls that returned rows.
    pub fn get_hits(&self) -> u64 {
        self.get_hits.load(Ordering::Relaxed)
    }

    /// Time the slowest node's worker spent in `get`, nanoseconds: the
    /// store's share of the stage critical path.
    pub fn worker_get_critical_ns(&self) -> u64 {
        self.worker_get_ns.iter().map(|n| n.load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    fn delay(&self) {
        if !self.put_delay.is_zero() {
            thread::sleep(self.put_delay);
        }
    }
}

impl StoreBackend for TimingStore<'_> {
    fn put(&self, op: u32, node: usize, rows: Vec<Row>) {
        if let Some(c) = self.capture {
            c.put(self.query, op, Some(node), &rows);
        }
        let start = Instant::now();
        self.delay();
        self.inner.put(op, node, rows);
        self.tracer.leaf("store.put", start, Instant::now());
    }

    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize) {
        if let Some(c) = self.capture {
            c.put(self.query, op, None, &rows);
        }
        let start = Instant::now();
        self.delay();
        self.inner.put_replicated(op, rows, nodes);
        self.tracer.leaf("store.put_replicated", start, Instant::now());
    }

    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>> {
        let start = Instant::now();
        let rows = self.inner.get(op, node);
        let end = Instant::now();
        self.tracer.leaf("store.get", start, end);
        if thread::current().id() != self.client {
            let ns = end.duration_since(start).as_nanos() as u64;
            self.worker_get_ns[node].fetch_add(ns, Ordering::Relaxed);
        }
        if let Some(r) = &rows {
            self.get_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.capture {
                c.get(self.query, op, node, r);
            }
        }
        rows
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        let start = Instant::now();
        let found = self.inner.contains(op, node);
        self.tracer.leaf("store.contains", start, Instant::now());
        found
    }

    fn clear(&self) {
        let start = Instant::now();
        self.inner.clear();
        self.tracer.leaf("store.clear", start, Instant::now());
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        self.inner.drain_corruptions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_store::{int_row, MemBackend};

    #[test]
    fn forwards_calls_records_spans_and_captures_each_set_once() {
        let inner = MemBackend::new();
        let tracer = Tracer::new();
        let capture = Capture::default();
        let store = TimingStore::new(&inner, &tracer, Some(&capture), "Q", 2, Duration::ZERO);
        store.put(1, 0, vec![int_row(&[1])]);
        store.put_replicated(2, vec![int_row(&[2])], 2);
        assert!(store.contains(1, 0));
        assert_eq!(store.get(1, 0).expect("present")[0], int_row(&[1]));
        assert!(store.get(2, 1).is_some());
        assert!(store.get(9, 0).is_none());
        assert_eq!(store.get_hits(), 2);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "store.put",
                "store.put_replicated",
                "store.contains",
                "store.get",
                "store.get",
                "store.get"
            ]
        );
        // The gets read back the two sets that were put: nothing new.
        assert_eq!(capture.sets().len(), 2);
        assert_eq!(store.stats().logical_rows_written, 3);
    }
}
