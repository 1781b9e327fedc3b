//! Loom models of the coordinator's recovery protocol.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"` (the CI `loom`
//! job): the `ftpde_store::sync` shim then routes the real
//! [`MemBackend`]'s mutex through the loom model checker, and each `model`
//! body below is explored across many thread interleavings.
//!
//! Two interleaving families from the recovery protocol are modeled:
//!
//! 1. **Rewind after corruption** — a reader racing a store `clear()`
//!    (the demotion/coarse-restart path) must see either the complete
//!    committed segment or a clean miss, never a torn state; a miss after
//!    a successful `contains` is legal (the lost-input rewind path the
//!    coordinator handles via `NodeOutcome::InputLost`).
//! 2. **Concurrent partition writers** — per-node workers materializing
//!    different partitions of the same operator concurrently (plus a
//!    replicated gather write) must leave the store with every segment
//!    visible and the logical/physical accounting exact.
//!
//! A node kill needs no model: the coordinator decides it once per
//! attempt, before the worker reads anything, so no worker observes
//! another's kill.

#![cfg(loom)]

use ftpde_store::value::int_row;
use ftpde_store::{MemBackend, StoreBackend};
use loom::sync::Arc;
use loom::thread;

/// A reader races a `clear()` on the real `MemBackend`. Every
/// interleaving must yield either the full committed segment or a clean
/// miss; `contains == true` followed by `get == None` is an allowed
/// outcome (the demotion race `run_stage_on_node` maps to
/// `NodeOutcome::InputLost`), a torn or partial read is not.
#[test]
fn rewind_after_corruption() {
    loom::model(|| {
        let store = Arc::new(MemBackend::new());
        store.put(7, 0, vec![int_row(&[1]), int_row(&[2])]);

        let wiper = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                // Corruption demotion / coarse restart: the slot vanishes.
                store.clear();
            })
        };
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let pre_checked = store.contains(7, 0);
                match store.get(7, 0) {
                    // All-or-nothing visibility: never a partial segment.
                    Some(rows) => assert_eq!(rows.len(), 2, "torn read"),
                    // A miss is always recoverable — even after a
                    // successful pre-check (the InputLost path).
                    None => assert!(pre_checked || !pre_checked),
                }
            })
        };

        wiper.join().unwrap();
        reader.join().unwrap();
        assert!(store.get(7, 0).is_none(), "clear is durable once joined");
    });
}

/// Two per-node workers materialize their partitions of operator 3 while
/// a gather result for operator 4 is replicated to both nodes. The store
/// must end with all four slots visible and exact accounting — the
/// logical/physical split is what the cost model's `tm(o)` calibration
/// reads, so a lost update here silently skews Eq. 1.
#[test]
fn concurrent_partition_writers() {
    loom::model(|| {
        let store = Arc::new(MemBackend::new());

        let writers: Vec<_> = (0..2usize)
            .map(|node| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    store.put(3, node, vec![int_row(&[node as i64])]);
                })
            })
            .collect();
        let gather = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                store.put_replicated(4, vec![int_row(&[10]), int_row(&[11])], 2);
            })
        };

        for w in writers {
            w.join().unwrap();
        }
        gather.join().unwrap();

        assert_eq!(store.len(), 4, "2 partitions + 2 replicated targets");
        for node in 0..2 {
            assert_eq!(store.get(3, node).unwrap()[0], int_row(&[node as i64]));
        }
        let stats = store.stats();
        // 1 row per partition write + 2 rows × 2 targets replicated.
        assert_eq!(stats.logical_rows_written, 1 + 1 + 4);
        // Replication stores one physical copy.
        assert_eq!(stats.physical_rows_written, 1 + 1 + 2);
        assert_eq!(stats.segments_committed, 3);
    });
}
