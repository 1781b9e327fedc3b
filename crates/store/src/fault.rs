//! [`FaultStore`]: a fault-injecting [`StoreBackend`] decorator.
//!
//! The simulation harness drives the real engine against a real backend
//! and needs storage to misbehave *on command, deterministically*. This
//! decorator wraps any inner backend and injects the four storage fault
//! shapes of the harness's schedule vocabulary at logical coordinates —
//! a `(op, node)` slot plus, for reads, a zero-based access ordinal —
//! never at wall-clock times:
//!
//! * **torn write** — the next put to the slot commits torn: metadata
//!   still says present ([`StoreBackend::contains`] is true), but the
//!   first read discovers the damage, records a [`CorruptSegment`] and
//!   demotes the slot to absent. This is the §2.2 rewind trigger.
//! * **lost put** — the next put to the slot is silently dropped: the
//!   slot reads as absent with *no* corruption report (a failed I/O the
//!   device never surfaced). The engine recovers through its missing-
//!   input rewind path rather than the corruption path.
//! * **corrupt read** — the `nth` read of the slot (after arming) fails
//!   its checksum: corruption recorded, slot demoted, `None` returned.
//!   The engine reads a slot only in its coordinator's input read before
//!   a stage: ordinal 0 is the slot's first read, and a higher ordinal
//!   is a later consumer's read or a re-read after a rewind.
//! * **delayed I/O** — each of the next `uses` accesses of the slot
//!   advances the process [`VirtualClock`](ftpde_obs::sync::clock) by a
//!   fixed number of virtual milliseconds: a straggling device that
//!   stretches observed spans without one real sleep.
//!
//! All bookkeeping lives behind one mutex, and
//! [`drain_corruptions`](StoreBackend::drain_corruptions) returns
//! injected corruptions in sorted `(op, node, reason)` order, so the
//! harness's determinism oracle (FT301) sees one order whatever order the
//! reads ran in.
//!
//! The decorator also carries the harness's *deliberately wrong*
//! recovery mode, [`StoreBug::ServeCorruptData`]: instead of demoting a
//! damaged slot, serve deterministically mutated rows as if the checksum
//! pass were disabled. The engine then never triggers the §2.2 rewind
//! and completes with wrong output — exactly the class of bug the
//! harness's result-divergence oracle (FT302) exists to catch, and the
//! canonical seeded entry of the committed bug base.

use std::sync::Arc;
use std::time::Duration;

use ftpde_obs::sync::clock;
use parking_lot::Mutex;

use crate::{CorruptSegment, Row, StoreBackend, StoreStats};

/// A deliberately wrong storage behavior, for harness self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBug {
    /// Correct behavior: damaged slots demote and report.
    #[default]
    None,
    /// Checksum verification "disabled": a slot hit by a torn-write or
    /// corrupt-read fault serves deterministically mutated rows instead
    /// of demoting, so the engine never learns anything went wrong.
    ServeCorruptData,
}

/// Why a slot is currently demoted (suppressed until the next put).
#[derive(Debug, Clone)]
struct Demoted {
    op: u32,
    node: usize,
    /// `Some(reason)`: damage not yet discovered — `contains` still
    /// reports true (torn write: metadata lies) and the first `get`
    /// records the corruption. `None`: already discovered, or lost
    /// silently (lost put) — the slot simply reads absent.
    pending_reason: Option<String>,
}

/// One armed delayed-I/O fault.
#[derive(Debug, Clone, Copy)]
struct Delay {
    op: u32,
    node: usize,
    virtual_ms: u64,
    uses_left: u32,
    fired: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Slots whose *next* put commits torn.
    torn: Vec<(u32, usize)>,
    /// Slots whose *next* put is silently dropped.
    lost: Vec<(u32, usize)>,
    /// `(op, node, reads_remaining)` — fires when the counter hits zero.
    corrupt_get: Vec<(u32, usize, u32)>,
    delays: Vec<Delay>,
    demoted: Vec<Demoted>,
    /// Injected corruptions awaiting drain.
    log: Vec<CorruptSegment>,
    /// Total injected corruptions ever recorded (for `stats`).
    injected: u64,
    /// Descriptions of faults that have taken effect, in firing order.
    fired: Vec<String>,
    bug: StoreBug,
}

impl FaultState {
    fn demoted_idx(&self, op: u32, node: usize) -> Option<usize> {
        self.demoted.iter().position(|d| d.op == op && d.node == node)
    }

    /// Applies armed write faults after a put made `(op, node)` visible.
    fn after_put(&mut self, op: u32, node: usize) {
        // A successful rewrite heals any previous demotion first.
        if let Some(i) = self.demoted_idx(op, node) {
            self.demoted.swap_remove(i);
        }
        if let Some(i) = self.torn.iter().position(|&s| s == (op, node)) {
            self.torn.swap_remove(i);
            self.fired.push(format!("torn write op {op} node {node}"));
            self.demoted.push(Demoted {
                op,
                node,
                pending_reason: Some("torn write (injected)".to_string()),
            });
        } else if let Some(i) = self.lost.iter().position(|&s| s == (op, node)) {
            self.lost.swap_remove(i);
            self.fired.push(format!("lost put op {op} node {node}"));
            self.demoted.push(Demoted { op, node, pending_reason: None });
        }
    }

    fn record(&mut self, op: u32, node: usize, reason: &str) {
        self.injected += 1;
        self.log.push(CorruptSegment { op, node: Some(node), reason: reason.to_string() });
    }
}

/// Fault-injecting decorator over any [`StoreBackend`]. See the module
/// docs for the fault vocabulary and determinism contract.
#[derive(Debug)]
pub struct FaultStore<'a> {
    inner: &'a dyn StoreBackend,
    st: Mutex<FaultState>,
}

impl<'a> FaultStore<'a> {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: &'a dyn StoreBackend) -> Self {
        FaultStore { inner, st: Mutex::new(FaultState::default()) }
    }

    /// Arms a torn write against the next put to `(op, node)`.
    pub fn arm_torn(&self, op: u32, node: usize) {
        self.st.lock().torn.push((op, node));
    }

    /// Arms a silent loss of the next put to `(op, node)`.
    pub fn arm_lost_put(&self, op: u32, node: usize) {
        self.st.lock().lost.push((op, node));
    }

    /// Arms a checksum failure on the `nth_get`-th read (zero-based,
    /// counted from arming) of `(op, node)`: 0 is the slot's first read
    /// after arming, a higher ordinal a later consumer's read or a re-read
    /// after a rewind.
    pub fn arm_corrupt_read(&self, op: u32, node: usize, nth_get: u32) {
        self.st.lock().corrupt_get.push((op, node, nth_get));
    }

    /// Arms `uses` straggling accesses of `(op, node)`, each advancing
    /// the virtual clock by `virtual_ms`.
    pub fn arm_delay(&self, op: u32, node: usize, virtual_ms: u64, uses: u32) {
        if uses == 0 {
            return;
        }
        self.st.lock().delays.push(Delay { op, node, virtual_ms, uses_left: uses, fired: false });
    }

    /// Selects a deliberately wrong behavior (default: [`StoreBug::None`]).
    pub fn set_bug(&self, bug: StoreBug) {
        self.st.lock().bug = bug;
    }

    /// Descriptions of the armed faults that have taken effect so far,
    /// sorted.
    pub fn fired(&self) -> Vec<String> {
        let mut v = self.st.lock().fired.clone();
        v.sort();
        v
    }

    /// Descriptions of armed faults that have *not* fired: writes never
    /// issued, read ordinals never reached, delays never touched. The
    /// harness reports these as FT304 (a schedule that outran the run).
    pub fn unfired(&self) -> Vec<String> {
        let st = self.st.lock();
        let mut v: Vec<String> = st
            .torn
            .iter()
            .map(|&(op, node)| format!("torn write op {op} node {node}"))
            .chain(st.lost.iter().map(|&(op, node)| format!("lost put op {op} node {node}")))
            .chain(
                st.corrupt_get
                    .iter()
                    .map(|&(op, node, n)| format!("corrupt read op {op} node {node} get {n}")),
            )
            .chain(
                st.delays
                    .iter()
                    .filter(|d| !d.fired)
                    .map(|d| format!("delay op {} node {} {}ms", d.op, d.node, d.virtual_ms)),
            )
            .collect();
        v.sort();
        v
    }

    /// Mutates rows the way the [`StoreBug::ServeCorruptData`] mode
    /// serves them: bit-damage that is deterministic per row set.
    fn corrupt_copy(rows: &[Row]) -> Vec<Row> {
        use crate::value::Value;
        let mut out: Vec<Row> = rows.to_vec();
        if let Some(first) = out.first_mut() {
            let mut cells: Vec<Value> = first.to_vec();
            if let Some(cell) = cells.first_mut() {
                *cell = match *cell {
                    Value::Int(v) => Value::Int(v.wrapping_add(0x5A5A_5A5A)),
                    Value::Float(v) => Value::Float(v + 1.0e9),
                };
            }
            *first = cells.into_boxed_slice();
        }
        out
    }
}

impl StoreBackend for FaultStore<'_> {
    fn put(&self, op: u32, node: usize, rows: Vec<Row>) {
        self.inner.put(op, node, rows);
        self.st.lock().after_put(op, node);
    }

    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize) {
        self.inner.put_replicated(op, rows, nodes);
        let mut st = self.st.lock();
        for node in 0..nodes {
            st.after_put(op, node);
        }
    }

    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>> {
        let mut st = self.st.lock();
        // Straggler first: a slow device is slow whether or not the read
        // then succeeds.
        if let Some(d) = st.delays.iter_mut().find(|d| d.op == op && d.node == node) {
            let ms = d.virtual_ms;
            d.uses_left -= 1;
            let first = !d.fired;
            d.fired = true;
            let done = d.uses_left == 0;
            if done {
                let i = st.delays.iter().position(|d| d.op == op && d.node == node).unwrap();
                st.delays.swap_remove(i);
            }
            if first {
                st.fired.push(format!("delay op {op} node {node} {ms}ms"));
            }
            drop(st);
            clock::advance(Duration::from_millis(ms));
            st = self.st.lock();
        }
        // Previously demoted slot: discover (and report) on first read.
        if let Some(i) = st.demoted_idx(op, node) {
            if let Some(reason) = st.demoted[i].pending_reason.take() {
                if st.bug == StoreBug::ServeCorruptData {
                    // Checksum "disabled": undo the demotion and serve
                    // damaged rows as if nothing happened.
                    st.demoted.swap_remove(i);
                    st.fired.push(format!("served corrupt data op {op} node {node}"));
                    drop(st);
                    return self
                        .inner
                        .get(op, node)
                        .map(|rows| Arc::new(Self::corrupt_copy(&rows)));
                }
                st.record(op, node, &reason);
            }
            return None;
        }
        // Armed read-ordinal fault for this slot?
        if let Some(i) = st.corrupt_get.iter().position(|&(o, n, _)| (o, n) == (op, node)) {
            if st.corrupt_get[i].2 == 0 {
                st.corrupt_get.swap_remove(i);
                if st.bug == StoreBug::ServeCorruptData {
                    st.fired.push(format!("served corrupt data op {op} node {node}"));
                    drop(st);
                    return self
                        .inner
                        .get(op, node)
                        .map(|rows| Arc::new(Self::corrupt_copy(&rows)));
                }
                st.fired.push(format!("corrupt read op {op} node {node}"));
                st.record(op, node, "checksum mismatch (injected)");
                st.demoted.push(Demoted { op, node, pending_reason: None });
                return None;
            }
            st.corrupt_get[i].2 -= 1;
        }
        drop(st);
        self.inner.get(op, node)
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        let st = self.st.lock();
        match st.demoted_idx(op, node) {
            // Torn but undiscovered: metadata still says present.
            Some(i) => st.demoted[i].pending_reason.is_some() && self.inner.contains(op, node),
            None => self.inner.contains(op, node),
        }
    }

    fn clear(&self) {
        self.inner.clear();
        // Demotions die with the data; armed faults stay armed — they
        // target whatever the restarted query writes next.
        self.st.lock().demoted.clear();
    }

    fn len(&self) -> usize {
        let st = self.st.lock();
        let hidden = st
            .demoted
            .iter()
            .filter(|d| d.pending_reason.is_none() && self.inner.contains(d.op, d.node))
            .count();
        self.inner.len() - hidden
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.inner.stats();
        s.corrupt_segments += self.st.lock().injected;
        s
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        let mut v = self.inner.drain_corruptions();
        v.append(&mut self.st.lock().log);
        v.sort_by(|a, b| (a.op, a.node, &a.reason).cmp(&(b.op, b.node, &b.reason)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int_row, MemBackend, Value};

    fn rows() -> Vec<Row> {
        vec![int_row(&[7, 8]), int_row(&[9, 10])]
    }

    #[test]
    fn transparent_when_no_faults_armed() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        assert!(fs.is_empty());
        fs.put(1, 0, vec![int_row(&[1, 2])]);
        fs.put_replicated(2, vec![int_row(&[3])], 2);
        assert_eq!(fs.len(), 3);
        assert!(fs.contains(1, 0) && fs.contains(2, 0) && fs.contains(2, 1));
        assert_eq!(fs.get(2, 1).unwrap()[0][0], Value::Int(3));
        let stats = fs.stats();
        assert_eq!(stats.logical_rows_written, 3);
        assert_eq!(stats.physical_rows_written, 2);
        fs.clear();
        assert!(fs.is_empty());
        assert!(fs.drain_corruptions().is_empty());
        assert!(fs.fired().is_empty() && fs.unfired().is_empty());
    }

    #[test]
    fn torn_write_lies_in_metadata_then_reports_on_first_read() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.arm_torn(3, 1);
        fs.put(3, 1, rows());
        // Metadata lies until the read discovers the damage.
        assert!(fs.contains(3, 1));
        assert!(fs.get(3, 1).is_none());
        assert!(!fs.contains(3, 1));
        assert_eq!(fs.len(), 0);
        let corruptions = fs.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert_eq!(corruptions[0].op, 3);
        assert_eq!(corruptions[0].node, Some(1));
        assert!(corruptions[0].reason.contains("torn"));
        // Reported exactly once; stays absent until rewritten.
        assert!(fs.get(3, 1).is_none());
        assert!(fs.drain_corruptions().is_empty());
        assert_eq!(fs.stats().corrupt_segments, 1);
        // A re-put heals the slot.
        fs.put(3, 1, rows());
        assert_eq!(fs.get(3, 1).unwrap().len(), 2);
        assert_eq!(fs.fired(), vec!["torn write op 3 node 1".to_string()]);
    }

    #[test]
    fn lost_put_is_silently_absent() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.arm_lost_put(4, 0);
        fs.put(4, 0, rows());
        assert!(!fs.contains(4, 0));
        assert!(fs.get(4, 0).is_none());
        assert!(fs.drain_corruptions().is_empty());
        assert_eq!(fs.stats().corrupt_segments, 0);
        fs.put(4, 0, rows());
        assert!(fs.contains(4, 0));
    }

    #[test]
    fn corrupt_read_fires_at_the_armed_ordinal() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.put(5, 0, rows());
        fs.arm_corrupt_read(5, 0, 2);
        assert!(fs.get(5, 0).is_some()); // ordinal 0
        assert!(fs.get(5, 0).is_some()); // ordinal 1
        assert!(fs.get(5, 0).is_none()); // ordinal 2: fires
        assert!(!fs.contains(5, 0));
        let corruptions = fs.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert!(corruptions[0].reason.contains("checksum"));
        fs.put(5, 0, rows());
        assert!(fs.get(5, 0).is_some());
    }

    #[test]
    fn delay_advances_virtual_clock_per_use() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.put(6, 0, rows());
        fs.arm_delay(6, 0, 5, 2);
        let before = clock::now();
        assert!(fs.get(6, 0).is_some());
        assert!(fs.get(6, 0).is_some());
        assert!(fs.get(6, 0).is_some()); // third access: delay exhausted
        let advanced = clock::elapsed(before);
        assert!(advanced >= Duration::from_millis(10), "{advanced:?}");
        assert!(advanced < Duration::from_millis(1000), "{advanced:?}");
        assert_eq!(fs.fired(), vec!["delay op 6 node 0 5ms".to_string()]);
        assert!(fs.unfired().is_empty());
    }

    #[test]
    fn unfired_faults_are_reported_for_ft304() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.arm_torn(1, 0);
        fs.arm_lost_put(2, 0);
        fs.arm_corrupt_read(3, 0, 1);
        fs.arm_delay(4, 0, 7, 1);
        let unfired = fs.unfired();
        assert_eq!(unfired.len(), 4);
        assert!(unfired.iter().any(|s| s.contains("torn write op 1")), "{unfired:?}");
        assert!(unfired.iter().any(|s| s.contains("delay op 4")), "{unfired:?}");
    }

    #[test]
    fn clear_drops_demotions_but_keeps_armed_faults() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.arm_torn(1, 0);
        fs.arm_torn(2, 0);
        fs.put(1, 0, rows());
        fs.clear();
        // The un-consumed arming survives the restart and hits the
        // re-written slot; the consumed one is gone.
        fs.put(1, 0, rows());
        fs.put(2, 0, rows());
        assert!(fs.get(1, 0).is_some());
        assert!(fs.get(2, 0).is_none());
    }

    #[test]
    fn serve_corrupt_data_bug_serves_mutated_rows_silently() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        fs.set_bug(StoreBug::ServeCorruptData);
        fs.arm_torn(7, 0);
        fs.put(7, 0, rows());
        let served = fs.get(7, 0).expect("bug mode serves data");
        // First cell deterministically damaged, rest intact.
        assert_ne!(served[0][0], Value::Int(7));
        assert_eq!(served[0][1], Value::Int(8));
        assert_eq!(served[1][0], Value::Int(9));
        // No corruption surfaced anywhere — that is the bug.
        assert!(fs.drain_corruptions().is_empty());
        assert_eq!(fs.stats().corrupt_segments, 0);
        assert!(fs.contains(7, 0));
        // Same for the read-ordinal shape.
        fs.put(8, 0, rows());
        fs.arm_corrupt_read(8, 0, 0);
        let served = fs.get(8, 0).expect("bug mode serves data");
        assert_ne!(served[0][0], Value::Int(7));
        assert!(fs.drain_corruptions().is_empty());
        let fired = fs.fired();
        assert_eq!(fired.iter().filter(|s| s.contains("served corrupt")).count(), 2, "{fired:?}");
    }

    #[test]
    fn drained_corruptions_are_sorted() {
        let inner = MemBackend::new();
        let fs = FaultStore::new(&inner);
        for (op, node) in [(9, 1), (2, 0), (9, 0)] {
            fs.arm_torn(op, node);
            fs.put(op, node, rows());
            assert!(fs.get(op, node).is_none());
        }
        let drained = fs.drain_corruptions();
        let keys: Vec<(u32, Option<usize>)> = drained.iter().map(|c| (c.op, c.node)).collect();
        assert_eq!(keys, vec![(2, Some(0)), (9, Some(0)), (9, Some(1))]);
    }
}
