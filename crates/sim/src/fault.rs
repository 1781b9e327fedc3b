//! Shared fault-schedule types for whole-system simulation.
//!
//! A [`FaultSchedule`] is the serialized middle of the simulation
//! harness's pipeline: one seed deterministically derives a workload and
//! a schedule, the schedule is injected into a real engine run (kills
//! through the engine's `FailureInjector`, storage faults through the
//! `FaultStore` decorator), and a failing schedule is what the shrinker
//! minimizes and the bug base replays. The types live here, next to the
//! discrete-event simulator, so every layer that speaks "what went
//! wrong, where" shares one definition without depending on the harness
//! itself.
//!
//! Faults are addressed by *logical* coordinates, the same convention as
//! the engine's failure injector: `(stage, node, attempt)` for kills,
//! `(op, node)` slots plus an access ordinal for storage faults. Logical
//! coordinates are what make replay exact; wall-clock timestamps would
//! make every schedule flaky by construction. Virtual time still flows
//! through a schedule: [`FaultEvent::DelayIo`] advances the process
//! [`VirtualClock`](ftpde_obs::sync::clock) on access, so stragglers
//! stretch observed stage spans without a single real sleep.

use serde::{Deserialize, Serialize};

/// One injected fault, at a logical coordinate.
///
/// Serializes externally tagged (`{"KillNode": {...}}`) — the one enum
/// representation the workspace's offline serde derive supports — which
/// is the wire format of [`FaultSchedule`] entries in the bug base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Kill `node` as its `attempt`-th execution of the sub-plan rooted at
    /// `stage` starts, before it reads its inputs (through the engine's
    /// `FailureInjector`).
    KillNode {
        /// Root operator id of the stage being executed.
        stage: u32,
        /// Node to kill.
        node: u32,
        /// Which execution attempt of that `(stage, node)` dies.
        attempt: u32,
    },
    /// The next write to slot `(op, node)` is committed torn: metadata
    /// says present, the first read finds it corrupt, demotes the slot
    /// and reports a corruption (the §2.2 rewind trigger).
    TornWrite {
        /// Producing operator id of the slot.
        op: u32,
        /// Partition (node index) of the slot.
        node: u32,
    },
    /// The `nth_get`-th read of slot `(op, node)` after arming fails its
    /// checksum: the slot is demoted and a corruption reported.
    /// `nth_get = 0` fails the coordinator's pre-check; higher ordinals
    /// reach the worker-side read and exercise the lost-input path.
    CorruptRead {
        /// Producing operator id of the slot.
        op: u32,
        /// Partition (node index) of the slot.
        node: u32,
        /// Zero-based ordinal of the read that fails.
        nth_get: u32,
    },
    /// The next write to slot `(op, node)` is silently lost: the store
    /// accepts it and drops it, so consumers find the slot absent (a
    /// failed I/O that the device never surfaced).
    LostPut {
        /// Producing operator id of the slot.
        op: u32,
        /// Partition (node index) of the slot.
        node: u32,
    },
    /// Each of the next `uses` accesses of slot `(op, node)` advances
    /// the virtual clock by `virtual_ms` — a straggling device, in
    /// virtual time only.
    DelayIo {
        /// Producing operator id of the slot.
        op: u32,
        /// Partition (node index) of the slot.
        node: u32,
        /// Virtual milliseconds added per access.
        virtual_ms: u32,
        /// How many accesses straggle.
        uses: u32,
    },
}

impl FaultEvent {
    /// Whether this fault is injected through the storage decorator
    /// (as opposed to the engine's `FailureInjector`).
    pub fn is_store_fault(&self) -> bool {
        !matches!(self, FaultEvent::KillNode { .. })
    }

    /// The `(op, node)` slot a storage fault targets; `None` for kills.
    pub fn slot(&self) -> Option<(u32, u32)> {
        match *self {
            FaultEvent::KillNode { .. } => None,
            FaultEvent::TornWrite { op, node }
            | FaultEvent::CorruptRead { op, node, .. }
            | FaultEvent::LostPut { op, node }
            | FaultEvent::DelayIo { op, node, .. } => Some((op, node)),
        }
    }

    /// A compact single-line rendering, for reports and shrink logs.
    pub fn describe(&self) -> String {
        match *self {
            FaultEvent::KillNode { stage, node, attempt } => {
                format!("kill stage {stage} node {node} attempt {attempt}")
            }
            FaultEvent::TornWrite { op, node } => format!("torn write op {op} node {node}"),
            FaultEvent::CorruptRead { op, node, nth_get } => {
                format!("corrupt read op {op} node {node} get {nth_get}")
            }
            FaultEvent::LostPut { op, node } => format!("lost put op {op} node {node}"),
            FaultEvent::DelayIo { op, node, virtual_ms, uses } => {
                format!("delay op {op} node {node} {virtual_ms}ms x{uses}")
            }
        }
    }
}

/// An ordered list of faults to inject into one run.
///
/// Order matters only for faults targeting the same slot (they arm in
/// sequence); the shrinker treats the list as the unit of minimization:
/// drop events, advance their ordinals toward zero, and merge duplicates
/// until no single removal still reproduces the failure.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The faults, in arming order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (the failure-free reference run).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The kills, in the engine injector's coordinate type (as tuples —
    /// the engine's `Injection` stays an engine type).
    pub fn kills(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.events.iter().filter_map(|e| match *e {
            FaultEvent::KillNode { stage, node, attempt } => Some((stage, node, attempt)),
            _ => None,
        })
    }

    /// The storage faults, in arming order.
    pub fn store_faults(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.is_store_fault())
    }

    /// Removes exact duplicate events, keeping first occurrences — the
    /// shrinker's "merge" move (arming the same fault twice either has
    /// no extra effect or only prolongs recovery).
    pub fn dedup(&self) -> Self {
        let mut seen = Vec::new();
        for e in &self.events {
            if !seen.contains(e) {
                seen.push(*e);
            }
        }
        FaultSchedule { events: seen }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule {
            events: vec![
                FaultEvent::KillNode { stage: 4, node: 1, attempt: 0 },
                FaultEvent::TornWrite { op: 2, node: 0 },
                FaultEvent::CorruptRead { op: 2, node: 1, nth_get: 1 },
                FaultEvent::LostPut { op: 6, node: 2 },
                FaultEvent::DelayIo { op: 2, node: 0, virtual_ms: 40, uses: 2 },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = sample();
        let text = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&text).unwrap();
        assert_eq!(s, back);
        // The tagged representation is stable enough to hand-read.
        assert!(text.contains("\"KillNode\":{\"stage\":4"), "{text}");
        assert!(text.contains("\"CorruptRead\":{"), "{text}");
    }

    #[test]
    fn accessors_partition_kills_and_store_faults() {
        let s = sample();
        assert_eq!(s.kills().collect::<Vec<_>>(), vec![(4, 1, 0)]);
        assert_eq!(s.store_faults().count(), 4);
        assert_eq!(s.events[1].slot(), Some((2, 0)));
        assert_eq!(s.events[0].slot(), None);
        assert!(!s.events[0].is_store_fault());
        assert!(s.events[4].is_store_fault());
    }

    #[test]
    fn dedup_merges_exact_duplicates_preserving_order() {
        let mut s = sample();
        s.events.push(FaultEvent::TornWrite { op: 2, node: 0 });
        s.events.push(FaultEvent::KillNode { stage: 4, node: 1, attempt: 0 });
        let d = s.dedup();
        assert_eq!(d, sample());
        assert!(!d.is_empty());
        assert_eq!(d.len(), 5);
        assert_eq!(FaultSchedule::empty().len(), 0);
    }

    #[test]
    fn describe_is_single_line_and_total() {
        for e in sample().events {
            let text = e.describe();
            assert!(!text.is_empty() && !text.contains('\n'), "{text}");
        }
    }
}
