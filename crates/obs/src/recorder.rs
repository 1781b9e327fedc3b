//! Event sinks.
//!
//! Instrumented code takes `&dyn Recorder` and calls
//! `Recorder::record_with`: when recording is disabled that is a single
//! virtual call returning a constant — the closure never runs, so the
//! no-op path allocates nothing.

use std::time::Instant;

use parking_lot::Mutex;

use crate::event::Event;
use crate::sync::clock;

/// An event sink. It is `Sync`, so one sink can be shared across threads.
pub trait Recorder: Sync {
    /// `false` for sinks that drop everything; callers gate event
    /// construction on this.
    fn enabled(&self) -> bool;

    /// Stores one event. Implementations must be thread-safe.
    fn record(&self, event: Event);
}

impl dyn Recorder + '_ {
    /// Builds and records an event only when the sink is enabled — the
    /// one-branch gate instrumentation sites should use.
    pub fn record_with(&self, build: impl FnOnce() -> Event) {
        if self.enabled() {
            self.record(build());
        }
    }
}

/// Drops every event. `enabled()` is `false`, so sites gated through
/// [`Recorder::record_with`](trait.Recorder.html) never construct the event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// Collects events in memory behind a mutex, stamping its own creation
/// time as the epoch for wall-clock producers.
#[derive(Debug)]
pub struct MemoryRecorder {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryRecorder {
    /// An empty recorder whose epoch is "now".
    pub fn new() -> Self {
        MemoryRecorder { epoch: clock::now(), events: Mutex::new(Vec::new()) }
    }

    /// Microseconds elapsed since this recorder was created — the
    /// timestamp wall-clock producers should use.
    pub fn now_us(&self) -> u64 {
        clock::elapsed(self.epoch).as_micros() as u64
    }

    /// A copy of everything recorded so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Drains the recorded events, leaving the recorder empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_never_builds_the_event() {
        let rec = NoopRecorder;
        let dyn_rec: &dyn Recorder = &rec;
        let mut built = false;
        dyn_rec.record_with(|| {
            built = true;
            Event::instant("x", "t", 0)
        });
        assert!(!built, "closure must not run on a disabled sink");
    }

    #[test]
    fn memory_recorder_collects_in_order() {
        let rec = MemoryRecorder::new();
        let dyn_rec: &dyn Recorder = &rec;
        dyn_rec.record_with(|| Event::instant("a", "t", 1));
        dyn_rec.record_with(|| Event::instant("b", "t", 2));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.take().len(), 2);
        assert!(rec.is_empty());
    }

    #[test]
    fn memory_recorder_is_shareable_across_threads() {
        let rec = MemoryRecorder::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..25u64 {
                        rec.record(Event::instant(format!("e{i}"), "t", i).tid(t));
                    }
                });
            }
        });
        assert_eq!(rec.len(), 100);
    }

    #[test]
    fn now_us_is_monotonic() {
        let rec = MemoryRecorder::new();
        let a = rec.now_us();
        let b = rec.now_us();
        assert!(b >= a);
    }
}
