//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that was open on the client thread when it started,
//! and the operation it belongs to. Spans stay in memory until the run
//! ends and are then written out once, one JSON object per line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const NONE_U32: u32 = u32::MAX;
const NONE_U64: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `store.put`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation index the span belongs to; `None` for set-up and replay.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans. The client thread opens nested spans with
/// [`Tracer::span`]; any thread may add a leaf with [`Tracer::leaf`], which
/// becomes a child of the client's innermost open span.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    open: AtomicU32,
    op: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: AtomicU32::new(NONE_U32),
            op: AtomicU64::new(NONE_U64),
        }
    }

    /// Sets the operation that new spans belong to.
    pub fn set_op(&self, op: Option<u64>) {
        self.op.store(op.unwrap_or(NONE_U64), Ordering::Relaxed);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let parent = Some(self.open.load(Ordering::Relaxed)).filter(|&p| p != NONE_U32);
        let op = Some(self.op.load(Ordering::Relaxed)).filter(|&o| o != NONE_U64);
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span { name, start_ns, end_ns, parent, op });
        (spans.len() - 1) as u32
    }

    /// Runs `f` inside a span named `name`. Must be called from the client
    /// thread: the span is the parent of every span started while `f` runs.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.push(name, self.ns(Instant::now()), 0);
        let outer = self.open.swap(id, Ordering::Relaxed);
        let out = f();
        self.open.store(outer, Ordering::Relaxed);
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list lock poisoned")[id as usize].end_ns = end;
        out
    }

    /// Records a finished span from any thread.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, self.ns(start), self.ns(end));
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Runs `f` in a span when tracing, and plainly otherwise.
pub fn within<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it that
    /// its children cover.
    pub self_ns: u64,
}

/// Sums duration and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(u64::from)),
            opt(s.op)
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, op: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("get", 10, 40, Some(0)),
            span("get", 30, 50, Some(0)),
            span("put", 90, 120, Some(0)),
        ];
        let t = totals_by_name(&spans);
        // Children cover [10, 50) and [90, 100) of the parent.
        assert_eq!(t["query"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["get"], NameTotals { count: 2, total_ns: 50, self_ns: 50 });
    }

    #[test]
    fn nested_spans_record_their_parent_and_operation() {
        let tr = Tracer::new();
        tr.set_op(Some(7));
        tr.span("outer", || tr.span("inner", || ()));
        tr.set_op(None);
        tr.span("after", || ());
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert_eq!((spans[2].parent, spans[2].op), (None, None));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
