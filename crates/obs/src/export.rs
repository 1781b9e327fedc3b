//! Event-log exporters: JSONL (machine-readable, one event per line,
//! lossless round-trip), Chrome trace-event JSON (loadable in
//! `chrome://tracing` or Perfetto's legacy importer), and Prometheus
//! text exposition format for [`MetricsSnapshot`]s.

use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

use serde::Value;

use crate::event::{ArgValue, Event, Phase};
use crate::metrics::MetricsSnapshot;

/// Serializes events as JSONL: one self-contained JSON object per line.
/// The format round-trips through [`from_jsonl`] losslessly.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("events always serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL event log produced by [`to_jsonl`].
///
/// # Errors
/// Returns the underlying JSON error if any non-empty line fails to parse
/// or does not describe an [`Event`].
pub fn from_jsonl(s: &str) -> Result<Vec<Event>, serde_json::Error> {
    s.lines().map(str::trim).filter(|l| !l.is_empty()).map(serde_json::from_str::<Event>).collect()
}

/// Args whose values are wall-clock measurements: identical logical
/// executions produce different numbers here, so the canonical
/// projection strips them.
const TIMING_ARGS: &[&str] = &["lost_s", "write_bytes_per_s", "read_bytes_per_s"];

/// Projects an event log onto its *canonical* form: the part of a trace
/// that must be byte-identical when the same seeded run executes twice.
///
/// Raw logs are append-ordered in real time, so two identical executions
/// interleave their worker tracks differently and stamp every event with
/// a different wall-clock microsecond. The projection removes exactly
/// those freedoms and nothing else:
///
/// * events are regrouped by `(pid, tid)` track (ascending), preserving
///   the within-track order — the order that *is* deterministic;
/// * `ts_us` becomes the event's sequence index in the projected log and
///   `dur_us` becomes zero;
/// * wall-clock measurement args (`lost_s`, `write_bytes_per_s`,
///   `read_bytes_per_s`) are dropped.
///
/// Every track and every other arg is kept. The simulation harness
/// compares `to_jsonl(&canonical_trace(..))` of a run against its replay;
/// any byte difference is an FT301 finding.
pub fn canonical_trace(events: &[Event]) -> Vec<Event> {
    let mut tracks: Vec<(u32, u32)> = events.iter().map(|e| (e.pid, e.tid)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut out = Vec::with_capacity(events.len());
    for (pid, tid) in tracks {
        for e in events.iter().filter(|e| e.pid == pid && e.tid == tid) {
            let mut c = e.clone();
            c.ts_us = out.len() as u64;
            c.dur_us = 0;
            c.args.retain(|(k, _)| !TIMING_ARGS.contains(&k.as_str()));
            out.push(c);
        }
    }
    out
}

fn arg_to_json(v: &ArgValue) -> Value {
    match v {
        ArgValue::U64(n) => Value::UInt(*n),
        ArgValue::I64(n) => Value::Int(*n),
        ArgValue::F64(f) => Value::Float(*f),
        ArgValue::Str(s) => Value::Str(s.clone()),
        ArgValue::Bool(b) => Value::Bool(*b),
    }
}

/// Serializes events in the Chrome trace-event format: a JSON object with
/// a `traceEvents` array whose entries use `ph: "X"` for spans and
/// `ph: "i"` for instants, timestamps in microseconds.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let trace_events: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut obj: Vec<(String, Value)> = vec![
                ("name".into(), Value::Str(e.name.clone())),
                ("cat".into(), Value::Str(e.cat.clone())),
                ("ts".into(), Value::UInt(e.ts_us)),
                ("pid".into(), Value::UInt(e.pid as u64)),
                ("tid".into(), Value::UInt(e.tid as u64)),
            ];
            match e.phase {
                Phase::Span => {
                    obj.push(("ph".into(), Value::Str("X".into())));
                    obj.push(("dur".into(), Value::UInt(e.dur_us)));
                }
                Phase::Instant => {
                    obj.push(("ph".into(), Value::Str("i".into())));
                    // Thread-scoped instant: renders on its tid track.
                    obj.push(("s".into(), Value::Str("t".into())));
                }
            }
            if !e.args.is_empty() {
                let args: Vec<(String, Value)> =
                    e.args.iter().map(|(k, v)| (k.clone(), arg_to_json(v))).collect();
                obj.push(("args".into(), Value::Object(args)));
            }
            Value::Object(obj)
        })
        .collect();
    let root = Value::Object(vec![
        ("traceEvents".into(), Value::Array(trace_events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    serde_json::to_string(&root).expect("trace always serializes")
}

/// Maps a metric name onto the Prometheus charset: `[a-zA-Z0-9_:]`, not
/// starting with a digit. Everything else becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats a float the way Prometheus expects (no exponent mangling;
/// `+Inf`/`-Inf`/`NaN` spelled out).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v.is_nan() {
        "NaN".into()
    } else {
        format!("{v}")
    }
}

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The exported metric kinds, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PromKind {
    Counter,
    Gauge,
    Histogram,
}

impl PromKind {
    fn as_str(self) -> &'static str {
        match self {
            PromKind::Counter => "counter",
            PromKind::Gauge => "gauge",
            PromKind::Histogram => "histogram",
        }
    }
}

/// Groups one kind's metrics into families keyed by sanitized name. Each
/// family keeps the original names of every metric that mapped onto it.
fn prom_families<T>(
    metrics: &[(String, T)],
) -> std::collections::BTreeMap<String, Vec<(&str, &T)>> {
    let mut families: std::collections::BTreeMap<String, Vec<(&str, &T)>> = Default::default();
    for (name, value) in metrics {
        families.entry(prom_name(name)).or_default().push((name.as_str(), value));
    }
    families
}

/// Serializes a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4).
///
/// Counters export as `counter`, gauges as `gauge` — except unset
/// gauges still holding the registry's NaN sentinel, which are skipped
/// (Prometheus scrapers reject a `NaN` sample) — histograms as
/// `histogram` with cumulative `_bucket{le="..."}` series (bucket upper
/// bounds are the log-bucket upper edges `2^(i-39)`), a `+Inf` bucket,
/// `_sum` and `_count`. Every exported family gets exactly one `# HELP`
/// line (naming the original, unsanitized metric) and one `# TYPE` line.
///
/// Sanitization can make distinct metric names collide (`a.b` and `a-b`
/// both map to `a_b`). Collisions stay valid exposition text: within a
/// kind, colliding metrics share one family and each sample carries a
/// `name="<original>"` label so series remain distinct; across kinds,
/// the family name gets a `_counter`/`_gauge`/`_histogram` suffix so no
/// family is declared with two types.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    use crate::metrics::HistogramSnapshot;

    // Unset gauges carry the registry's NaN sentinel; a `NaN` sample is
    // rejected by Prometheus text-format 0.0.4 scrapers, so they are
    // dropped before family grouping (a family whose every gauge is
    // unset vanishes entirely rather than emitting HELP/TYPE with no
    // samples).
    let set_gauges: Vec<(String, f64)> =
        snapshot.gauges.iter().filter(|(_, v)| !v.is_nan()).cloned().collect();

    let counters = prom_families(&snapshot.counters);
    let gauges = prom_families(&set_gauges);
    let histograms = prom_families(&snapshot.histograms);

    // A sanitized name claimed by more than one kind must fork into
    // per-kind families: one name cannot carry two `# TYPE`s.
    let mut kinds: std::collections::BTreeMap<&str, u32> = Default::default();
    for fam in counters.keys().chain(gauges.keys()).chain(histograms.keys()) {
        *kinds.entry(fam).or_insert(0) += 1;
    }
    let family_name = |fam: &str, kind: PromKind| -> String {
        if kinds.get(fam).copied().unwrap_or(0) > 1 {
            format!("{fam}_{}", kind.as_str())
        } else {
            fam.to_owned()
        }
    };
    // HELP text: the original name(s) the family aggregates.
    let help = |originals: &[&str]| originals.join(", ");
    // Sample label: empty for a one-metric family, `{name="orig"}` (or a
    // `name="orig",` prefix inside an existing label set) otherwise.
    let name_label = |orig: &str, solo: bool| -> String {
        if solo {
            String::new()
        } else {
            format!("name=\"{}\"", prom_label_value(orig))
        }
    };

    let mut out = String::new();
    for (fam, members) in &counters {
        let n = family_name(fam, PromKind::Counter);
        let originals: Vec<&str> = members.iter().map(|(o, _)| *o).collect();
        let _ = writeln!(out, "# HELP {n} {}", help(&originals));
        let _ = writeln!(out, "# TYPE {n} counter");
        for (orig, value) in members {
            let label = name_label(orig, members.len() == 1);
            if label.is_empty() {
                let _ = writeln!(out, "{n} {value}");
            } else {
                let _ = writeln!(out, "{n}{{{label}}} {value}");
            }
        }
    }
    for (fam, members) in &gauges {
        let n = family_name(fam, PromKind::Gauge);
        let originals: Vec<&str> = members.iter().map(|(o, _)| *o).collect();
        let _ = writeln!(out, "# HELP {n} {}", help(&originals));
        let _ = writeln!(out, "# TYPE {n} gauge");
        for (orig, value) in members {
            let label = name_label(orig, members.len() == 1);
            if label.is_empty() {
                let _ = writeln!(out, "{n} {}", prom_f64(**value));
            } else {
                let _ = writeln!(out, "{n}{{{label}}} {}", prom_f64(**value));
            }
        }
    }
    for (fam, members) in &histograms {
        let n = family_name(fam, PromKind::Histogram);
        let originals: Vec<&str> = members.iter().map(|(o, _)| *o).collect();
        let _ = writeln!(out, "# HELP {n} {}", help(&originals));
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (orig, h) in members {
            let label = name_label(orig, members.len() == 1);
            let prefix = if label.is_empty() { String::new() } else { format!("{label},") };
            let suffix = if label.is_empty() { String::new() } else { format!("{{{label}}}") };
            let mut cum = 0u64;
            for &(i, c) in &h.buckets {
                cum += c;
                let (_, hi) = HistogramSnapshot::bucket_bounds(i);
                let _ = writeln!(out, "{n}_bucket{{{prefix}le=\"{}\"}} {cum}", prom_f64(hi));
            }
            let _ = writeln!(out, "{n}_bucket{{{prefix}le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum{suffix} {}", prom_f64(h.sum));
            let _ = writeln!(out, "{n}_count{suffix} {}", h.count);
        }
    }
    out
}

/// Writes `contents` to `path`, creating parent directories as needed.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_file(path: impl AsRef<Path>, contents: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::span("stage ⋈ C,O", "engine", 100, 2500)
                .tid(1)
                .arg("rows", 42u64)
                .arg("attempt", 0u64),
            Event::instant("node_failure", "engine", 1200).tid(1).arg("attempt", 0u64),
            Event::instant("best_update", "search", 7).arg("cost", 123.5),
        ]
    }

    #[test]
    fn canonical_trace_is_invariant_across_interleavings() {
        // The same logical run, logged under two different thread
        // interleavings and wall clocks.
        let a = vec![
            Event::span("stage", "engine", 100, 900).arg("nodes", 2u64),
            Event::span("attempt", "engine", 110, 300).tid(1).arg("rows", 5u64),
            Event::instant("node_failure", "engine", 200).tid(2).arg("lost_s", 0.25),
            Event::span("attempt", "engine", 210, 600).tid(2).arg("rows", 7u64),
        ];
        let b = vec![
            Event::instant("node_failure", "engine", 4000).tid(2).arg("lost_s", 0.75),
            Event::span("attempt", "engine", 4100, 333).tid(2).arg("rows", 7u64),
            Event::span("attempt", "engine", 3900, 10).tid(1).arg("rows", 5u64),
            Event::span("stage", "engine", 3800, 1000).arg("nodes", 2u64),
        ];
        let ca = canonical_trace(&a);
        let cb = canonical_trace(&b);
        assert_eq!(to_jsonl(&ca), to_jsonl(&cb));
        // Sequence-index timestamps, zero durations, no timing args.
        assert_eq!(ca.iter().map(|e| e.ts_us).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(ca.iter().all(|e| e.dur_us == 0));
        assert!(ca.iter().all(|e| e.args.iter().all(|(k, _)| k != "lost_s")));
        // Track order: tid 0 first, then 1, then 2.
        assert_eq!(ca.iter().map(|e| e.tid).collect::<Vec<_>>(), vec![0, 1, 2, 2]);
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_ignores_blank_lines_and_rejects_garbage() {
        let text = format!("\n{}\n\n", to_jsonl(&sample()));
        assert_eq!(from_jsonl(&text).unwrap().len(), 3);
        assert!(from_jsonl("not json\n").is_err());
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let text = to_chrome_trace(&sample());
        let root: Value = serde_json::from_str(&text).unwrap();
        let events = root.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        let span = &events[0];
        assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(span.get("dur").and_then(Value::as_u64), Some(2500));
        assert_eq!(span.get("ts").and_then(Value::as_u64), Some(100));
        assert_eq!(span.get("tid").and_then(Value::as_u64), Some(1));
        let args = span.get("args").unwrap();
        assert_eq!(args.get("rows").and_then(Value::as_u64), Some(42));
        let instant = &events[1];
        assert_eq!(instant.get("ph").and_then(Value::as_str), Some("i"));
        assert_eq!(instant.get("s").and_then(Value::as_str), Some("t"));
        let f = &events[2];
        assert_eq!(f.get("args").unwrap().get("cost").and_then(Value::as_f64), Some(123.5));
    }

    #[test]
    fn prometheus_export_passes_format_sanity() {
        use crate::metrics::MetricsRegistry;

        let reg = MetricsRegistry::new();
        reg.counter_add("search.memo_hits", 42);
        reg.gauge_set("sim.overhead_pct", 12.5);
        for v in [0.25, 1.0, 1.5, 3.0, 250.0] {
            reg.observe("engine.stage_seconds", v);
        }
        let text = to_prometheus(&reg.snapshot());

        // Exactly one `# TYPE` line per metric, with sanitized names.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        assert_eq!(
            type_lines,
            vec![
                "# TYPE search_memo_hits counter",
                "# TYPE sim_overhead_pct gauge",
                "# TYPE engine_stage_seconds histogram",
            ]
        );
        assert!(text.contains("search_memo_hits 42\n"));
        assert!(text.contains("sim_overhead_pct 12.5\n"));

        // Every exported family carries a HELP line naming the original
        // (unsanitized) metric, immediately before its TYPE line.
        let help_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP ")).collect();
        assert_eq!(
            help_lines,
            vec![
                "# HELP search_memo_hits search.memo_hits",
                "# HELP sim_overhead_pct sim.overhead_pct",
                "# HELP engine_stage_seconds engine.stage_seconds",
            ]
        );
        let lines: Vec<&str> = text.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if l.starts_with("# HELP ") {
                assert!(lines[i + 1].starts_with("# TYPE "), "HELP not followed by TYPE: {l}");
            }
        }

        // Histogram buckets are cumulative and monotone, ending at +Inf
        // with the total count; _sum and _count close the family.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("engine_stage_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.len() >= 2);
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "buckets not monotone: {cums:?}");
        assert_eq!(*cums.last().unwrap(), 5);
        assert!(text.contains("engine_stage_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("engine_stage_seconds_sum 255.75\n"));
        assert!(text.contains("engine_stage_seconds_count 5\n"));
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prom_name("engine.stage_seconds"), "engine_stage_seconds");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a:b-c d"), "a:b_c_d");
        assert_eq!(prom_name(""), "_");
    }

    #[test]
    fn prometheus_export_of_empty_snapshot_is_empty() {
        let snap = MetricsSnapshot::default();
        assert_eq!(to_prometheus(&snap), "");
    }

    /// An unset gauge (the registry's NaN sentinel, reachable in
    /// hand-built or deserialized snapshots) must not serialize as a
    /// `NaN` sample: text-format 0.0.4 scrapers reject it.
    #[test]
    fn prometheus_skips_nan_sentinel_gauges() {
        let mut snap = MetricsSnapshot::default();
        snap.gauges.push(("engine.unset".into(), f64::NAN));
        snap.gauges.push(("engine.set".into(), 2.5));
        let text = to_prometheus(&snap);

        assert!(!text.contains("NaN"), "NaN sample leaked: {text}");
        assert!(text.contains("engine_set 2.5\n"));
        // The all-unset family vanishes entirely — no HELP/TYPE for it.
        assert!(!text.contains("engine_unset"), "unset gauge family leaked: {text}");

        // All-NaN snapshot exports nothing at all.
        let mut snap = MetricsSnapshot::default();
        snap.gauges.push(("only.unset".into(), f64::NAN));
        assert_eq!(to_prometheus(&snap), "");

        // Infinities are representable in the exposition format and stay.
        let mut snap = MetricsSnapshot::default();
        snap.gauges.push(("inf.gauge".into(), f64::INFINITY));
        assert!(to_prometheus(&snap).contains("inf_gauge +Inf\n"));
    }

    /// Distinct metric names that sanitize onto the same family must not
    /// produce duplicate series: within a kind they share one
    /// HELP/TYPE and are told apart by a `name` label.
    #[test]
    fn prometheus_within_kind_collisions_get_name_labels() {
        use crate::metrics::MetricsRegistry;

        let reg = MetricsRegistry::new();
        reg.counter_add("store.put.bytes", 10);
        reg.counter_add("store.put bytes", 32); // both sanitize to store_put_bytes
        let text = to_prometheus(&reg.snapshot());

        assert_eq!(text.matches("# TYPE store_put_bytes counter").count(), 1);
        assert!(text.contains("# HELP store_put_bytes store.put bytes, store.put.bytes\n"));
        assert!(text.contains("store_put_bytes{name=\"store.put bytes\"} 32\n"));
        assert!(text.contains("store_put_bytes{name=\"store.put.bytes\"} 10\n"));
        // No unlabeled (ambiguous) sample remains.
        assert!(!text.contains("\nstore_put_bytes 1"));
    }

    /// A sanitized name claimed by two kinds cannot share one family
    /// (one name, two `# TYPE`s is invalid exposition text): each kind
    /// forks off with a kind suffix.
    #[test]
    fn prometheus_cross_kind_collisions_fork_families() {
        use crate::metrics::MetricsRegistry;

        let reg = MetricsRegistry::new();
        reg.counter_add("engine.retries", 3);
        reg.gauge_set("engine-retries", 1.5); // sanitizes to engine_retries too
        reg.observe("engine retries", 0.5); // and so does this histogram
        let text = to_prometheus(&reg.snapshot());

        assert!(text.contains("# TYPE engine_retries_counter counter\n"));
        assert!(text.contains("# TYPE engine_retries_gauge gauge\n"));
        assert!(text.contains("# TYPE engine_retries_histogram histogram\n"));
        assert!(!text.contains("# TYPE engine_retries counter"));
        assert!(!text.contains("# TYPE engine_retries gauge"));
        assert!(text.contains("engine_retries_counter 3\n"));
        assert!(text.contains("engine_retries_gauge 1.5\n"));
        assert!(text.contains("engine_retries_histogram_count 1\n"));
        // No family name is declared with two types.
        let mut families = std::collections::HashMap::new();
        for l in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let mut parts = l.split(' ').skip(2);
            let fam = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(families.insert(fam, kind).is_none(), "family {fam} declared twice");
        }
    }

    /// Histograms in a colliding family keep the `name` label on every
    /// series (`_bucket`, `_sum`, `_count`) alongside `le`.
    #[test]
    fn prometheus_histogram_collisions_label_all_series() {
        use crate::metrics::MetricsRegistry;

        let reg = MetricsRegistry::new();
        reg.observe("put.seconds", 1.0);
        reg.observe("put-seconds", 4.0);
        let text = to_prometheus(&reg.snapshot());

        assert_eq!(text.matches("# TYPE put_seconds histogram").count(), 1);
        assert!(text.contains("put_seconds_bucket{name=\"put-seconds\",le=\"8\"} 1\n"));
        assert!(text.contains("put_seconds_bucket{name=\"put.seconds\",le=\"2\"} 1\n"));
        assert!(text.contains("put_seconds_bucket{name=\"put-seconds\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("put_seconds_sum{name=\"put.seconds\"} 1\n"));
        assert!(text.contains("put_seconds_count{name=\"put-seconds\"} 1\n"));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = std::env::temp_dir().join("ftpde_obs_test_export");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/trace.json");
        write_file(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
