//! Serde round-trip guarantees for the exported observability types:
//! trace events (through JSON and the JSONL exporter) and metrics
//! survive serialize → deserialize without loss.

use ftpde_obs::{export, ArgValue, Event, Histogram, Metrics, Phase};

fn sample_events() -> Vec<Event> {
    vec![
        Event::span("stage 3", "engine", 1_000, 2_500)
            .tid(2)
            .arg("stage", 3u64)
            .arg("node", 1u64)
            .arg("ok", true),
        Event::instant("node_failure", "engine", 3_141)
            .tid(1)
            .arg("lost_s", 4.5f64)
            .arg("label", "mid-op")
            .arg("delta", -7i64),
        Event::instant("query_completed", "sim", 9_999),
    ]
}

#[test]
fn events_round_trip_through_json() {
    for ev in sample_events() {
        let text = serde_json::to_string(&ev).unwrap();
        let back: Event = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ev);
    }
}

#[test]
fn events_round_trip_through_the_jsonl_exporter() {
    let events = sample_events();
    let text = export::to_jsonl(&events);
    assert_eq!(text.lines().count(), events.len());
    let back = export::from_jsonl(&text).unwrap();
    assert_eq!(back, events);
    // Every arg value variant survived.
    let failure = &back[1];
    assert_eq!(failure.phase, Phase::Instant);
    assert_eq!(failure.get_arg("lost_s"), Some(&ArgValue::F64(4.5)));
    assert_eq!(failure.get_arg("label"), Some(&ArgValue::Str("mid-op".into())));
    assert_eq!(failure.get_arg("delta"), Some(&ArgValue::I64(-7)));
    assert_eq!(back[0].get_arg("ok"), Some(&ArgValue::Bool(true)));
    assert_eq!(back[0].get_arg("stage"), Some(&ArgValue::U64(3)));
}

#[test]
fn metrics_round_trip_through_json() {
    let mut reg = Metrics::new();
    reg.counter_add("search.memo_hits", 42);
    reg.counter_add("engine.node_retries", 3);
    reg.gauge_set("sim.overhead_pct", 12.5);
    for v in [0.25, 1.0, 3.0, 250.0] {
        reg.observe("engine.stage_seconds", v);
    }
    let text = serde_json::to_string(&reg).unwrap();
    let back: Metrics = serde_json::from_str(&text).unwrap();
    assert_eq!(back, reg);
    assert_eq!(back.counter("search.memo_hits"), 42);
    assert_eq!(back.gauge("sim.overhead_pct"), Some(12.5));
    let h = back.histogram("engine.stage_seconds").unwrap();
    assert_eq!(h.count, 4);
    assert_eq!(h.mean(), reg.histogram("engine.stage_seconds").unwrap().mean());
}

#[test]
fn metrics_are_always_json_safe() {
    let mut reg = Metrics::new();
    reg.observe("h", 1.0);
    let (_, h) = &reg.histograms[0];
    assert!(h.min.unwrap().is_finite() && h.max.unwrap().is_finite());
    let back: Metrics = serde_json::from_str(&serde_json::to_string(&reg).unwrap()).unwrap();
    assert_eq!(back, reg);
}

#[test]
fn empty_histogram_round_trips_through_json() {
    // A never-observed histogram used to carry ±inf sentinels that became
    // `null` under JSON and failed to deserialize; min/max are now
    // `Option<f64>` so the empty state survives the round trip.
    let empty = Histogram::empty();
    assert_eq!(empty.mean(), None);
    assert_eq!(empty.quantile(0.5), None);
    let text = serde_json::to_string(&empty).unwrap();
    let back: Histogram = serde_json::from_str(&text).unwrap();
    assert_eq!(back, empty);
    assert_eq!(back.min, None);
    assert_eq!(back.max, None);
}
