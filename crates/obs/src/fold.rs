//! Pure folds of a recorded trace: one row per query, and the metrics.
//!
//! The engine and the simulator record every fact about a run once, in
//! order, through the caller's [`crate::Recorder`]. Every count is
//! computed here from that trace, so a query row, a metric and the run's
//! report describe the same facts. [`fold`] makes one pass and returns
//! both views: [`TraceFold::queries`] (`ftpde obs --format queries`) and
//! [`TraceFold::metrics`] (`--format prom` and `--format summary`).
//!
//! A trace is input from outside the program: a cut, reordered or
//! foreign trace folds without panicking. A query whose terminal event
//! is missing reads as [`QueryState::Incomplete`].

use crate::calibrate::{arg_f64, arg_u64};
use crate::event::{Event, Phase};
use crate::metrics::Metrics;
use crate::report::Summary;

/// The categories whose events make up queries: the engine's and the
/// simulator's shared vocabulary.
const QUERY_CATS: [&str; 2] = ["engine", "sim"];

/// The search's closing span arguments and the counters they sum into.
/// `configs_enumerated` is derived: every enumerated configuration was
/// either explored or stopped by rule 3.
const SEARCH_COUNTERS: [(&str, &str); 11] = [
    ("plans", "search.plans_considered_total"),
    ("configs_unpruned", "search.configs_unpruned_total"),
    ("configs_explored", "search.configs_explored_total"),
    ("configs_pruned_rule1", "search.configs_pruned_rule1_total"),
    ("configs_pruned_rule2", "search.configs_pruned_rule2_total"),
    ("rule3_stops", "search.rule3_stops_total"),
    ("memo_hits", "search.memo_hits_total"),
    ("floor_stops", "search.rule3_floor_stops_total"),
    ("paths_examined", "search.paths_examined_total"),
    ("paths_costed", "search.paths_costed_total"),
    ("best_updates", "search.best_updates_total"),
];

/// The `store_stats` arguments exposed as `store.*` gauges. The instant
/// carries the backend's lifetime totals, so a later one supersedes an
/// earlier one.
const STORE_GAUGES: [&str; 9] = [
    "logical_rows_written",
    "physical_rows_written",
    "physical_bytes_written",
    "bytes_read",
    "fsyncs",
    "segments_committed",
    "corrupt_segments",
    "write_bytes_per_s",
    "read_bytes_per_s",
];

/// How a query in a trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryState {
    /// Closed by `query_completed`.
    Completed,
    /// Closed by `query_aborted`: the coarse restart limit was hit.
    Aborted,
    /// The trace ends before the query's terminal event.
    #[default]
    Incomplete,
}

impl QueryState {
    /// The state's lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryState::Completed => "completed",
            QueryState::Aborted => "aborted",
            QueryState::Incomplete => "incomplete",
        }
    }
}

/// One query of a trace: its events from the end of the previous query
/// of the same category up to its own `query_completed` or
/// `query_aborted`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryRow {
    /// The recording layer: `"engine"` or `"sim"`.
    pub cat: &'static str,
    /// How the query ended.
    pub state: QueryState,
    /// `stage N` spans: stage executions, failed ones and re-runs
    /// included.
    pub stages_executed: u64,
    /// `stage_skipped` instants: stages resumed from the store.
    pub stages_skipped: u64,
    /// Fine-grained re-executions: `redeploy` instants. The simulator
    /// records no `redeploy`; its `query_completed` carries the count.
    pub retries: u64,
    /// Coarse restarts: `query_restart` instants plus the failure that
    /// aborted the query, as `RunReport::query_restarts` counts them.
    pub restarts: u64,
    /// `input_rewind` instants.
    pub input_rewinds: u64,
    /// `segment_corrupt` instants.
    pub segments_corrupt: u64,
    /// Logical rows written to the store: the terminal event's
    /// `rows_materialized` argument (`query_completed` or
    /// `query_aborted`), so 0 for an incomplete query or a terminal that
    /// does not carry it.
    pub rows_materialized: u64,
    /// Physical bytes written to the store: the sum of the `materialize`
    /// instants' `bytes`.
    pub bytes_materialized: u64,
    /// Seconds from the query's start to its terminal event (for an
    /// incomplete query, to the end of its last event).
    pub elapsed_s: f64,
    /// The cost model's predicted runtime, from `plan_estimate`.
    pub predicted_s: Option<f64>,
}

impl QueryRow {
    /// Adds one of the query's events.
    fn add(&mut self, e: &Event) {
        let u = |key| arg_u64(e, key).unwrap_or(0);
        match e.name.as_str() {
            "plan_estimate" => self.predicted_s = arg_f64(e, "pred_runtime_s"),
            "stage_skipped" => self.stages_skipped += 1,
            "redeploy" => self.retries += 1,
            "query_restart" => self.restarts += 1,
            "input_rewind" => self.input_rewinds += 1,
            "segment_corrupt" => self.segments_corrupt += 1,
            "materialize" => self.bytes_materialized += u("bytes"),
            "query_completed" => {
                self.state = QueryState::Completed;
                self.rows_materialized = u("rows_materialized");
                if e.cat == "sim" {
                    self.retries = u("node_retries");
                }
            }
            "query_aborted" => {
                self.state = QueryState::Aborted;
                self.rows_materialized = u("rows_materialized");
                self.restarts += 1;
            }
            name if e.phase == Phase::Span && name.starts_with("stage ") => {
                self.stages_executed += 1;
            }
            _ => {}
        }
        self.elapsed_s = match self.state {
            QueryState::Incomplete => {
                self.elapsed_s.max(e.ts_us.saturating_add(e.dur_us) as f64 / 1e6)
            }
            _ => e.ts_us as f64 / 1e6,
        };
    }

    /// Adds the row to its category's `<cat>.*` metrics.
    fn add_metrics(&self, m: &mut Metrics) {
        let cat = self.cat;
        let mut count = |name: &str, v: u64| m.counter_add(&format!("{cat}.{name}"), v);
        count("queries_total", 1);
        count("queries_aborted_total", u64::from(self.state == QueryState::Aborted));
        count("stages_total", self.stages_executed);
        count("stages_skipped_total", self.stages_skipped);
        count("node_retries_total", self.retries);
        count("query_restarts_total", self.restarts);
        count("input_rewinds_total", self.input_rewinds);
        count("segments_corrupt_total", self.segments_corrupt);
        if self.state != QueryState::Incomplete {
            m.observe(&format!("{cat}.query_seconds"), self.elapsed_s);
        }
    }
}

/// Both folds of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceFold {
    /// One row per query, in the order the queries started.
    pub queries: Vec<QueryRow>,
    /// Per-category `engine.*` and `sim.*` sums over the rows and stage
    /// spans, the search's `search.*` counters, the last `store_stats`
    /// as `store.*` gauges, and the `trace.*` families.
    pub metrics: Metrics,
}

impl TraceFold {
    /// The query rows as a table.
    pub fn queries_summary(&self) -> Summary {
        let rows: Vec<Vec<String>> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                vec![
                    i.to_string(),
                    q.cat.to_owned(),
                    q.state.as_str().to_owned(),
                    q.stages_executed.to_string(),
                    q.stages_skipped.to_string(),
                    q.retries.to_string(),
                    q.restarts.to_string(),
                    q.input_rewinds.to_string(),
                    q.segments_corrupt.to_string(),
                    q.rows_materialized.to_string(),
                    q.bytes_materialized.to_string(),
                    format!("{:.3}", q.elapsed_s),
                    q.predicted_s.map_or_else(|| "-".into(), |p| format!("{p:.3}")),
                ]
            })
            .collect();
        let mut out = Summary::new();
        out.banner("Queries");
        if rows.is_empty() {
            out.line("no queries in the trace");
        } else {
            out.table(
                &[
                    "#",
                    "cat",
                    "state",
                    "stages",
                    "skipped",
                    "retries",
                    "restarts",
                    "rewinds",
                    "corrupt",
                    "mat rows",
                    "mat bytes",
                    "elapsed s",
                    "pred s",
                ],
                &rows,
            );
        }
        out
    }
}

/// Folds a trace, in file order, into its query rows and metrics.
pub fn fold(events: &[Event]) -> TraceFold {
    let mut out = TraceFold::default();
    // The row each query category has open, as an index into `queries`.
    let mut open: Vec<(&str, usize)> = Vec::new();
    for e in events {
        let m = &mut out.metrics;
        m.counter_add(&format!("trace.events.{}", e.cat), 1);
        if e.phase == Phase::Span {
            m.observe(&format!("trace.span_seconds.{}", e.cat), e.dur_us as f64 / 1e6);
        }
        match e.name.as_str() {
            "node_failure" => m.counter_add(&format!("trace.failures.{}", e.cat), 1),
            "store_stats" => {
                for key in STORE_GAUGES {
                    if let Some(v) = arg_f64(e, key) {
                        m.gauge_set(&format!("store.{key}"), v);
                    }
                }
                if let Some(v) = arg_f64(e, "write_bytes_per_s") {
                    m.observe("store.write_throughput_bytes_per_s", v);
                }
            }
            "find_best_ft_plan" if e.cat == "search" => {
                m.counter_add("search.runs_total", 1);
                for (key, name) in SEARCH_COUNTERS {
                    m.counter_add(name, arg_u64(e, key).unwrap_or(0));
                }
                let enumerated = arg_u64(e, "configs_explored").unwrap_or(0)
                    + arg_u64(e, "rule3_stops").unwrap_or(0);
                m.counter_add("search.configs_enumerated_total", enumerated);
                m.observe("search.seconds", e.dur_us as f64 / 1e6);
            }
            _ => {}
        }

        let Some(&cat) = QUERY_CATS.iter().find(|&&c| c == e.cat) else { continue };
        if e.phase == Phase::Span && e.name.starts_with("stage ") {
            m.observe(&format!("{cat}.stage_seconds"), e.dur_us as f64 / 1e6);
        }
        let k = match open.iter().position(|&(c, _)| c == cat) {
            Some(k) => k,
            None => {
                out.queries.push(QueryRow { cat, ..QueryRow::default() });
                open.push((cat, out.queries.len() - 1));
                open.len() - 1
            }
        };
        let row = &mut out.queries[open[k].1];
        row.add(e);
        if row.state != QueryState::Incomplete {
            open.swap_remove(k);
        }
    }
    for row in &out.queries {
        row.add_metrics(&mut out.metrics);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(cat: &str, id: u64, ts: u64, dur: u64) -> Event {
        Event::span(format!("stage {id}"), cat, ts, dur).arg("stage", id)
    }

    /// Two engine queries back to back: a fine-grained run with one
    /// retry, a rewind and a materialization, then a coarse run that
    /// restarts once and aborts.
    fn two_queries() -> Vec<Event> {
        vec![
            Event::instant("plan_estimate", "engine", 0).arg("pred_runtime_s", 0.5),
            Event::instant("node_failure", "engine", 100).tid(2),
            Event::instant("redeploy", "engine", 100).tid(2),
            stage("engine", 1, 0, 400),
            Event::instant("materialize", "engine", 410).arg("rows", 7u64).arg("bytes", 300u64),
            Event::instant("segment_corrupt", "engine", 420),
            Event::instant("input_rewind", "engine", 420),
            Event::instant("stage_skipped", "engine", 430),
            stage("engine", 2, 440, 100),
            Event::instant("store_stats", "engine", 550)
                .arg("fsyncs", 3u64)
                .arg("write_bytes_per_s", 2e6),
            Event::instant("query_completed", "engine", 560).arg("rows_materialized", 21u64),
            stage("engine", 2, 0, 50),
            Event::instant("query_restart", "engine", 60),
            stage("engine", 2, 60, 50),
            Event::instant("query_aborted", "engine", 120)
                .arg("restarts", 2u64)
                .arg("rows_materialized", 9u64),
        ]
    }

    #[test]
    fn each_terminal_closes_one_query_row() {
        let f = fold(&two_queries());
        assert_eq!(f.queries.len(), 2);
        let (a, b) = (&f.queries[0], &f.queries[1]);
        assert_eq!(a.state, QueryState::Completed);
        assert_eq!((a.stages_executed, a.stages_skipped), (2, 1));
        assert_eq!((a.retries, a.restarts), (1, 0));
        assert_eq!((a.input_rewinds, a.segments_corrupt), (1, 1));
        assert_eq!((a.rows_materialized, a.bytes_materialized), (21, 300));
        assert!((a.elapsed_s - 560e-6).abs() < 1e-12);
        assert_eq!(a.predicted_s, Some(0.5));

        assert_eq!(b.state, QueryState::Aborted);
        assert_eq!((b.stages_executed, b.restarts, b.retries), (2, 2, 0));
        assert_eq!((b.rows_materialized, b.predicted_s), (9, None));
    }

    #[test]
    fn engine_metrics_sum_the_rows_and_stage_spans() {
        let m = fold(&two_queries()).metrics;
        assert_eq!(m.counter("engine.queries_total"), 2);
        assert_eq!(m.counter("engine.queries_aborted_total"), 1);
        assert_eq!(m.counter("engine.stages_total"), 4);
        assert_eq!(m.counter("engine.stages_skipped_total"), 1);
        assert_eq!(m.counter("engine.node_retries_total"), 1);
        assert_eq!(m.counter("engine.query_restarts_total"), 2);
        assert_eq!(m.counter("engine.input_rewinds_total"), 1);
        assert_eq!(m.counter("engine.segments_corrupt_total"), 1);
        assert_eq!(m.histogram("engine.query_seconds").map(|h| h.count), Some(2));
        let stages = m.histogram("engine.stage_seconds").unwrap();
        assert_eq!(stages.count, 4);
        assert!((stages.sum - 600e-6).abs() < 1e-12);
        assert_eq!(m.counter("trace.events.engine"), 15);
        assert_eq!(m.counter("trace.failures.engine"), 1);
        assert_eq!(m.gauge("store.fsyncs"), Some(3.0));
        assert_eq!(m.gauge("store.write_bytes_per_s"), Some(2e6));
        assert_eq!(m.histogram("store.write_throughput_bytes_per_s").map(|h| h.count), Some(1));
    }

    #[test]
    fn search_counters_come_from_the_closing_span() {
        let span = Event::span("find_best_ft_plan", "search", 0, 2_500)
            .arg("plans", 2u64)
            .arg("configs_explored", 5u64)
            .arg("rule3_stops", 7u64)
            .arg("floor_stops", 3u64);
        let f = fold(&[Event::instant("best_update", "search", 10), span]);
        assert!(f.queries.is_empty(), "a search is not a query");
        let m = f.metrics;
        assert_eq!(m.counter("search.runs_total"), 1);
        assert_eq!(m.counter("search.plans_considered_total"), 2);
        assert_eq!(m.counter("search.configs_enumerated_total"), 12);
        assert_eq!(m.counter("search.rule3_floor_stops_total"), 3);
        assert_eq!(m.histogram("search.seconds").and_then(|h| h.max), Some(0.0025));
    }

    #[test]
    fn simulator_retries_come_from_its_terminal_instant() {
        let events = [
            Event::instant("node_failure", "sim", 1_000_000).tid(1),
            stage("sim", 4, 0, 3_000_000),
            Event::instant("query_completed", "sim", 3_000_000)
                .arg("node_retries", 1u64)
                .arg("query_restarts", 0u64),
        ];
        let f = fold(&events);
        assert_eq!(f.queries.len(), 1);
        assert_eq!(f.queries[0].retries, 1);
        assert_eq!(f.metrics.counter("sim.queries_total"), 1);
        assert_eq!(f.metrics.counter("sim.node_retries_total"), 1);
        assert_eq!(f.metrics.histogram("sim.query_seconds").and_then(|h| h.max), Some(3.0));
    }

    #[test]
    fn a_cut_trace_leaves_its_last_query_incomplete() {
        let events = two_queries();
        for cut in 0..events.len() {
            let f = fold(&events[..cut]);
            let finished = events[..cut]
                .iter()
                .filter(|e| e.name == "query_completed" || e.name == "query_aborted")
                .count();
            let incomplete = f.queries.iter().filter(|q| q.state == QueryState::Incomplete).count();
            assert_eq!(f.queries.len() - incomplete, finished, "cut at {cut}");
            assert!(incomplete <= 1, "cut at {cut}");
            let seconds = f.metrics.histogram("engine.query_seconds").map_or(0, |h| h.count);
            assert_eq!(seconds as usize, finished, "only finished queries have a duration");
        }
        let f = fold(&events[..4]);
        assert_eq!(f.queries[0].state, QueryState::Incomplete);
        assert!((f.queries[0].elapsed_s - 400e-6).abs() < 1e-12, "the last event's end");
    }

    /// Foreign input: arguments of the wrong type count as absent, and a
    /// span that ends past `u64::MAX` µs saturates.
    #[test]
    fn a_foreign_trace_folds_without_panicking() {
        let events = [
            Event::span("stage 1", "engine", u64::MAX, 10),
            Event::instant("materialize", "engine", 0).arg("bytes", "many"),
            Event::instant("query_completed", "engine", 1).arg("rows_materialized", -3i64),
            Event::span("find_best_ft_plan", "search", 0, 0).arg("plans", 1.5),
        ];
        let f = fold(&events);
        assert_eq!(f.queries.len(), 1);
        assert_eq!((f.queries[0].bytes_materialized, f.queries[0].rows_materialized), (0, 0));
        assert_eq!(f.metrics.counter("search.plans_considered_total"), 0);
        assert_eq!(fold(&events[..1]).queries[0].elapsed_s, u64::MAX as f64 / 1e6);
    }

    #[test]
    fn the_rows_render_as_one_table() {
        let text = fold(&two_queries()).queries_summary().render();
        assert!(text.contains("==== Queries ===="));
        assert!(text.contains("completed") && text.contains("aborted"), "{text}");
        assert!(fold(&[]).queries_summary().render().contains("no queries in the trace"));
    }
}
