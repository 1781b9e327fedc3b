//! Cost-model calibration: joins the *predicted* side of a trace (stage
//! spans tagged with the cost model's per-stage estimates, a
//! `plan_estimate` instant carrying the dominant-path cost) against the
//! *observed* side (span durations, failure instants, query completion)
//! and reports how well the model's Eq. 1–8 predictions match reality.
//!
//! The join is purely over event arguments — producers tag their stage
//! spans with `pred_run_s` / `pred_mat_s` / `pred_rec_s` / `pred_cost_s`
//! when they hold an estimate, so a recorded JSONL trace is
//! self-contained and can be calibrated offline (`ftpde obs --trace`).
//!
//! Error convention: **signed relative error** `(observed − predicted) /
//! predicted`. Positive means the model under-predicted (reality was
//! slower), negative means it over-predicted.

use serde::{Deserialize, Serialize};

use crate::event::{ArgValue, Event, Phase};
use crate::metrics::Metrics;
use crate::report::Summary;

/// Below this predicted magnitude a relative error is meaningless and the
/// observation is dropped from the distributions.
const MIN_PREDICTED_S: f64 = 1e-9;

pub(crate) fn arg_f64(e: &Event, key: &str) -> Option<f64> {
    match e.get_arg(key)? {
        ArgValue::F64(v) => Some(*v),
        ArgValue::U64(v) => Some(*v as f64),
        ArgValue::I64(v) => Some(*v as f64),
        _ => None,
    }
}

pub(crate) fn arg_u64(e: &Event, key: &str) -> Option<u64> {
    match e.get_arg(key)? {
        ArgValue::U64(v) => Some(*v),
        ArgValue::I64(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

/// Distribution statistics over a set of signed errors. Quantiles are
/// exact (computed from the sorted values, linearly interpolated), not
/// bucketed approximations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    /// Number of observations.
    pub count: u64,
    /// Mean signed error — the model's *bias* (positive: under-predicts).
    pub bias: f64,
    /// Mean absolute error.
    pub mean_abs: f64,
    /// Median signed error.
    pub p50: f64,
    /// 90th percentile signed error.
    pub p90: f64,
    /// 99th percentile signed error.
    pub p99: f64,
    /// Smallest signed error.
    pub min: f64,
    /// Largest signed error.
    pub max: f64,
}

impl ErrorStats {
    /// Computes stats over `values`, `None` when empty.
    pub fn from_values(values: &[f64]) -> Option<ErrorStats> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
        let n = sorted.len();
        let quantile = |q: f64| -> f64 {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + frac * (sorted[hi] - sorted[lo])
        };
        let sum: f64 = sorted.iter().sum();
        let abs_sum: f64 = sorted.iter().map(|v| v.abs()).sum();
        Some(ErrorStats {
            count: n as u64,
            bias: sum / n as f64,
            mean_abs: abs_sum / n as f64,
            p50: quantile(0.5),
            p90: quantile(0.9),
            p99: quantile(0.99),
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// Drift score in `[-1, 1]`: `bias / mean_abs`. `+1` means every
    /// error is an under-prediction, `-1` every error an over-prediction,
    /// `0` a model whose misses cancel out. `None` when all errors are
    /// exactly zero (a perfectly calibrated model has no drift).
    pub fn drift(&self) -> Option<f64> {
        (self.mean_abs > 0.0).then(|| self.bias / self.mean_abs)
    }
}

/// Where a stage's prediction error comes from: the Eq. 8 decomposition
/// `T(c) = tr + tm + a·(w + MTTR)` gives three predicted components;
/// observed recovery is measured from failure instants, and the
/// runtime/materialization residual is split by predicted share.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BlameBreakdown {
    /// Error attributed to the runtime cost `tr(c)` (seconds).
    pub runtime_s: f64,
    /// Error attributed to the materialization cost `tm(c)` (seconds).
    pub materialization_s: f64,
    /// Error attributed to the recovery term `a(c)·(w(c)+MTTR)` (seconds).
    pub recovery_s: f64,
}

impl BlameBreakdown {
    fn add(&mut self, other: &BlameBreakdown) {
        self.runtime_s += other.runtime_s;
        self.materialization_s += other.materialization_s;
        self.recovery_s += other.recovery_s;
    }

    /// Total signed error (sum of the three components), seconds.
    pub fn total_s(&self) -> f64 {
        self.runtime_s + self.materialization_s + self.recovery_s
    }
}

/// One stage span joined against its predicted estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCalibration {
    /// Producing layer (`"sim"`, `"engine"`).
    pub cat: String,
    /// Stage id: the plan operator id of the stage's root, as both the
    /// simulator and the engine name it.
    pub stage: u64,
    /// Predicted total stage cost `T(c)` — `tr + tm + a·(w + MTTR)`.
    pub predicted_s: f64,
    /// Observed stage wall time (span duration).
    pub observed_s: f64,
    /// Predicted runtime component `tr(c)`.
    pub pred_run_s: f64,
    /// Predicted materialization component `tm(c)`.
    pub pred_mat_s: f64,
    /// Predicted recovery component `a(c)·(w(c)+MTTR)`.
    pub pred_rec_s: f64,
    /// Observed recovery time (repair + lost work over this stage's
    /// failure instants).
    pub observed_recovery_s: f64,
    /// Failure instants attributed to this stage.
    pub failures: u64,
    /// `true` when the stage lies on the predicted dominant path.
    pub dominant: bool,
    /// Signed absolute error `observed − predicted`, seconds.
    pub error_s: f64,
    /// Signed relative error `(observed − predicted) / predicted`;
    /// `None` when the prediction is too small to divide by.
    pub rel_error: Option<f64>,
    /// The error split into runtime / materialization / recovery blame.
    pub blame: BlameBreakdown,
}

/// Whole-query prediction joined against the observed completion time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryCalibration {
    /// Producing layer.
    pub cat: String,
    /// Predicted dominant-path cost `T_Pt` under failures.
    pub predicted_s: f64,
    /// Predicted failure-free dominant-path runtime, if tagged.
    pub predicted_runtime_s: Option<f64>,
    /// Observed completion time (timestamp of `query_completed` /
    /// `query_aborted`).
    pub observed_s: f64,
    /// `true` when the query aborted instead of completing.
    pub aborted: bool,
    /// Signed relative error; `None` for tiny predictions.
    pub rel_error: Option<f64>,
}

/// The calibration join of one recorded trace: per-stage and per-query
/// predicted-vs-observed comparisons plus aggregate error statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Stage-level comparisons, in trace order.
    pub stages: Vec<StageCalibration>,
    /// Query-level comparisons, one per producing layer.
    pub queries: Vec<QueryCalibration>,
    /// Measured materialization throughput (bytes/s to durable storage)
    /// from the trace's last `store_stats` instant — the *observed*
    /// `tm(o)` rate. When present, materialization blame can be grounded
    /// against actual storage speed instead of the model's assumed
    /// constant.
    pub measured_tm_bytes_per_s: Option<f64>,
}

impl CalibrationReport {
    /// Builds the report from a recorded event stream.
    ///
    /// Joins three event shapes, all matched by argument — event order
    /// does not matter:
    ///
    /// - **Stage spans** carrying a `stage` arg plus `pred_run_s` /
    ///   `pred_mat_s` / `pred_rec_s` prediction tags (untagged spans are
    ///   skipped — there is nothing to compare against).
    /// - **`node_failure` instants**: attributed to the tagged span of the
    ///   same category and stage whose time interval contains the
    ///   failure's timestamp (falling back to the first span of that
    ///   stage). Observed recovery per failure is `lost_s` plus, when
    ///   present, the `resumes_at_s − ts` repair window.
    /// - **`plan_estimate` instants** (`pred_cost_s`, `pred_runtime_s`)
    ///   paired with the category's `query_completed` / `query_aborted`
    ///   timestamp.
    ///
    /// Additionally, the last `store_stats` instant carrying a
    /// `write_bytes_per_s` arg (emitted by the engine's store-backed
    /// runs) supplies [`CalibrationReport::measured_tm_bytes_per_s`].
    pub fn from_events(events: &[Event]) -> CalibrationReport {
        let mut stages: Vec<StageCalibration> = Vec::new();
        // Span intervals for failure attribution, parallel to `stages`.
        let mut intervals: Vec<(u64, u64)> = Vec::new();

        for e in events {
            if e.phase != Phase::Span {
                continue;
            }
            let (Some(stage), Some(run), Some(mat), Some(rec)) = (
                arg_u64(e, "stage"),
                arg_f64(e, "pred_run_s"),
                arg_f64(e, "pred_mat_s"),
                arg_f64(e, "pred_rec_s"),
            ) else {
                continue;
            };
            let predicted = arg_f64(e, "pred_cost_s").unwrap_or(run + mat + rec);
            let dominant = matches!(e.get_arg("dominant"), Some(ArgValue::Bool(true)));
            stages.push(StageCalibration {
                cat: e.cat.clone(),
                stage,
                predicted_s: predicted,
                observed_s: e.dur_us as f64 / 1e6,
                pred_run_s: run,
                pred_mat_s: mat,
                pred_rec_s: rec,
                observed_recovery_s: 0.0,
                failures: 0,
                dominant,
                error_s: 0.0,
                rel_error: None,
                blame: BlameBreakdown::default(),
            });
            intervals.push((e.ts_us, e.ts_us + e.dur_us));
        }

        for e in events {
            if e.phase != Phase::Instant || e.name != "node_failure" {
                continue;
            }
            let Some(stage) = arg_u64(e, "stage") else { continue };
            let lost = arg_f64(e, "lost_s").unwrap_or(0.0);
            let repair =
                arg_f64(e, "resumes_at_s").map_or(0.0, |r| (r - e.ts_us as f64 / 1e6).max(0.0));
            let matching = |s: &StageCalibration| s.cat == e.cat && s.stage == stage;
            let idx = stages
                .iter()
                .enumerate()
                .position(|(i, s)| {
                    matching(s) && intervals[i].0 <= e.ts_us && e.ts_us <= intervals[i].1
                })
                .or_else(|| stages.iter().position(matching));
            if let Some(i) = idx {
                stages[i].failures += 1;
                stages[i].observed_recovery_s += lost + repair;
            }
        }

        for s in &mut stages {
            s.error_s = s.observed_s - s.predicted_s;
            s.rel_error = (s.predicted_s > MIN_PREDICTED_S).then(|| s.error_s / s.predicted_s);
            // Recovery blame is directly measurable; the residual is split
            // between runtime and materialization by predicted share.
            let recovery = s.observed_recovery_s - s.pred_rec_s;
            let residual = s.error_s - recovery;
            let base = s.pred_run_s + s.pred_mat_s;
            let run_share = if base > 0.0 { s.pred_run_s / base } else { 1.0 };
            s.blame = BlameBreakdown {
                runtime_s: residual * run_share,
                materialization_s: residual * (1.0 - run_share),
                recovery_s: recovery,
            };
        }

        // Query-level join: per category, the last plan_estimate and the
        // last query termination instant.
        let mut queries: Vec<QueryCalibration> = Vec::new();
        let cats: Vec<&str> = {
            let mut seen: Vec<&str> = Vec::new();
            for e in events {
                if e.name == "plan_estimate" && !seen.contains(&e.cat.as_str()) {
                    seen.push(&e.cat);
                }
            }
            seen
        };
        for cat in cats {
            let est = events
                .iter()
                .rev()
                .find(|e| e.cat == cat && e.name == "plan_estimate")
                .expect("cat came from a plan_estimate event");
            let Some(predicted) = arg_f64(est, "pred_cost_s") else { continue };
            let done = events.iter().rev().find(|e| {
                e.cat == cat && (e.name == "query_completed" || e.name == "query_aborted")
            });
            let Some(done) = done else { continue };
            let observed = done.ts_us as f64 / 1e6;
            queries.push(QueryCalibration {
                cat: cat.to_owned(),
                predicted_s: predicted,
                predicted_runtime_s: arg_f64(est, "pred_runtime_s"),
                observed_s: observed,
                aborted: done.name == "query_aborted",
                rel_error: (predicted > MIN_PREDICTED_S)
                    .then(|| (observed - predicted) / predicted),
            });
        }

        let measured_tm_bytes_per_s = events
            .iter()
            .rev()
            .filter(|e| e.name == "store_stats")
            .find_map(|e| arg_f64(e, "write_bytes_per_s"))
            .filter(|v| *v > 0.0);

        CalibrationReport { stages, queries, measured_tm_bytes_per_s }
    }

    /// Signed relative errors of all comparable stages.
    pub fn stage_rel_errors(&self) -> Vec<f64> {
        self.stages.iter().filter_map(|s| s.rel_error).collect()
    }

    /// Error statistics over the stage-level relative errors.
    pub fn stage_error_stats(&self) -> Option<ErrorStats> {
        ErrorStats::from_values(&self.stage_rel_errors())
    }

    /// Error statistics over the query-level relative errors.
    pub fn query_error_stats(&self) -> Option<ErrorStats> {
        let errors: Vec<f64> = self.queries.iter().filter_map(|q| q.rel_error).collect();
        ErrorStats::from_values(&errors)
    }

    /// Aggregate blame across all stages (seconds of signed error per
    /// cost-model term).
    pub fn blame(&self) -> BlameBreakdown {
        let mut total = BlameBreakdown::default();
        for s in &self.stages {
            total.add(&s.blame);
        }
        total
    }

    /// Stage-level drift score (see [`ErrorStats::drift`]).
    pub fn drift_score(&self) -> Option<f64> {
        self.stage_error_stats().and_then(|s| s.drift())
    }

    /// Adds the report to `reg` as gauges and histograms, so the
    /// Prometheus exporter can serve calibration alongside the trace's
    /// metrics.
    ///
    /// Signed relative errors do not fit the log-bucketed (positive-only)
    /// histograms directly, so magnitudes are split by sign:
    /// `calibration.stage_rel_error_over` holds under-predictions
    /// (observed > predicted), `..._under` holds over-predictions.
    pub fn export_metrics(&self, reg: &mut Metrics) {
        reg.gauge_set("calibration.stage_count", self.stages.len() as f64);
        reg.gauge_set("calibration.query_count", self.queries.len() as f64);
        if let Some(stats) = self.stage_error_stats() {
            reg.gauge_set("calibration.stage_rel_error_bias", stats.bias);
            reg.gauge_set("calibration.stage_rel_error_mean_abs", stats.mean_abs);
            reg.gauge_set("calibration.stage_rel_error_p50", stats.p50);
            reg.gauge_set("calibration.stage_rel_error_p90", stats.p90);
            reg.gauge_set("calibration.stage_rel_error_p99", stats.p99);
            if let Some(d) = stats.drift() {
                reg.gauge_set("calibration.stage_drift", d);
            }
        }
        if let Some(stats) = self.query_error_stats() {
            reg.gauge_set("calibration.query_rel_error_bias", stats.bias);
            reg.gauge_set("calibration.query_rel_error_p50", stats.p50);
        }
        let blame = self.blame();
        reg.gauge_set("calibration.blame_runtime_s", blame.runtime_s);
        reg.gauge_set("calibration.blame_materialization_s", blame.materialization_s);
        reg.gauge_set("calibration.blame_recovery_s", blame.recovery_s);
        if let Some(tm) = self.measured_tm_bytes_per_s {
            reg.gauge_set("calibration.measured_tm_bytes_per_s", tm);
        }
        for err in self.stage_rel_errors() {
            if err > 0.0 {
                reg.observe("calibration.stage_rel_error_over", err);
            } else if err < 0.0 {
                reg.observe("calibration.stage_rel_error_under", -err);
            }
        }
    }

    /// Renders the report as a plain-text [`Summary`].
    pub fn to_summary(&self) -> Summary {
        let pct = |v: Option<f64>| match v {
            Some(v) => format!("{:+.1}%", v * 100.0),
            None => "-".into(),
        };
        let secs = |v: f64| format!("{v:.3}");

        let mut out = Summary::new();
        out.banner("Calibration: predicted vs observed");
        if self.stages.is_empty() && self.queries.is_empty() {
            out.line("no prediction-tagged events in trace");
            return out;
        }
        if !self.stages.is_empty() {
            let rows: Vec<Vec<String>> = self
                .stages
                .iter()
                .map(|s| {
                    vec![
                        s.cat.clone(),
                        s.stage.to_string(),
                        if s.dominant { "*".into() } else { "".into() },
                        secs(s.predicted_s),
                        secs(s.observed_s),
                        pct(s.rel_error),
                        s.failures.to_string(),
                        secs(s.pred_rec_s),
                        secs(s.observed_recovery_s),
                    ]
                })
                .collect();
            out.table(
                &[
                    "layer", "stage", "dom", "pred(s)", "obs(s)", "rel err", "fails", "rec pred",
                    "rec obs",
                ],
                &rows,
            );
            if let Some(stats) = self.stage_error_stats() {
                out.line(format!(
                    "stage rel error: p50 {} · p90 {} · p99 {} · bias {} ({} stages)",
                    pct(Some(stats.p50)),
                    pct(Some(stats.p90)),
                    pct(Some(stats.p99)),
                    pct(Some(stats.bias)),
                    stats.count,
                ));
                match stats.drift() {
                    Some(d) => out.kv("drift score", format!("{d:+.2}")),
                    None => out.kv("drift score", "0 (perfectly calibrated)"),
                };
            }
            let blame = self.blame();
            out.line(format!(
                "blame: runtime {:+.3}s · materialization {:+.3}s · recovery {:+.3}s",
                blame.runtime_s, blame.materialization_s, blame.recovery_s,
            ));
        }
        if let Some(tm) = self.measured_tm_bytes_per_s {
            out.kv("measured tm (store write)", format!("{:.2} MB/s", tm / 1e6));
        }
        if !self.queries.is_empty() {
            let rows: Vec<Vec<String>> = self
                .queries
                .iter()
                .map(|q| {
                    vec![
                        q.cat.clone(),
                        secs(q.predicted_s),
                        secs(q.observed_s),
                        pct(q.rel_error),
                        if q.aborted { "ABORTED".into() } else { "ok".into() },
                    ]
                })
                .collect();
            out.table(&["layer", "pred T_Pt(s)", "obs(s)", "rel err", "outcome"], &rows);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged_span(
        cat: &str,
        stage: u64,
        ts_us: u64,
        dur_us: u64,
        run: f64,
        mat: f64,
        rec: f64,
    ) -> Event {
        Event::span(format!("stage {stage}"), cat, ts_us, dur_us)
            .arg("stage", stage)
            .arg("pred_run_s", run)
            .arg("pred_mat_s", mat)
            .arg("pred_rec_s", rec)
            .arg("pred_cost_s", run + mat + rec)
    }

    #[test]
    fn error_stats_pin_quantiles_exactly() {
        let values = [-0.5, -0.1, 0.0, 0.1, 0.5];
        let s = ErrorStats::from_values(&values).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.min, -0.5);
        assert_eq!(s.max, 0.5);
        assert!((s.bias - 0.0).abs() < 1e-12);
        assert!((s.mean_abs - 0.24).abs() < 1e-12);
        assert_eq!(s.drift(), Some(0.0));
        assert_eq!(ErrorStats::from_values(&[]), None);
    }

    #[test]
    fn drift_is_signed_fraction_of_mean_abs() {
        let all_under = ErrorStats::from_values(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(all_under.drift(), Some(1.0));
        let all_over = ErrorStats::from_values(&[-0.1, -0.2]).unwrap();
        assert_eq!(all_over.drift(), Some(-1.0));
        let perfect = ErrorStats::from_values(&[0.0, 0.0]).unwrap();
        assert_eq!(perfect.drift(), None);
    }

    #[test]
    fn joins_tagged_spans_and_ignores_untagged() {
        let events = vec![
            tagged_span("sim", 0, 0, 2_000_000, 1.5, 0.5, 0.0),
            // Untagged span: no prediction to compare against.
            Event::span("stage 1", "sim", 2_000_000, 1_000_000).arg("stage", 1u64),
            Event::instant("query_completed", "sim", 3_000_000),
        ];
        let report = CalibrationReport::from_events(&events);
        assert_eq!(report.stages.len(), 1);
        let s = &report.stages[0];
        assert_eq!(s.stage, 0);
        assert_eq!(s.predicted_s, 2.0);
        assert_eq!(s.observed_s, 2.0);
        assert_eq!(s.rel_error, Some(0.0));
        assert_eq!(s.error_s, 0.0);
    }

    #[test]
    fn failures_are_attributed_to_their_containing_span() {
        let events = vec![
            tagged_span("sim", 0, 0, 3_000_000, 1.0, 0.0, 0.5),
            tagged_span("sim", 1, 3_000_000, 1_000_000, 1.0, 0.0, 0.0),
            // Failure inside stage 0's interval: lost 1s, repair 0.5s.
            Event::instant("node_failure", "sim", 1_000_000)
                .arg("stage", 0u64)
                .arg("node", 2u64)
                .arg("lost_s", 1.0)
                .arg("resumes_at_s", 1.5),
            // Engine-style failure (no resumes_at): attributed to stage 1.
            Event::instant("node_failure", "sim", 3_500_000).arg("stage", 1u64).arg("lost_s", 0.25),
        ];
        let report = CalibrationReport::from_events(&events);
        assert_eq!(report.stages[0].failures, 1);
        assert!((report.stages[0].observed_recovery_s - 1.5).abs() < 1e-9);
        assert_eq!(report.stages[1].failures, 1);
        assert!((report.stages[1].observed_recovery_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn blame_decomposes_the_signed_error() {
        // Predicted 1.0 run + 1.0 mat + 0.5 rec = 2.5s; observed 4.0s with
        // 1.5s observed recovery → recovery blame 1.0, residual 0.5 split
        // 50/50 between runtime and materialization.
        let events = vec![
            tagged_span("engine", 0, 0, 4_000_000, 1.0, 1.0, 0.5),
            Event::instant("node_failure", "engine", 500_000).arg("stage", 0u64).arg("lost_s", 1.5),
        ];
        let report = CalibrationReport::from_events(&events);
        let b = &report.stages[0].blame;
        assert!((b.recovery_s - 1.0).abs() < 1e-9);
        assert!((b.runtime_s - 0.25).abs() < 1e-9);
        assert!((b.materialization_s - 0.25).abs() < 1e-9);
        assert!((b.total_s() - report.stages[0].error_s).abs() < 1e-9);
    }

    #[test]
    fn query_join_pairs_estimate_with_completion() {
        let events = vec![
            Event::instant("plan_estimate", "sim", 0)
                .arg("pred_cost_s", 10.0)
                .arg("pred_runtime_s", 8.0),
            Event::instant("query_completed", "sim", 11_000_000),
            Event::instant("plan_estimate", "engine", 0).arg("pred_cost_s", 5.0),
            Event::instant("query_aborted", "engine", 20_000_000),
        ];
        let report = CalibrationReport::from_events(&events);
        assert_eq!(report.queries.len(), 2);
        let sim = &report.queries[0];
        assert_eq!(sim.cat, "sim");
        assert_eq!(sim.predicted_runtime_s, Some(8.0));
        assert!(!sim.aborted);
        assert!((sim.rel_error.unwrap() - 0.1).abs() < 1e-9);
        assert!(report.queries[1].aborted);
        assert_eq!(report.queries[1].rel_error, Some(3.0));
    }

    #[test]
    fn aggregate_stats_and_metrics_export() {
        let events = vec![
            tagged_span("sim", 0, 0, 1_100_000, 1.0, 0.0, 0.0), // +10%
            tagged_span("sim", 1, 1_100_000, 900_000, 1.0, 0.0, 0.0), // -10%
        ];
        let report = CalibrationReport::from_events(&events);
        let stats = report.stage_error_stats().unwrap();
        assert_eq!(stats.count, 2);
        assert!(stats.bias.abs() < 1e-9, "symmetric errors cancel");
        assert!((stats.mean_abs - 0.1).abs() < 1e-9);
        assert_eq!(report.drift_score(), Some(stats.drift().unwrap()));

        let mut snap = Metrics::new();
        report.export_metrics(&mut snap);
        assert_eq!(snap.gauge("calibration.stage_count"), Some(2.0));
        assert_eq!(snap.histogram("calibration.stage_rel_error_over").unwrap().count, 1);
        assert_eq!(snap.histogram("calibration.stage_rel_error_under").unwrap().count, 1);
        // The exported metrics must survive the Prometheus formatter.
        let text = crate::export::to_prometheus(&snap);
        assert!(text.contains("# TYPE calibration_stage_rel_error_over histogram"));
    }

    #[test]
    fn summary_renders_stage_and_query_tables() {
        let events = vec![
            tagged_span("sim", 0, 0, 2_000_000, 1.5, 0.5, 0.0),
            Event::instant("plan_estimate", "sim", 0).arg("pred_cost_s", 2.0),
            Event::instant("query_completed", "sim", 2_000_000),
        ];
        let report = CalibrationReport::from_events(&events);
        let text = report.to_summary().render();
        assert!(text.contains("Calibration: predicted vs observed"));
        assert!(text.contains("rel err"));
        assert!(text.contains("+0.0%"));
        assert!(text.contains("T_Pt"));

        let empty = CalibrationReport::from_events(&[]);
        assert!(empty.to_summary().render().contains("no prediction-tagged events"));
    }

    #[test]
    fn measured_tm_comes_from_the_last_store_stats_instant() {
        let events = vec![
            tagged_span("engine", 0, 0, 2_000_000, 1.5, 0.5, 0.0),
            Event::instant("store_stats", "engine", 1_000_000).arg("write_bytes_per_s", 1e6),
            Event::instant("store_stats", "engine", 2_000_000).arg("write_bytes_per_s", 2e6),
        ];
        let report = CalibrationReport::from_events(&events);
        assert_eq!(report.measured_tm_bytes_per_s, Some(2e6));
        assert!(report.to_summary().render().contains("2.00 MB/s"));

        let mut reg = Metrics::new();
        report.export_metrics(&mut reg);
        assert_eq!(reg.gauge("calibration.measured_tm_bytes_per_s"), Some(2e6));

        // Absent (or zero-rate) store stats leave the hook empty.
        let no_store =
            CalibrationReport::from_events(&[
                Event::instant("store_stats", "engine", 0).arg("write_bytes_per_s", 0.0)
            ]);
        assert_eq!(no_store.measured_tm_bytes_per_s, None);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let events = vec![
            tagged_span("sim", 0, 0, 2_000_000, 1.5, 0.5, 0.1),
            Event::instant("plan_estimate", "sim", 0).arg("pred_cost_s", 2.1),
            Event::instant("query_completed", "sim", 2_000_000),
        ];
        let report = CalibrationReport::from_events(&events);
        let text = serde_json::to_string(&report).unwrap();
        let back: CalibrationReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}
