//! Observability for the fault-tolerance stack.
//!
//! Every piece is dependency-light (serde + serde_json + parking_lot
//! only) so every other crate can depend on this one, and nothing here
//! keeps process-global state except the clock's virtual offset
//! ([`sync::clock`]):
//!
//! - **Event recording** ([`event`], [`recorder`]): a [`Recorder`] trait
//!   with an allocation-free no-op implementation and an in-memory sink.
//!   Events carry explicit microsecond timestamps, so both wall-clock
//!   layers (the execution engine) and simulated-time layers (the
//!   discrete-event simulator) record through the same interface.
//! - **Folds** ([`mod@fold`]): pure functions of a recorded trace. One pass
//!   yields a row per query and the [`Metrics`] — named counters, gauges
//!   and log-bucketed histograms — so every number is derived from the
//!   one event stream.
//! - **Exporters** ([`export`]): JSONL event logs (one JSON object per
//!   line), Chrome trace-event JSON loadable in `chrome://tracing` /
//!   Perfetto, and the Prometheus text exposition format for [`Metrics`].
//! - **Calibration** ([`calibrate`]): joins prediction-tagged stage spans
//!   against observed durations and failure instants, producing
//!   per-stage / per-query error distributions and a blame breakdown of
//!   the cost model's terms.
//!
//! The intended pattern at an instrumentation site:
//!
//! ```
//! use ftpde_obs::{Event, MemoryRecorder, Recorder};
//!
//! fn hot_path(rec: &dyn Recorder) {
//!     // One branch when disabled; the Event is only built when enabled.
//!     rec.record_with(|| Event::instant("cache_miss", "search", 42));
//! }
//!
//! let rec = MemoryRecorder::new();
//! hot_path(&rec);
//! assert_eq!(rec.events().len(), 1);
//! ```

pub mod calibrate;
pub mod event;
pub mod export;
pub mod fold;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sync;

pub use calibrate::{
    BlameBreakdown, CalibrationReport, ErrorStats, QueryCalibration, StageCalibration,
};
pub use event::{ArgValue, Event, Phase};
pub use fold::{fold, QueryRow, QueryState, TraceFold};
pub use metrics::{Histogram, Metrics};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use report::{metrics_summary, Summary};
