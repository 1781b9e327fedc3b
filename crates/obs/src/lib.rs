//! Observability for the fault-tolerance stack.
//!
//! Three pieces, all dependency-light (serde + serde_json + parking_lot
//! only) so every other crate can depend on this one:
//!
//! - **Event recording** ([`event`], [`recorder`]): a [`Recorder`] trait
//!   with an allocation-free no-op implementation and an in-memory sink.
//!   Events carry explicit microsecond timestamps, so both wall-clock
//!   layers (the execution engine) and simulated-time layers (the
//!   discrete-event simulator) record through the same interface.
//! - **Metrics** ([`metrics`]): a registry of named counters, gauges and
//!   log-bucketed histograms whose [`metrics::MetricsSnapshot`] is
//!   serde-serializable for export and assertion in tests. Updates are
//!   lock-free (sharded atomic counters, atomic histograms), cheap
//!   enough that the process-global registry behind [`metrics::global`]
//!   is always on — the engine, store, optimizer search and simulator
//!   record into it even when no event recorder is attached.
//! - **Exporters** ([`export`]): JSONL event logs (one JSON object per
//!   line), Chrome trace-event JSON loadable in `chrome://tracing` /
//!   Perfetto, and the Prometheus text exposition format for metric
//!   snapshots.
//! - **Calibration** ([`calibrate`]): joins prediction-tagged stage spans
//!   against observed durations and failure instants, producing
//!   per-stage / per-query error distributions and a blame breakdown of
//!   the cost model's terms.
//! - **Live telemetry** ([`flight`], [`progress`], `serve`): an
//!   always-on bounded flight recorder with anomaly-triggered JSONL
//!   dumps, a per-query progress registry, and a dependency-free
//!   embedded HTTP server exposing `/metrics`, `/healthz`, `/flight`
//!   and `/queries` (`ftpde serve-metrics` wraps it; `ftpde top` polls
//!   it).
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
pub mod flight;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod report;
// The HTTP server serves the process-global flight recorder, which is
// unavailable under the loom model checker.
#[cfg(not(loom))]
pub mod serve;
pub mod sync;

pub use calibrate::{
    BlameBreakdown, CalibrationReport, ErrorStats, QueryCalibration, StageCalibration,
};
pub use event::{ArgValue, Event, Phase};
pub use flight::{FlightDump, FlightRecorder};
pub use metrics::{
    global, AtomicHistogram, Counter, Gauge, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, ShardedCounter,
};
pub use progress::{ProgressRegistry, ProgressSnapshot, QueryHandle, QuerySnapshot};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use report::{metrics_summary, Summary};
#[cfg(not(loom))]
pub use serve::{serve, serve_with, ServeOptions, ServerHandle};
