//! Closed-loop benchmark of the ftpde workspace.
//!
//! One client runs operations back to back against the public APIs of the
//! engine, store, optimizer and simulator, checks every output, and
//! reports end-to-end metrics (`--trace 0`) or per-layer metrics from
//! spans recorded around each call into a layer (`--trace 1`). See
//! `perfbench/README.md` for the workloads, the metrics and the
//! layer each per-layer metric belongs to.

pub mod replay;
pub mod store;
pub mod trace;
pub mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ftpde_tpch::schema::Table;
use replay::{replay_codec, replay_query, CodecReplay, KernelReplay};
use store::Capture;
use trace::{totals_by_name, within, Tracer};
use workloads::{Fixture, OpRecord, KILL_P, TRACES};

/// Engine nodes (one worker thread each). One node keeps the engine's
/// latency steady on a small shared machine: with two workers on two
/// CPUs, the slower worker sets each stage's time and the run-to-run
/// spread of `latency_p50_ms` grew several-fold.
pub const NODES: usize = 1;
/// Traced operations whose counts are reported: a fixed prefix, so the
/// counts repeat exactly for a seed whatever the machine's speed.
pub const COUNT_WINDOW: usize = 8;
/// Rounds of the kernel and codec replays; each time is their median.
pub const REPLAY_ROUNDS: usize = 3;
/// Timed operations a plain run makes even when its time is up: ten
/// samples beyond the tail percentile.
pub const MIN_SAMPLES: usize = 100;
/// The tail percentile reported as `latency_p90_ms`.
pub const TAIL: f64 = 0.9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1, Q3, Q5 in memory without materialization or failures.
    OlapNomat,
    /// Q3, Q5 all-materialized to a fresh disk store, with node kills.
    CheckpointDisk,
    /// Q3, Q5 resumed from a materialized disk store.
    ResumeDisk,
    /// Cost-based fault-tolerance search plus simulation.
    FtPlanning,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::OlapNomat, Workload::CheckpointDisk, Workload::ResumeDisk, Workload::FtPlanning];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapNomat => "olap-nomat",
            Workload::CheckpointDisk => "checkpoint-disk",
            Workload::ResumeDisk => "resume-disk",
            Workload::FtPlanning => "ft-planning",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TPC-H scale factor.
    pub fn sf(self) -> f64 {
        match self {
            Workload::OlapNomat | Workload::ResumeDisk => 0.1,
            Workload::CheckpointDisk => 0.02,
            Workload::FtPlanning => 100.0,
        }
    }

    /// Set-ups per run, about half a second's worth; `setup_s` is their
    /// median. A fixed count keeps the allocation history, and with it
    /// `rss_peak_mb`, the same from run to run.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::OlapNomat | Workload::ResumeDisk => 3,
            Workload::CheckpointDisk => 15,
            Workload::FtPlanning => 100,
        }
    }

    /// What one operation does and why the workload exists (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OlapNomat => {
                "Q1, Q3, Q5 round-robin at SF 0.1 in memory, no materialization, no failures: \
                 scan, join and aggregation kernels do the work; the store is idle"
            }
            Workload::CheckpointDisk => {
                "Q3 then Q5 at SF 0.02, all-mat on fresh fsyncing disk stores, seeded first-attempt \
                 node kills (p=0.5): checkpoint writes and recovery dominate"
            }
            Workload::ResumeDisk => {
                "Q3 then Q5 at SF 0.1 resumed from all-mat disk stores: reopen with CRC checks and \
                 cold reads; the store's read side, no writes"
            }
            Workload::FtPlanning => {
                "Q5 search over 1344 join orders x 32 configs at SF 100, then 4 schemes x 10 traces \
                 simulated, for 3 cluster MTBFs: optimizer, search and simulator only"
            }
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated data, failure injections and traces.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: Option<PathBuf>,
    /// Sleep added inside every decorated `put` (attribution test only).
    pub put_delay: Duration,
}

impl Settings {
    /// The command line's settings.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Settings { workload, seed, seconds, trace, out_dir: None, put_delay: Duration::ZERO }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations run, warm-up included.
    pub attempted: u64,
    /// Operations whose output was wrong or that aborted, panicked or
    /// returned an error.
    pub failed: u64,
    /// Whether the traced run's replays matched the reference results.
    pub replay_ok: bool,
    /// Median latency of the timed operations; of the traced ones in a
    /// traced run.
    pub latency_p50_ms: f64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Human-readable report.
    pub report: String,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.replay_ok
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// End-to-end metrics, in output order. The tail latency is printed with
/// them but is not one of them: on a shared machine a few slow periods
/// move it by more than any bound a gate could use.
pub const END_TO_END: [(&str, &str); 4] =
    [("latency_p50_ms", "ms"), ("ops_per_s", "1/s"), ("setup_s", "s"), ("rss_peak_mb", "MB")];

/// A layer, its per-layer metrics and the end-to-end metrics they should
/// move.
pub struct Layer {
    /// Module name.
    pub module: &'static str,
    /// `(metric, unit)` pairs.
    pub metrics: &'static [(&'static str, &'static str)],
    /// Which end-to-end metric the layer should move, on which workload.
    pub moves: &'static str,
}

/// Every per-layer metric by layer. Replicated puts, `clear` and coarse
/// restarts do not occur in these workloads (no materialized gather point
/// below a sink, fine-grained recovery only) and are left out.
pub const LAYERS: &[Layer] = &[
    Layer {
        module: "tpch (datagen)",
        metrics: &[("tpch.generate_s", "s"), ("tpch.rows", "count")],
        moves: "setup_s on olap-nomat and resume-disk",
    },
    Layer {
        module: "engine::queries (catalog)",
        metrics: &[("catalog.load_s", "s"), ("catalog.rows", "count")],
        moves: "setup_s and rss_peak_mb on olap-nomat",
    },
    Layer {
        module: "engine::ops (kernel replay)",
        metrics: &[
            ("ops.scan.us", "us"),
            ("ops.scan.rows_in", "count"),
            ("ops.scan.rows_out", "count"),
            ("ops.scan.ns_per_row", "ns/row"),
            ("ops.hash_join.us", "us"),
            ("ops.hash_join.rows_in", "count"),
            ("ops.hash_join.rows_out", "count"),
            ("ops.hash_join.ns_per_row", "ns/row"),
            ("ops.hash_agg.us", "us"),
            ("ops.hash_agg.rows_in", "count"),
            ("ops.hash_agg.rows_out", "count"),
            ("ops.hash_agg.ns_per_row", "ns/row"),
            ("ops.merge.us", "us"),
            ("ops.merge.rows_in", "count"),
            ("ops.merge.rows_out", "count"),
            ("ops.merge.ns_per_row", "ns/row"),
        ],
        moves: "latency_p50_ms and ops_per_s, mostly on olap-nomat, somewhat on \
                checkpoint-disk; not ft-planning",
    },
    Layer {
        module: "engine::coordinator",
        metrics: &[
            ("coord.query_us", "us"),
            ("coord.stage_us", "us"),
            ("coord.residual_us", "us"),
            ("coord.stages", "count"),
            ("coord.node_retries", "count"),
            ("coord.stages_skipped", "count"),
            ("coord.rows_materialized", "count"),
        ],
        moves: "latency on checkpoint-disk and resume-disk (fixed cost per stage); little \
                on olap-nomat",
    },
    Layer {
        module: "core::collapse",
        metrics: &[("core.collapse_us", "us")],
        moves: "latency on resume-disk, the shortest engine operation",
    },
    Layer {
        module: "store (timing decorator, StoreStats deltas)",
        metrics: &[
            ("store.put.calls", "count"),
            ("store.put.us", "us"),
            ("store.get.calls", "count"),
            ("store.get.us", "us"),
            ("store.get.hit_ratio", "ratio"),
            ("store.contains.calls", "count"),
            ("store.contains.us", "us"),
            ("store.fsyncs", "count"),
            ("store.fsyncs_per_op", "count"),
            ("store.segments_committed", "count"),
            ("store.physical_bytes_written", "bytes"),
            ("store.logical_bytes_written", "bytes"),
            ("store.bytes_read", "bytes"),
            ("store.write_mb_per_s", "MB/s"),
            ("store.reopen.us", "us"),
            ("store.reopen.segments", "count"),
            ("disk_bytes_per_op", "bytes"),
        ],
        moves: "latency_p50_ms and disk_bytes_per_op on checkpoint-disk (put, fsync); \
                latency on resume-disk (reopen, get); not olap-nomat or ft-planning",
    },
    Layer {
        module: "store::codec (replay of the captured row sets)",
        metrics: &[
            ("codec.encode.us", "us"),
            ("codec.decode.us", "us"),
            ("codec.crc.us", "us"),
            ("codec.bytes", "bytes"),
            ("codec.encode_mb_per_s", "MB/s"),
            ("codec.decode_mb_per_s", "MB/s"),
        ],
        moves: "latency on checkpoint-disk (encode) and resume-disk (decode, CRC)",
    },
    Layer {
        module: "optimizer",
        metrics: &[
            ("optimizer.all_plans_us", "us"),
            ("optimizer.tree_to_plan_us", "us"),
            ("optimizer.join_orders", "count"),
        ],
        moves: "setup_s on ft-planning",
    },
    Layer {
        module: "core::search",
        metrics: &[
            ("search.us", "us"),
            ("search.configs_unpruned", "count"),
            ("search.configs_explored", "count"),
            ("search.configs_pruned_rule1", "count"),
            ("search.configs_pruned_rule2", "count"),
            ("search.rule3_stops", "count"),
            ("search.memo_hits", "count"),
            ("search.paths_costed", "count"),
            ("search.pruning_rate_pct", "%"),
        ],
        moves: "latency on ft-planning only",
    },
    Layer {
        module: "sim and cluster",
        metrics: &[
            ("sim.us", "us"),
            ("sim.runs", "count"),
            ("sim.node_retries", "count"),
            ("sim.restarts", "count"),
            ("sim.aborted", "count"),
            ("cluster.trace_gen_us", "us"),
        ],
        moves: "latency on ft-planning only",
    },
    Layer {
        module: "obs (validates the traced run)",
        metrics: &[("obs.spans", "count"), ("obs.trace_overhead_pct", "%")],
        moves: "nothing",
    },
];

/// Every per-layer metric, in output order.
pub fn per_layer_metrics() -> impl Iterator<Item = (&'static str, &'static str)> {
    LAYERS.iter().flat_map(|l| l.metrics.iter().copied())
}

/// The `q`-quantile of `sorted` by nearest rank, and the number of
/// samples above it.
pub fn quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5).0
}

/// Peak resident set size of this process, MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from `/proc/self/mounts`.
fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Runs one operation, turning a panic into a failure.
fn guarded(
    fixture: &Fixture,
    j: u64,
    s: &Settings,
    traced: Option<(&Tracer, &Capture)>,
    rec: &mut OpRecord,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| fixture.op(j, s, traced, rec))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, j: u64, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.first_errors.len() < 10 {
                self.first_errors.push(format!("operation {j}: {e}"));
            }
        }
    }
}

/// Runs the benchmark.
///
/// # Errors
/// Set-up failed (a reference run or the initial materialization).
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let tracer = s.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut fixture = None;
    for _ in 0..s.workload.setup_repeats() {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(within(tr, "setup", || Fixture::setup(s, tr))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("at least one set-up ran");

    let mut tally = Tally::default();
    let warmup = Fixture::WARMUP_OPS;
    for j in 0..warmup {
        let r = guarded(&fixture, j, s, None, &mut OpRecord::default());
        tally.record(j, r);
    }

    let mut report = String::new();
    let metrics = if let Some(tracer) = tr {
        traced_loop(s, &fixture, tracer, warmup, &mut tally, &mut report)?
    } else {
        plain_loop(s, &fixture, warmup, &setup_s, &mut tally, &mut report)
    };
    for e in &tally.first_errors {
        eprintln!("FAILED {e}");
    }
    let _ = writeln!(
        report,
        "operations: {} attempted, {} failed, failed_ratio {} (count)",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let (metrics, replay_ok, latency_p50_ms) = metrics;
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        replay_ok,
        latency_p50_ms,
        metrics,
        report,
    })
}

fn context(s: &Settings, report: &mut String) {
    let tmp = std::env::temp_dir();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let _ = writeln!(report, "workload: {} ({})", s.workload.name(), s.workload.why());
    let _ = writeln!(
        report,
        "seed: {}  sf: {}  nproc: {nproc}  nodes: {NODES}",
        s.seed,
        s.workload.sf()
    );
    let _ = writeln!(report, "load: one client, closed loop, {} s timed", s.seconds);
    let _ = writeln!(report, "temp dir: {} ({})", tmp.display(), fs_type(&tmp));
    match s.workload {
        Workload::CheckpointDisk | Workload::ResumeDisk => {
            let _ = writeln!(
                report,
                "flush policy: shipped DiskBackend protocol (per put: segment tmp fsync, rename, \
                 dir fsync; manifest tmp fsync, rename, dir fsync); compression off"
            );
        }
        _ => {}
    }
    match s.workload {
        Workload::CheckpointDisk => {
            let _ =
                writeln!(report, "failures: first-attempt kills p={KILL_P}, fine-grained recovery");
        }
        Workload::FtPlanning => {
            let _ = writeln!(
                report,
                "failures: {TRACES} seeded traces per cluster (MTBF week, day, hour)"
            );
        }
        _ => {}
    }
}

/// The plain timed loop: end-to-end metrics only, nothing traced.
fn plain_loop(
    s: &Settings,
    fixture: &Fixture,
    warmup: u64,
    setup_s: &[f64],
    tally: &mut Tally,
    report: &mut String,
) -> (Vec<Metric>, bool, f64) {
    context(s, report);
    let budget = Duration::from_secs_f64(s.seconds);
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut j = warmup;
    while start.elapsed() < budget || latencies.len() < MIN_SAMPLES {
        let t = Instant::now();
        let r = guarded(fixture, j, s, None, &mut OpRecord::default());
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(j, r);
        j += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let (p50, _) = quantile(&latencies, 0.5);
    let (p90, beyond) = quantile(&latencies, TAIL);
    let values = [p50, latencies.len() as f64 / wall, median(setup_s), rss_peak_mb()];
    let _ = writeln!(
        report,
        "samples: {} timed operations in {wall:.3} s; set-ups: {}",
        latencies.len(),
        setup_s.len()
    );
    let _ = writeln!(report, "latency_p90_ms   {p90:>14.4} ms ({beyond} samples beyond it)");
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    for m in &metrics {
        let _ = writeln!(report, "{:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    (metrics, true, p50)
}

/// The traced loop: pairs of the same operation, one traced and one not
/// (alternating which runs first), then the kernel and codec replays.
fn traced_loop(
    s: &Settings,
    fixture: &Fixture,
    tracer: &Tracer,
    warmup: u64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<(Vec<Metric>, bool, f64), String> {
    context(s, report);
    let capture = Capture::default();
    let budget = Duration::from_secs_f64(s.seconds);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut records: Vec<(u64, OpRecord)> = Vec::new();
    let start = Instant::now();
    let mut j = warmup;
    while start.elapsed() < budget || records.len() < COUNT_WINDOW {
        for traced in if j & 1 == 0 { [false, true] } else { [true, false] } {
            let mut rec = OpRecord::default();
            let t = Instant::now();
            let r = if traced {
                tracer.set_op(Some(j));
                let r = guarded(fixture, j, s, Some((tracer, &capture)), &mut rec);
                tracer.set_op(None);
                r
            } else {
                guarded(fixture, j, s, None, &mut rec)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if traced {
                traced_ms.push(ms);
                records.push((j, rec));
            } else {
                plain_ms.push(ms);
            }
            tally.record(j, r);
        }
        j += 1;
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut replay_ok = true;
    if let Fixture::Engine(f) = fixture {
        // Stages each query's traced operations executed rather than skipped.
        let mut executed: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
        for (_, rec) in &records {
            for (q, stages) in &rec.executed {
                executed.entry(q).or_default().extend(stages);
            }
        }
        let mut kernels: Vec<KernelReplay> = Vec::new();
        let mut codecs: Vec<CodecReplay> = Vec::new();
        let sets = capture.sets();
        for q in &f.queries {
            let timed = executed.get(q.name).cloned().unwrap_or_default();
            let mut rounds = Vec::with_capacity(REPLAY_ROUNDS);
            let mut codec_rounds = Vec::with_capacity(REPLAY_ROUNDS);
            for _ in 0..REPLAY_ROUNDS {
                match replay_query(
                    &q.plan,
                    &q.config,
                    &f.catalog,
                    &q.reference,
                    &timed,
                    Some(tracer),
                ) {
                    Ok(r) => rounds.push(r),
                    Err(e) => {
                        eprintln!("FAILED {}: {e}", q.name);
                        replay_ok = false;
                    }
                }
                match replay_codec(sets.iter().filter(|c| c.query == q.name), Some(tracer)) {
                    Ok(r) => codec_rounds.push(r),
                    Err(e) => {
                        eprintln!("FAILED {e}");
                        replay_ok = false;
                    }
                }
            }
            kernels.push(median_kernel(&rounds));
            codecs.push(median_codec(&codec_rounds));
        }
        engine_values(f, &kernels, &codecs, &mut values);
    }

    let spans = tracer.spans();
    let n = records.len() as f64;
    let window = &records[..COUNT_WINDOW.min(records.len())];
    let window_ops: BTreeSet<u64> = window.iter().map(|(j, _)| *j).collect();
    let mut window_calls: BTreeMap<&str, f64> = BTreeMap::new();
    let mut op_us: BTreeMap<&str, f64> = BTreeMap::new();
    let mut setup_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sp in &spans {
        match sp.op {
            Some(op) => {
                *op_us.entry(sp.name).or_default() += sp.dur_ns() as f64 / 1e3 / n;
                if window_ops.contains(&op) {
                    *window_calls.entry(sp.name).or_default() += 1.0 / window.len() as f64;
                }
            }
            None => setup_us.entry(sp.name).or_default().push(sp.dur_ns() as f64 / 1e3),
        }
    }
    let wmean = |name: &str| {
        window.iter().map(|(_, r)| r.counts.get(name).copied().unwrap_or(0.0)).sum::<f64>()
            / window.len().max(1) as f64
    };
    let all_sum = |name: &str| {
        records.iter().map(|(_, r)| r.counts.get(name).copied().unwrap_or(0.0)).sum::<f64>()
    };
    let time_mean = |name: &str| {
        records.iter().map(|(_, r)| r.times_us.get(name).copied().unwrap_or(0.0)).sum::<f64>() / n
    };
    let setup_med = |name: &str| setup_us.get(name).map_or(0.0, |v| median(v));
    let span_us = |name: &str| op_us.get(name).copied().unwrap_or(0.0);
    let calls = |name: &str| window_calls.get(name).copied().unwrap_or(0.0);

    values.insert("tpch.generate_s".into(), setup_med("tpch.generate") / 1e6);
    values.insert("catalog.load_s".into(), setup_med("catalog.load") / 1e6);
    values.insert("coord.query_us".into(), span_us("engine.run_query"));
    let stage_us = time_mean("coord.stage_us");
    values.insert("coord.stage_us".into(), stage_us);
    if let Some(kernel_us) = values.remove("coord.kernel_critical_us") {
        values.insert(
            "coord.residual_us".into(),
            stage_us - kernel_us - time_mean("store.in_stage_us"),
        );
    }
    for name in [
        "coord.stages",
        "coord.node_retries",
        "coord.stages_skipped",
        "coord.rows_materialized",
        "store.segments_committed",
        "store.physical_bytes_written",
        "store.logical_bytes_written",
        "store.bytes_read",
        "store.reopen.segments",
        "disk_bytes_per_op",
        "search.configs_unpruned",
        "search.configs_explored",
        "search.configs_pruned_rule1",
        "search.configs_pruned_rule2",
        "search.rule3_stops",
        "search.memo_hits",
        "search.paths_costed",
        "sim.runs",
        "sim.node_retries",
        "sim.restarts",
        "sim.aborted",
    ] {
        values.insert(name.into(), wmean(name));
    }
    values.insert("core.collapse_us".into(), span_us("core.collapse"));
    for call in ["put", "put_replicated", "get", "contains", "clear"] {
        let span = format!("store.{call}");
        values.insert(format!("{span}.calls"), calls(&span));
        values.insert(format!("{span}.us"), span_us(&span));
    }
    let gets = calls("store.get");
    values.insert(
        "store.get.hit_ratio".into(),
        if gets > 0.0 { wmean("store.get.hits") / gets } else { 0.0 },
    );
    values.insert("store.fsyncs".into(), wmean("store.fsyncs") * window.len() as f64);
    values.insert("store.fsyncs_per_op".into(), wmean("store.fsyncs"));
    let write_us = time_mean("store.write_us") * n;
    values.insert(
        "store.write_mb_per_s".into(),
        if write_us > 0.0 { all_sum("store.physical_bytes_written") / write_us } else { 0.0 },
    );
    values.insert("store.reopen.us".into(), span_us("store.reopen"));
    values.insert("optimizer.all_plans_us".into(), setup_med("optimizer.all_plans"));
    values.insert("optimizer.tree_to_plan_us".into(), setup_med("optimizer.tree_to_plan"));
    if let Fixture::Planning(p) = fixture {
        values.insert("optimizer.join_orders".into(), p.plans.len() as f64);
    }
    values.insert("search.us".into(), span_us("search.find_best_ft_plan"));
    let unpruned = wmean("search.configs_unpruned");
    values.insert(
        "search.pruning_rate_pct".into(),
        if unpruned > 0.0 { wmean("search.pruned") / unpruned * 100.0 } else { 0.0 },
    );
    values.insert("sim.us".into(), span_us("sim.run_all_schemes"));
    values.insert("cluster.trace_gen_us".into(), span_us("cluster.trace_gen"));
    values.insert("obs.spans".into(), spans.len() as f64);
    plain_ms.sort_by(f64::total_cmp);
    traced_ms.sort_by(f64::total_cmp);
    let (plain_p50, traced_p50) = (quantile(&plain_ms, 0.5).0, quantile(&traced_ms, 0.5).0);
    values.insert("obs.trace_overhead_pct".into(), (traced_p50 / plain_p50 - 1.0) * 100.0);

    let _ = writeln!(
        report,
        "traced: {} pairs; latency_p50_ms untraced {plain_p50:.4}, traced {traced_p50:.4}; \
         counts over the first {} traced operations",
        records.len(),
        window.len()
    );
    let mut metrics = Vec::new();
    for layer in LAYERS {
        let _ = writeln!(report, "[{}] should move: {}", layer.module, layer.moves);
        for &(name, unit) in layer.metrics {
            let value = values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(report, "  {name:<30} {value:>16.4} {unit}");
            metrics.push(Metric { name, value, unit });
        }
    }
    let _ = writeln!(report, "self time by span name (ms): name, count, total, self");
    for (name, t) in totals_by_name(&spans) {
        let _ = writeln!(
            report,
            "  {name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    if let Some(dir) = &s.out_dir {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", s.workload.name(), s.seed));
        trace::write_jsonl(&spans, &path).map_err(|e| format!("writing spans: {e}"))?;
        let _ = writeln!(report, "spans: {} written to {}", spans.len(), path.display());
    }
    Ok((metrics, replay_ok, traced_p50))
}

fn median_kernel(rounds: &[KernelReplay]) -> KernelReplay {
    let Some(first) = rounds.first() else { return KernelReplay::default() };
    let mut out = first.clone();
    for (kind, t) in &mut out.kinds {
        let ns: Vec<f64> = rounds.iter().map(|r| r.kinds[kind].ns as f64).collect();
        t.ns = median(&ns) as u64;
    }
    let cp: Vec<f64> = rounds.iter().map(|r| r.critical_ns as f64).collect();
    out.critical_ns = median(&cp) as u64;
    out
}

fn median_codec(rounds: &[CodecReplay]) -> CodecReplay {
    let med = |f: fn(&CodecReplay) -> u64| {
        median(&rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) as u64
    };
    CodecReplay {
        bytes: rounds.first().map_or(0, |r| r.bytes),
        encode_ns: med(|r| r.encode_ns),
        crc_ns: med(|r| r.crc_ns),
        decode_ns: med(|r| r.decode_ns),
    }
}

/// Set-up, replay and codec values of an engine workload, per operation:
/// the replays cover each query once, an operation may run fewer.
fn engine_values(
    f: &workloads::EngineFixture,
    kernels: &[KernelReplay],
    codecs: &[CodecReplay],
    values: &mut BTreeMap<String, f64>,
) {
    values.insert("tpch.rows".into(), f.tpch_rows as f64);
    let catalog_rows: usize = Table::ALL
        .iter()
        .map(|t| f.catalog.table(&t.name().to_ascii_lowercase()).logical_rows())
        .sum();
    values.insert("catalog.rows".into(), catalog_rows as f64);
    // The replays ran each query once; scale to the queries one operation runs.
    let share = f.queries_per_op() as f64 / f.queries.len() as f64;
    let kinds: BTreeSet<&str> = kernels.iter().flat_map(|k| k.kinds.keys().copied()).collect();
    for kind in kinds {
        let sum = |g: fn(&replay::KindTotals) -> u64| {
            let total =
                kernels.iter().filter_map(|k| k.kinds.get(kind)).fold(0.0, |a, t| a + g(t) as f64);
            total * share
        };
        let (ns, rows_in, rows_out) = (sum(|t| t.ns), sum(|t| t.rows_in), sum(|t| t.rows_out));
        values.insert(format!("ops.{kind}.us"), ns / 1e3);
        values.insert(format!("ops.{kind}.rows_in"), rows_in);
        values.insert(format!("ops.{kind}.rows_out"), rows_out);
        values.insert(
            format!("ops.{kind}.ns_per_row"),
            if rows_in > 0.0 { ns / rows_in } else { 0.0 },
        );
    }
    values.insert(
        "coord.kernel_critical_us".into(),
        kernels.iter().map(|k| k.critical_ns as f64).sum::<f64>() * share / 1e3,
    );
    let csum = |g: fn(&CodecReplay) -> u64| codecs.iter().map(|c| g(c) as f64).sum::<f64>() * share;
    let (bytes, enc, dec, crc) =
        (csum(|c| c.bytes), csum(|c| c.encode_ns), csum(|c| c.decode_ns), csum(|c| c.crc_ns));
    values.insert("codec.bytes".into(), bytes);
    values.insert("codec.encode.us".into(), enc / 1e3);
    values.insert("codec.decode.us".into(), dec / 1e3);
    values.insert("codec.crc.us".into(), crc / 1e3);
    // bytes per nanosecond * 1e3 = MB/s
    values.insert("codec.encode_mb_per_s".into(), if enc > 0.0 { bytes / enc * 1e3 } else { 0.0 });
    values.insert("codec.decode_mb_per_s".into(), if dec > 0.0 { bytes / dec * 1e3 } else { 0.0 });
}
