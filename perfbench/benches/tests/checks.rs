//! The benchmark's own checks: deterministic counts repeat exactly for a
//! seed, an injected store slowdown is attributed to its layer, and
//! `BENCHMARK.json` names exactly the metrics the benchmark reports.

use std::time::Duration;

use ftpde_perfbench::{per_layer_metrics, run, Outcome, Settings, Workload, END_TO_END};

/// Counts that must repeat exactly across runs with the same seed.
fn exact_counts() -> Vec<String> {
    let mut names: Vec<String> = [
        "coord.node_retries",
        "coord.rows_materialized",
        "store.fsyncs_per_op",
        "store.segments_committed",
        "store.physical_bytes_written",
        "sim.runs",
    ]
    .map(String::from)
    .to_vec();
    for (name, _) in per_layer_metrics() {
        let kernel_rows =
            name.starts_with("ops.") && (name.ends_with(".rows_in") || name.ends_with(".rows_out"));
        if kernel_rows || (name.starts_with("search.") && name != "search.us") {
            names.push(name.to_string());
        }
    }
    names
}

fn short(workload: Workload, seed: u64, trace: bool) -> Settings {
    Settings::new(workload, seed, 0.3, trace)
}

fn run_ok(s: &Settings) -> Outcome {
    let out = run(s).expect("set-up succeeds");
    assert!(
        out.correct(),
        "{}: {} of {} failed\n{}",
        s.workload.name(),
        out.failed,
        out.attempted,
        out.report
    );
    out
}

#[test]
fn deterministic_counts_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let (a, b) = (run_ok(&short(w, 11, true)), run_ok(&short(w, 11, true)));
        for name in exact_counts() {
            assert_eq!(a.get(&name), b.get(&name), "{}: {name}", w.name());
        }
        // The manifest carries timing floats, so the directory size may
        // differ by a few bytes; its segments may not.
        let (da, db) = (a.get("disk_bytes_per_op").unwrap(), b.get("disk_bytes_per_op").unwrap());
        assert!((da - db).abs() <= 64.0, "{}: disk_bytes_per_op {da} vs {db}", w.name());
    }
    let other_seed = run_ok(&short(Workload::CheckpointDisk, 12, true));
    let first = run_ok(&short(Workload::CheckpointDisk, 11, true));
    assert_ne!(
        other_seed.get("coord.rows_materialized"),
        first.get("coord.rows_materialized"),
        "the seed drives the generated data"
    );
}

#[test]
fn each_workload_exercises_its_layers() {
    let expect: [(Workload, &[&str]); 4] = [
        (Workload::OlapNomat, &["ops.scan.rows_in", "ops.hash_agg.rows_out", "catalog.rows"]),
        (
            Workload::CheckpointDisk,
            &["store.put.calls", "store.fsyncs_per_op", "disk_bytes_per_op", "codec.bytes"],
        ),
        (
            Workload::ResumeDisk,
            &[
                "store.reopen.segments",
                "store.get.calls",
                "coord.stages_skipped",
                "codec.decode.us",
            ],
        ),
        (Workload::FtPlanning, &["search.configs_unpruned", "sim.runs", "optimizer.join_orders"]),
    ];
    for (w, names) in expect {
        let out = run_ok(&short(w, 5, true));
        for name in names {
            assert!(out.get(name).unwrap_or(0.0) > 0.0, "{}: {name} is zero", w.name());
        }
        assert_eq!(out.get("store.put.calls").unwrap_or(0.0) > 0.0, w == Workload::CheckpointDisk);
        let plain = run_ok(&short(w, 5, false));
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{}: {:?}", w.name(), plain.metrics);
    }
}

/// The `bound` of an end-to-end metric in `BENCHMARK.json`.
fn bound(metric: &str) -> f64 {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let at = doc.find(&format!("\"name\": \"{metric}\"")).expect("metric listed");
    let rest = &doc[at..];
    let rest = &rest[rest.find("\"bound\":").expect("bound given") + 8..];
    let end = rest.find(['}', ',']).expect("bound ends");
    rest[..end].trim().parse().expect("numeric bound")
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = END_TO_END.iter().map(|(n, _)| *n).chain(per_layer_metrics().map(|(n, _)| n));
    let workloads = Workload::ALL.map(Workload::name);
    let mut listed = 0;
    for name in names.chain(workloads) {
        assert!(
            doc.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
        listed += 1;
    }
    assert_eq!(doc.matches("\"name\":").count(), listed, "BENCHMARK.json lists extra names");
    assert!(bound("setup_s") >= bound("latency_p50_ms"));
}

#[test]
fn a_slow_put_is_attributed_to_the_store_layer() {
    // The delay acts only inside the traced operation of each pair, so it
    // shows as trace overhead measured against the untraced twin run next
    // to it, whatever the machine's speed at the time.
    let delay = Duration::from_millis(5);
    let with = |w: Workload, d: Duration| {
        let mut s = short(w, 3, true);
        s.seconds = 1.0;
        s.put_delay = d;
        run_ok(&s)
    };
    let added_over_untraced = |o: &Outcome| {
        o.latency_p50_ms
            - o.latency_p50_ms / (1.0 + o.get("obs.trace_overhead_pct").unwrap() / 100.0)
    };
    let (base, slow) =
        (with(Workload::CheckpointDisk, Duration::ZERO), with(Workload::CheckpointDisk, delay));
    let added_ms = slow.get("store.put.calls").unwrap() * delay.as_secs_f64() * 1e3;
    let put_ms = |o: &Outcome| o.get("store.put.us").unwrap() / 1e3;
    assert!(
        put_ms(&slow) - put_ms(&base) >= 0.9 * added_ms,
        "put time {} -> {} ms",
        put_ms(&base),
        put_ms(&slow)
    );
    assert!(
        added_over_untraced(&slow) >= 0.5 * added_ms,
        "traced p50 rose by {}",
        added_over_untraced(&slow)
    );
    // Workloads without puts cannot feel it: their traced p50 stays within
    // the largest bound BENCHMARK.json may give a metric.
    for w in [Workload::OlapNomat, Workload::FtPlanning] {
        let slow = with(w, delay);
        assert_eq!(slow.get("store.put.us"), Some(0.0));
        let overhead = slow.get("obs.trace_overhead_pct").unwrap();
        assert!(overhead <= 25.0, "{}: trace overhead {overhead} %", w.name());
    }
}
