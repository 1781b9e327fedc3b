//! Mutation proptests for the trace-conformance checker.
//!
//! Strategy: build a random chain plan and materialization configuration,
//! obtain a *valid* trace two ways — a real recorded `simulate` run and a
//! synthetic engine-style trace derived from the collapsed stages — then
//! apply one random mutation (drop an execution span, reorder producer
//! and consumer, delete a rewind, delete a materialized-stage skip, …)
//! and assert the checker flags it with the expected `FT1xx` code. A
//! final property feeds the checker arbitrary event soup and asserts it
//! never panics.

use ftpde_analysis::diag::Code;
use ftpde_analysis::prelude::*;
use ftpde_cluster::prelude::*;
use ftpde_core::prelude::*;
use ftpde_obs::{Event, MemoryRecorder};
use ftpde_sim::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A linear plan `op0 -> op1 -> … -> op(n-1)` with the given costs.
fn chain_plan(costs: &[(f64, f64)]) -> PlanDag {
    let mut b = PlanDag::builder();
    let mut prev: Vec<OpId> = Vec::new();
    for (i, &(run, mat)) in costs.iter().enumerate() {
        let id = b.free(format!("op{i}"), run, mat, &prev).expect("chain is acyclic");
        prev = vec![id];
    }
    b.build().expect("chain plan is well-formed")
}

/// Materializes the masked non-sink operators (`mask.len() == n - 1`).
fn mat_config(plan: &PlanDag, mask: &[bool]) -> MatConfig {
    let ids: Vec<OpId> = mask
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m)
        .map(|(i, _)| OpId(u32::try_from(i).expect("tiny plans")))
        .collect();
    MatConfig::from_materialized_free_ops(plan, &ids).expect("masked ops are free")
}

/// One generated scenario: a chain, which of its non-sink ops
/// materialize (the first always does, so there are at least two
/// collapsed stages to damage), and a failure seed.
struct Scenario {
    costs: Vec<(f64, f64)>,
    mask: Vec<bool>,
    seed: u64,
}

/// Derives a scenario from plain integers — the vendored proptest has
/// no flat-map/oneof combinators, so structure comes from a seeded RNG.
fn scenario_from(n: usize, mask_bits: u64, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = (0..n).map(|_| (rng.gen_range(0.5..4.0), rng.gen_range(0.1..1.0))).collect();
    let mask = (0..n - 1).map(|i| i == 0 || (mask_bits >> i) & 1 == 1).collect();
    Scenario { costs, mask, seed }
}

/// Runs the simulator over the scenario and returns the recorded trace
/// plus the checker's view of the collapsed plan.
fn sim_trace(sc: &Scenario, mtbf: f64) -> (Vec<Event>, StagePlan) {
    let plan = chain_plan(&sc.costs);
    let config = mat_config(&plan, &sc.mask);
    let rec = MemoryRecorder::new();
    let opts = SimOptions { rec: &rec, ..Default::default() };
    let cluster = ClusterConfig::new(4, mtbf, 1.0);
    let horizon = suggested_horizon(&plan, &cluster, &opts);
    let trace = FailureTrace::generate(&cluster, horizon, sc.seed);
    simulate(&plan, &config, Recovery::FineGrained, &cluster, &trace, &opts);
    let sp = StagePlan::new(&plan, &config, opts.pipe_const);
    (rec.events(), sp)
}

/// Positions of stage-execution spans in the event list.
fn exec_positions(events: &[Event]) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.name.starts_with("stage ") && e.get_arg("stage").is_some())
        .map(|(i, _)| i)
        .collect()
}

/// Applies one of the simulator-trace mutations; returns the damaged
/// trace and the code the checker must report.
fn mutate_sim(mut events: Vec<Event>, kind: usize, pick: usize) -> (Vec<Event>, Code) {
    let execs = exec_positions(&events);
    assert!(execs.len() >= 2, "scenario guarantees at least two collapsed stages");
    let last_ts = events.iter().map(|e| e.ts_us + e.dur_us).max().unwrap_or(0);
    match kind {
        // Drop an execution span: the completed query no longer covers
        // every collapsed stage.
        0 => {
            events.remove(execs[pick % execs.len()]);
            (events, Code::FT103)
        }
        // Rewind a consumer's clock to 0: it now starts before its
        // producer finished. Spans come in chain order, so every one but
        // the first consumes its predecessor.
        1 => {
            let i = execs[1 + pick % (execs.len() - 1)];
            events[i].ts_us = 0;
            (events, Code::FT104)
        }
        // Duplicate an execution: the simulator never re-executes a
        // stage within an attempt.
        2 => {
            let dup = events[execs[pick % execs.len()]].clone();
            let at = events.len() - 1; // keep the terminal last
            events.insert(at, dup);
            (events, Code::FT105)
        }
        // Halve a span: Eq. 1 says a failure-free simulated stage lasts
        // exactly its collapsed tr + tm.
        3 => {
            let i = execs[pick % execs.len()];
            events[i].dur_us /= 2;
            (events, Code::FT108)
        }
        // A second terminal: queries terminate exactly once.
        _ => {
            events.push(Event::instant("query_completed", "sim", last_ts + 1));
            (events, Code::FT101)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn valid_sim_traces_check_clean(
        n in 2usize..6,
        mask_bits in any::<u64>(),
        seed in any::<u64>(),
        failures in any::<bool>(),
    ) {
        let sc = scenario_from(n, mask_bits, seed);
        let mtbf = if failures { 20.0 + (seed % 180) as f64 } else { 1e12 };
        let (events, sp) = sim_trace(&sc, mtbf);
        let report = check_trace("sim", &events, Some(&sp), &CheckOptions::default());
        prop_assert!(report.is_clean(), "clean run flagged:\n{}", report.render());
    }

    #[test]
    fn mutated_sim_traces_are_flagged(
        n in 2usize..6,
        mask_bits in any::<u64>(),
        seed in any::<u64>(),
        kind in 0usize..5,
        pick in any::<usize>(),
    ) {
        // Failure-free, so every mutation's expected code is exact.
        let sc = scenario_from(n, mask_bits, seed);
        let (events, sp) = sim_trace(&sc, 1e12);
        let (damaged, expected) = mutate_sim(events, kind, pick);
        let report = check_trace("damaged-sim", &damaged, Some(&sp), &CheckOptions::default());
        prop_assert!(
            report.diagnostics.iter().any(|d| d.code == expected),
            "mutation {kind} expected {expected:?}, got:\n{}",
            report.render()
        );
    }
}

// ---------------------------------------------------------------------
// Engine-style traces: synthesized from the collapsed stages so the
// recovery episodes (rewinds, skips) the engine mutations target are
// present and clean by construction.
// ---------------------------------------------------------------------

const STAGE_DUR: u64 = 100_000;

fn engine_exec(stage: u64, ts: u64, nodes: u64, out: &mut Vec<Event>) -> u64 {
    out.push(
        Event::span(format!("stage {stage}"), "engine", ts, STAGE_DUR)
            .arg("stage", stage)
            .arg("nodes", nodes)
            .arg("failed", false),
    );
    for node in 0..nodes {
        out.push(
            Event::span("attempt", "engine", ts, STAGE_DUR)
                .tid(u32::try_from(node + 1).expect("tiny clusters"))
                .arg("stage", stage)
                .arg("node", node)
                .arg("attempt", 0u64)
                .arg("ok", true)
                .arg("rows", 10u64),
        );
    }
    ts + STAGE_DUR
}

fn engine_put(stage: u64, ts: u64, out: &mut Vec<Event>) -> u64 {
    out.push(
        Event::instant("materialize", "engine", ts)
            .arg("stage", stage)
            .arg("rows", 10u64)
            .arg("bytes", 80u64),
    );
    ts + 10
}

/// A clean single-attempt engine trace over the collapsed stages. When
/// `rewind_at` names a materialized stage, a corruption + rewind +
/// re-execution episode is inserted right after that stage materializes
/// — exactly the fine-grained recovery the coordinator records. When
/// `skip_first` > 0, that many leading stages are skipped instead of
/// executed (a resume against a pre-seeded store).
fn engine_trace(sp: &StagePlan, rewind_at: Option<u64>, skip_first: usize) -> Vec<Event> {
    let nodes = 2u64;
    let mut out = Vec::new();
    let mut ts = 0u64;
    for (k, s) in sp.stages().iter().enumerate() {
        if k < skip_first {
            out.push(Event::instant("stage_skipped", "engine", ts).arg("stage", s.id));
            ts += 10;
            continue;
        }
        ts = engine_exec(s.id, ts, nodes, &mut out);
        if s.materializes {
            ts = engine_put(s.id, ts, &mut out);
        }
        if rewind_at == Some(s.id) {
            // The consumer found the segment corrupt: rewind the
            // producer, re-run it, re-materialize.
            let consumer = sp
                .stages()
                .iter()
                .find(|c| c.inputs.contains(&s.id))
                .expect("rewound stage has a consumer");
            out.push(
                Event::instant("segment_corrupt", "engine", ts)
                    .arg("op", s.id)
                    .arg("reason", "checksum mismatch"),
            );
            out.push(
                Event::instant("input_rewind", "engine", ts + 1)
                    .arg("stage", consumer.id)
                    .arg("producer", s.id),
            );
            ts += 10;
            ts = engine_exec(s.id, ts, nodes, &mut out);
            ts = engine_put(s.id, ts, &mut out);
        }
        ts += 10;
    }
    out.push(Event::instant("query_completed", "engine", ts));
    out
}

/// The engine-side view of a scenario's collapsed plan (root-op ids).
fn engine_stage_plan(sc: &Scenario) -> StagePlan {
    let plan = chain_plan(&sc.costs);
    let config = mat_config(&plan, &sc.mask);
    StagePlan::new(&plan, &config, 1.0)
}

/// Applies one engine-trace mutation; returns the damaged trace and the
/// expected code.
fn mutate_engine(sp: &StagePlan, kind: usize, pick: usize) -> (Vec<Event>, Code) {
    // In a chain collapsed at materialization boundaries every non-sink
    // stage materializes, so any non-sink stage can host the episodes.
    let non_sinks: Vec<u64> = sp.stages().iter().filter(|s| !s.is_sink).map(|s| s.id).collect();
    let target = non_sinks[pick % non_sinks.len()];
    let sink = sp.stages().iter().find(|s| s.is_sink).expect("chains end in a sink").id;
    match kind {
        // Delete the rewind from a recovery episode: the corruption of
        // live data is then never rewound before a consumer runs.
        0 => {
            let mut t = engine_trace(sp, Some(target), 0);
            let at = t.iter().position(|e| e.name == "input_rewind").expect("episode present");
            t.remove(at);
            (t, Code::FT107)
        }
        // Delete a materialized-stage skip from a resume: the completed
        // query no longer accounts for that stage.
        1 => {
            let mut t = engine_trace(sp, None, 1);
            let at = t.iter().position(|e| e.name == "stage_skipped").expect("resume skips");
            t.remove(at);
            (t, Code::FT103)
        }
        // Skip the sink: sinks produce the result, never checkpoints.
        2 => {
            let mut t = engine_trace(sp, None, 0);
            let at = t.len() - 1;
            t.insert(at, Event::instant("stage_skipped", "engine", 5).arg("stage", sink));
            (t, Code::FT106)
        }
        // Re-execute a stage with no rewind or corruption between the
        // runs: the §2.2 recovery contract forbids it.
        3 => {
            let mut t = engine_trace(sp, None, 0);
            let dup = t
                .iter()
                .find(|e| e.name == format!("stage {target}"))
                .expect("target executes")
                .clone();
            let at = t.len() - 1;
            t.insert(at, dup);
            (t, Code::FT105)
        }
        // Overlap two coordinator spans: the stage track is sequential.
        _ => {
            let mut t = engine_trace(sp, None, 0);
            let execs: Vec<usize> = t
                .iter()
                .enumerate()
                .filter(|(_, e)| e.name.starts_with("stage ") && e.tid == 0)
                .map(|(i, _)| i)
                .collect();
            let i = execs[1];
            t[i].ts_us = t[execs[0]].ts_us + 1;
            (t, Code::FT102)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn synthetic_engine_traces_check_clean(
        n in 2usize..6,
        mask_bits in any::<u64>(),
        seed in any::<u64>(),
        rewind in any::<bool>(),
        skip in any::<bool>(),
    ) {
        let sc = scenario_from(n, mask_bits, seed);
        let sp = engine_stage_plan(&sc);
        let rewind_at = if rewind {
            sp.stages().iter().find(|s| s.materializes).map(|s| s.id)
        } else {
            None
        };
        let skip_first = usize::from(skip && rewind_at.is_none());
        let events = engine_trace(&sp, rewind_at, skip_first);
        let report = check_trace("engine", &events, Some(&sp), &CheckOptions::default());
        prop_assert!(report.is_clean(), "clean trace flagged:\n{}", report.render());
    }

    #[test]
    fn mutated_engine_traces_are_flagged(
        n in 2usize..6,
        mask_bits in any::<u64>(),
        seed in any::<u64>(),
        kind in 0usize..5,
        pick in any::<usize>(),
    ) {
        let sc = scenario_from(n, mask_bits, seed);
        let sp = engine_stage_plan(&sc);
        let (damaged, expected) = mutate_engine(&sp, kind, pick);
        let report = check_trace("damaged-engine", &damaged, Some(&sp), &CheckOptions::default());
        prop_assert!(
            report.diagnostics.iter().any(|d| d.code == expected),
            "mutation {kind} expected {expected:?}, got:\n{}",
            report.render()
        );
    }
}

// ---------------------------------------------------------------------
// Robustness: arbitrary event soup must never panic the checker.
// ---------------------------------------------------------------------

/// A pseudo-random event stream mixing real vocabulary, wrong
/// categories, absent arguments and non-finite floats.
fn soup(seed: u64, len: usize) -> Vec<Event> {
    const NAMES: &[&str] = &[
        "stage 0",
        "stage 1",
        "stage 7",
        "attempt",
        "materialize",
        "stage_skipped",
        "input_rewind",
        "segment_corrupt",
        "node_failure",
        "redeploy",
        "query_restart",
        "query_completed",
        "query_aborted",
        "store_stats",
        "plan_estimate",
        "junk",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let name = NAMES[rng.gen_range(0..NAMES.len())];
            let cat = if rng.gen::<bool>() { "engine" } else { "sim" };
            let ts = rng.gen_range(0..2_000_000u64);
            let mut e = if rng.gen::<bool>() {
                Event::span(name, cat, ts, rng.gen_range(0..1_000_000u64))
            } else {
                Event::instant(name, cat, ts)
            }
            .tid(rng.gen_range(0..4u32));
            if rng.gen::<bool>() {
                e = e.arg("stage", rng.gen_range(0..5u64));
            }
            if rng.gen::<bool>() {
                let o = rng.gen_range(0..5u64);
                e = e.arg("producer", o).arg("op", o).arg("node", o);
            }
            if rng.gen::<bool>() {
                let f = rng.gen::<bool>();
                e = e.arg("ok", f).arg("failed", f).arg("replicated", f);
            }
            if rng.gen::<bool>() {
                let f = match rng.gen_range(0..3u8) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => rng.gen_range(-10.0..10.0),
                };
                e = e.arg("lost_s", f).arg("pred_cost_s", f);
            }
            e
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checker_never_panics_on_event_soup(
        n in 2usize..6,
        mask_bits in any::<u64>(),
        seed in any::<u64>(),
        len in 0usize..40,
        with_plan in any::<bool>(),
    ) {
        let sc = scenario_from(n, mask_bits, seed);
        let sp = engine_stage_plan(&sc);
        let plan = with_plan.then_some(&sp);
        let report = check_trace("soup", &soup(seed, len), plan, &CheckOptions::default());
        // Whatever it found, rendering and serialization hold up too.
        let _ = report.render();
        let _ = serde_json::to_string(&report).expect("reports serialize");
    }
}
