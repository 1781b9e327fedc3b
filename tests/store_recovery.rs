//! Crash-recovery integration tests for the durable checkpoint store:
//! a query checkpointed to a [`DiskBackend`] must resume bit-identically
//! after a genuine "process restart" (all handles dropped, directory
//! reopened by a fresh instance), and corrupted or torn segments must be
//! detected and healed by re-execution — never by a panic. A torn segment
//! or a damaged frame header is found when the store opens; a corrupted
//! image is found by checksum at its first read.
#![cfg(not(miri))]

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use ftpde::core::collapse::CollapsedPlan;
use ftpde::core::config::MatConfig;
use ftpde::engine::prelude::*;
use ftpde::obs::MemoryRecorder;
use ftpde::store::codec::{FRAME_HEADER_LEN, HEADER_LEN, LOG_HEADER_LEN};
use ftpde::store::disk::{SegmentReport, LOG_FILE};
use ftpde::tpch::datagen::Database;

const SF: f64 = 0.001;
const SEED: u64 = 42;

/// A unique scratch directory per call, so tests (and proptest cases)
/// never share store state.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ftpde-store-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn catalog(nodes: usize) -> Catalog {
    load_catalog(&Database::generate(SF, SEED), nodes)
}

fn stage_count(plan: &EnginePlan, config: &MatConfig) -> usize {
    CollapsedPlan::collapse(&plan.to_plan_dag(), config, 1.0).len()
}

/// The operators whose segments a run read: the cross-stage inputs of
/// every stage it executed.
fn ops_read(plan: &EnginePlan, config: &MatConfig, run: &RunReport) -> Vec<u32> {
    let collapsed = CollapsedPlan::collapse(&plan.to_plan_dag(), config, 1.0);
    let mut read: Vec<u32> = run
        .stage_timings
        .iter()
        .filter(|t| !t.skipped)
        .flat_map(|t| {
            let (id, _) =
                collapsed.iter().find(|(_, c)| c.root.0 == t.stage).expect("a stage is a root");
            collapsed.inputs(id).iter().map(|&input| collapsed.op(input).root.0)
        })
        .collect();
    read.sort_unstable();
    read.dedup();
    read
}

/// Runs `plan` without failures on a fresh disk store in `dir`, then drops
/// the store.
fn checkpoint(plan: &EnginePlan, config: &MatConfig, catalog: &Catalog, dir: &Path) -> RunReport {
    let disk = DiskBackend::open(dir).unwrap();
    run_query_resumable(
        plan,
        config,
        catalog,
        &FailureInjector::none(),
        &RunOptions::default(),
        &disk,
    )
}

/// The bytes of a committed segment's image in the log.
fn image(s: &SegmentReport) -> Range<u64> {
    s.offset..s.offset + HEADER_LEN as u64 + s.payload_bytes
}

/// The bytes of a committed segment's whole frame in the log.
fn frame(s: &SegmentReport) -> Range<u64> {
    s.offset - FRAME_HEADER_LEN as u64..image(s).end
}

/// XORs the log byte at `at` with `mask`.
fn flip_log_byte(dir: &Path, at: u64, mask: u8) {
    let path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[at as usize] ^= mask;
    std::fs::write(&path, &bytes).unwrap();
}

/// Cuts the log to its first `len` bytes.
fn cut_log(dir: &Path, len: u64) {
    let log = std::fs::OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap();
    log.set_len(len).unwrap();
}

/// Flips the last byte of the first committed segment whose operator
/// `pick` accepts, inside its image. Returns the image's offset.
fn flip_a_byte(dir: &Path, pick: impl Fn(u32) -> bool) -> u64 {
    let report = ftpde::store::inspect(dir).unwrap();
    let victim = report.segments.iter().find(|s| pick(s.op)).expect("a segment to damage");
    flip_log_byte(dir, image(victim).end - 1, 0x01);
    victim.offset
}

/// Reopens the store in `dir` and resumes `plan` from it with a recorder.
fn resume_traced(
    plan: &EnginePlan,
    config: &MatConfig,
    catalog: &Catalog,
    dir: &Path,
) -> (RunReport, MemoryRecorder) {
    let reopened = DiskBackend::open(dir).unwrap();
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    let run =
        run_query_resumable(plan, config, catalog, &FailureInjector::none(), &opts, &reopened);
    (run, rec)
}

/// Kills the first attempt of every non-sink stage on every node: any
/// stage that actually *executes* (instead of resuming from the store)
/// trips it.
fn poison_non_sinks(plan: &EnginePlan, nodes: usize) -> FailureInjector {
    let sinks = plan.sinks();
    let poison: Vec<Injection> = plan
        .op_ids()
        .filter(|id| !sinks.contains(id))
        .flat_map(|id| (0..nodes).map(move |n| Injection { stage: id.0, node: n, attempt: 0 }))
        .collect();
    FailureInjector::with(poison)
}

/// The tentpole end-to-end: Q5 all-mat checkpointed to disk under injected
/// node failures, then resumed by a *brand-new* backend instance after
/// every handle is gone. The resumed run must skip every non-sink stage
/// and reproduce the first run's rows bit-for-bit — which must in turn
/// match an in-memory run of the same query.
#[test]
fn disk_store_survives_a_process_restart() {
    let plan = q5_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let nodes = 4;
    let catalog = catalog(nodes);
    let dir = scratch("restart");

    // Ground truth on the in-memory backend.
    let mem = MemBackend::new();
    let mem_run = run_query_resumable(
        &plan,
        &config,
        &catalog,
        &FailureInjector::none(),
        &RunOptions::default(),
        &mem,
    );

    // First submission on disk, with mid-query node failures for spice.
    let stage_roots: Vec<u32> = plan.op_ids().map(|id| id.0).collect();
    let injector = FailureInjector::random_first_attempts(&stage_roots, nodes, 0.4, 7);
    let first = {
        let disk = DiskBackend::open(&dir).unwrap();
        run_query_resumable(&plan, &config, &catalog, &injector, &RunOptions::default(), &disk)
        // `disk` dropped here: the only warm state left is the directory.
    };
    assert_eq!(first.results, mem_run.results, "disk and mem backends must agree");
    assert_eq!(first.stages_skipped, 0);

    // "Process restart": a fresh backend recovers everything from the
    // log, and the resumed query executes nothing but the sink.
    let reopened = DiskBackend::open(&dir).unwrap();
    assert!(!reopened.is_empty(), "the log must repopulate the store");
    let resumed = run_query_resumable(
        &plan,
        &config,
        &catalog,
        &poison_non_sinks(&plan, nodes),
        &RunOptions::default(),
        &reopened,
    );
    assert_eq!(resumed.stages_skipped as usize, stage_count(&plan, &config) - 1);
    assert_eq!(resumed.segments_corrupt, 0);
    assert_eq!(resumed.results, first.results, "resume must be bit-identical");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn segment (the last frame's image cut short, as a crash mid-append
/// leaves it) is detected at reopen, surfaced as a `segment_corrupt`
/// event, and healed by re-executing only its producer — the rest of the
/// plan still resumes from the store.
#[test]
fn torn_segment_is_detected_and_reexecuted() {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let nodes = 3;
    let catalog = catalog(nodes);
    let dir = scratch("torn");

    let first = {
        let disk = DiskBackend::open(&dir).unwrap();
        run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &disk,
        )
    };

    // Tear the last frame's image in half. Sinks are never materialized,
    // so the frame holds a non-sink segment.
    let sink = plan.sinks()[0];
    let report = ftpde::store::inspect(&dir).unwrap();
    let victim = report.segments.iter().max_by_key(|s| s.offset).expect("a segment is stored");
    assert_ne!(victim.op, sink.0);
    let torn = image(victim);
    cut_log(&dir, torn.start + (torn.end - torn.start) / 2);

    let reopened = DiskBackend::open(&dir).unwrap();
    let rec = MemoryRecorder::new();
    let opts = RunOptions { rec: &rec, ..Default::default() };
    let resumed =
        run_query_resumable(&plan, &config, &catalog, &FailureInjector::none(), &opts, &reopened);
    assert_eq!(resumed.results, first.results);
    assert!(resumed.segments_corrupt >= 1, "the torn segment must be reported");
    // Exactly the victim stage and the sink re-execute.
    assert_eq!(resumed.stages_skipped as usize, stage_count(&plan, &config) - 2);
    let events = rec.events();
    let corrupt: Vec<_> = events.iter().filter(|e| e.name == "segment_corrupt").collect();
    assert!(!corrupt.is_empty(), "a segment_corrupt instant must be traced");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Produces the CI artifact: a clean `ftpde store --verify`-equivalent
/// JSON report of a real checkpointed query at `target/store/verify.json`,
/// then proves the same report flags a flipped payload byte.
#[test]
fn verify_report_artifact_and_corruption_flagging() {
    let plan = q3_engine_plan();
    let dag = plan.to_plan_dag();
    let config = MatConfig::all(&dag);
    let catalog = catalog(3);
    let dir = scratch("verify");
    {
        let disk = DiskBackend::open(&dir).unwrap();
        run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &disk,
        );
    }

    let clean = ftpde::store::verify(&dir).unwrap();
    assert!(clean.is_clean(), "fresh store must verify clean: {clean:?}");
    assert!(!clean.segments.is_empty());
    std::fs::create_dir_all("target/store").unwrap();
    std::fs::write("target/store/verify.json", serde_json::to_string_pretty(&clean).unwrap())
        .unwrap();

    // Flip one payload byte: verify must flag exactly that segment.
    let victim = &clean.segments[0];
    flip_log_byte(&dir, image(victim).end - 1, 0x01);
    let flagged = ftpde::store::verify(&dir).unwrap();
    assert!(!flagged.is_clean());
    assert_eq!(flagged.corrupt, 1);
    let bad = flagged.segments.iter().find(|s| s.offset == victim.offset).unwrap();
    assert_ne!(bad.status, "ok");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte keeps the segment's length, so the store opens clean.
/// When the byte sits in a segment of the sink's input, the sink's input
/// check reads it, finds the bad checksum and rewinds: the trace shows
/// `segment_corrupt` and then `input_rewind`, and re-executing the
/// producer reproduces the first run's rows.
#[test]
fn flipped_byte_in_a_segment_the_sink_reads_is_found_on_first_read() {
    let plan = q3_engine_plan();
    let config = MatConfig::all(&plan.to_plan_dag());
    let catalog = catalog(3);
    let dir = scratch("flip-read");
    let first = checkpoint(&plan, &config, &catalog, &dir);
    let input = plan.op(plan.sinks()[0]).inputs[0];
    flip_a_byte(&dir, |op| op == input.0);

    let (resumed, rec) = resume_traced(&plan, &config, &catalog, &dir);
    assert_eq!(resumed.results, first.results);
    assert_eq!(resumed.segments_corrupt, 1);
    let recovery: Vec<String> = rec
        .events()
        .into_iter()
        .map(|e| e.name)
        .filter(|n| n == "segment_corrupt" || n == "input_rewind")
        .collect();
    assert_eq!(recovery, ["segment_corrupt", "input_rewind"]);
    assert!(
        resumed.stage_timings.iter().any(|t| t.stage == input.0 && !t.skipped),
        "the producer re-executes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte in a segment no executed stage reads goes unreported by
/// the run, whose rows are unaffected; `verify` still flags it.
#[test]
fn flipped_byte_in_an_unread_segment_is_left_to_verify() {
    let plan = q3_engine_plan();
    let config = MatConfig::all(&plan.to_plan_dag());
    let catalog = catalog(3);
    let dir = scratch("flip-unread");
    let first = checkpoint(&plan, &config, &catalog, &dir);
    let input = plan.op(plan.sinks()[0]).inputs[0];
    let offset = flip_a_byte(&dir, |op| op != input.0);

    let (resumed, rec) = resume_traced(&plan, &config, &catalog, &dir);
    assert_eq!(resumed.results, first.results);
    assert_eq!(resumed.segments_corrupt, 0);
    assert!(!rec.events().iter().any(|e| e.name == "segment_corrupt"));
    assert_eq!(ops_read(&plan, &config, &resumed), [input.0], "only the sink executed");
    let report = ftpde::store::verify(&dir).unwrap();
    assert_eq!(report.corrupt, 1);
    let bad = report.segments.iter().find(|s| s.status != "ok").unwrap();
    assert_eq!(bad.offset, offset);
    assert!(bad.status.contains("checksum"), "{}", bad.status);
    let _ = std::fs::remove_dir_all(&dir);
}

/// How `random_segment_damage_recovers_bit_identically` damages a
/// segment.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Flip a byte of its image: found at its first read.
    ImageFlip,
    /// Flip a byte of its frame header: found at open.
    HeaderFlip,
    /// Cut the log inside its image: found at open.
    Cut,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary single-segment damage — a flipped image byte, a flipped
    /// frame-header byte or a cut inside the image — never panics, and the
    /// resumed rows are bit-identical. A header flip or a cut is found
    /// when the store opens (it ends the log there, so every later frame
    /// is re-executed too) and an image flip when the segment is first
    /// read; either surfaces a `segment_corrupt` event. An image flip in a
    /// segment the resumed run never reads is not reported by the run:
    /// `verify` flags exactly that segment, and the first read after a
    /// fresh open finds it.
    #[test]
    fn random_segment_damage_recovers_bit_identically(
        which_segment in any::<u32>(),
        offset_frac in 0.0f64..1.0,
        mode in 0usize..3,
    ) {
        let damage = [Damage::ImageFlip, Damage::HeaderFlip, Damage::Cut][mode];
        let plan = q3_engine_plan();
        let dag = plan.to_plan_dag();
        let config = MatConfig::all(&dag);
        let catalog = catalog(2);
        let dir = scratch("prop");

        let first = checkpoint(&plan, &config, &catalog, &dir);

        let report = ftpde::store::inspect(&dir).unwrap();
        let victim = &report.segments[which_segment as usize % report.segments.len()];
        // Every damage is guaranteed to be found: every image byte is
        // either a checked segment-header field or CRC-covered payload,
        // every frame-header byte is covered by the header's CRC, and a
        // cut inside an image leaves it shorter than its frame declares.
        let at = |r: Range<u64>| r.start + ((r.end - r.start - 1) as f64 * offset_frac) as u64;
        let header = frame(victim).start..victim.offset;
        match damage {
            Damage::ImageFlip => flip_log_byte(&dir, at(image(victim)), 0xFF),
            Damage::HeaderFlip => flip_log_byte(&dir, at(header), 0xFF),
            Damage::Cut => cut_log(&dir, at(image(victim))),
        }

        let (resumed, rec) = resume_traced(&plan, &config, &catalog, &dir);
        prop_assert_eq!(&resumed.results, &first.results);
        let image_flip = matches!(damage, Damage::ImageFlip);
        if !image_flip || ops_read(&plan, &config, &resumed).contains(&victim.op) {
            prop_assert!(resumed.segments_corrupt >= 1);
            prop_assert!(rec.events().iter().any(|e| e.name == "segment_corrupt"));
        } else {
            prop_assert_eq!(resumed.segments_corrupt, 0);
            let flagged = ftpde::store::verify(&dir).unwrap();
            let bad: Vec<u64> = flagged
                .segments
                .iter()
                .filter(|s| s.status != "ok")
                .map(|s| s.offset)
                .collect();
            prop_assert_eq!(bad, [victim.offset]);
            let fresh = DiskBackend::open(&dir).unwrap();
            prop_assert!(fresh.get(victim.op, victim.node.unwrap_or(0)).is_none());
            let drained = fresh.drain_corruptions();
            prop_assert_eq!(drained.len(), 1);
            prop_assert_eq!((drained[0].op, drained[0].node), (victim.op, victim.node));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash-point sweep of the log on Q3 all-mat. The log is cut at every
/// frame boundary and at every offset inside its last frame, and each
/// byte of one frame header in the middle of the log is flipped. In every
/// case `open` keeps exactly the frames before the damage and reports what
/// the recovery contract says: nothing for a cut at a boundary or inside
/// a frame header, one corruption for a cut inside an image or a bad
/// header. The resumed rows equal the first run's.
#[test]
fn crash_point_sweep_keeps_exactly_the_frames_before_the_damage() {
    let plan = q3_engine_plan();
    let config = MatConfig::all(&plan.to_plan_dag());
    let catalog = catalog(2);
    let dir = scratch("sweep");
    let first = checkpoint(&plan, &config, &catalog, &dir);
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();

    // A failure-free all-mat run puts every slot once, so its segments
    // are the log's frames, back to back.
    let mut frames = ftpde::store::inspect(&dir).unwrap().segments;
    frames.sort_by_key(|s| s.offset);
    let mut next = LOG_HEADER_LEN as u64;
    for f in &frames {
        assert_eq!(frame(f).start, next, "frames are contiguous");
        next = frame(f).end;
    }
    assert_eq!(next, log.len() as u64);

    let case = |what: String, bytes: &[u8], kept: usize, reports: usize| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_FILE), bytes).unwrap();
        let store = DiskBackend::open(&dir).unwrap();
        let drained = store.drain_corruptions();
        assert_eq!(drained.len(), reports, "{what}: {drained:?}");
        let slots = |segments: &[SegmentReport]| {
            let mut slots: Vec<_> = segments.iter().map(|s| (s.op, s.node)).collect();
            slots.sort_unstable();
            slots
        };
        let kept_slots = slots(&ftpde::store::inspect(&dir).unwrap().segments);
        assert_eq!(kept_slots, slots(&frames[..kept]), "{what}");
        let run = run_query_resumable(
            &plan,
            &config,
            &catalog,
            &FailureInjector::none(),
            &RunOptions::default(),
            &store,
        );
        assert_eq!(run.results, first.results, "{what}");
        assert_eq!(run.segments_corrupt, 0, "{what}");
    };

    let boundaries =
        std::iter::once(LOG_HEADER_LEN as u64).chain(frames.iter().map(|f| frame(f).end));
    for (kept, at) in boundaries.enumerate() {
        case(format!("cut at boundary {at}"), &log[..at as usize], kept, 0);
    }
    let last = frames.last().unwrap();
    for at in frame(last).start + 1..frame(last).end {
        let in_image = at >= last.offset;
        case(format!("cut at {at}"), &log[..at as usize], frames.len() - 1, usize::from(in_image));
    }
    let middle = frames.len() / 2;
    for at in frame(&frames[middle]).start..frames[middle].offset {
        let mut bytes = log.clone();
        bytes[at as usize] ^= 0x5A;
        case(format!("flip at {at}"), &bytes, middle, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fsyncs are an exactly gated counter: on a fresh disk store every
/// committed segment costs one, and creating the log one more — at 1 and
/// 3 nodes, with and without first-attempt node kills.
#[test]
fn fsyncs_are_one_per_segment_plus_one_for_the_log() {
    let mut kills = 0;
    for plan in [q3_engine_plan(), q5_engine_plan()] {
        let config = MatConfig::all(&plan.to_plan_dag());
        let roots: Vec<u32> = plan.op_ids().map(|id| id.0).collect();
        for nodes in [1, 3] {
            let catalog = catalog(nodes);
            let injectors = [
                FailureInjector::none(),
                FailureInjector::random_first_attempts(&roots, nodes, 0.5, 11),
            ];
            for injector in &injectors {
                let store = DiskBackend::ephemeral().unwrap();
                let run = run_query_resumable(
                    &plan,
                    &config,
                    &catalog,
                    injector,
                    &RunOptions::default(),
                    &store,
                );
                kills += run.node_retries;
                let stats = store.stats();
                assert!(stats.segments_committed > 0);
                assert_eq!(
                    stats.fsyncs,
                    stats.segments_committed + 1,
                    "{nodes} node(s), {} kill(s)",
                    run.node_retries
                );
            }
        }
    }
    assert!(kills > 0, "the kill runs must kill");
}
