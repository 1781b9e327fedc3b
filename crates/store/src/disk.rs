//! The durable backend: one append-only checkpoint log per store
//! directory.
//!
//! # Layout
//!
//! ```text
//! <dir>/store.log      the log header, then one frame per commit
//! <dir>/store.log.tmp  an interrupted `clear`; never valid after a crash
//! ```
//!
//! A frame is a fixed header followed by its image ([`crate::codec`] has
//! the byte layout). A *segment* frame's image is one segment exactly as
//! [`codec::build_segment`] builds it; its header names the slot, the
//! fan-out, the row count, the image length and the payload CRC. A
//! *tombstone* frame removes a demoted slot, and a *stats* frame opens a
//! cleared log or records an open-time repair. Every frame header holds
//! the store's [`StoreStats`] once it is committed, and its own CRC-32.
//!
//! # Commit protocol
//!
//! A put appends one frame and calls `sync_data` once; the put that
//! creates the log writes the log header with it and also fsyncs the
//! directory. A slot is committed once its frame is synced and stays so
//! until a later frame replaces it: a later frame for the same slot wins,
//! a replicated put replaces every partition of its operator, a per-node
//! put replaces a replicated segment that covers its node, and a
//! tombstone removes its slot. A demotion appends a tombstone (one
//! fsync). `clear` rewrites the log as one stats frame: `.tmp`,
//! `sync_all`, rename, directory fsync (two fsyncs); if that fails, the
//! old log stays whole. Committed frames are never rewritten in place,
//! so a crash leaves the last committed state plus at most a partial
//! last frame.
//!
//! # Recovery contract
//!
//! [`DiskBackend::open`] scans the frame headers from the start, reading
//! no image. The stats of the last good frame become the store's lifetime
//! stats.
//!
//! * A tail shorter than a frame header is an interrupted append. It is
//!   cut without a report, as `.tmp` debris is swept.
//! * A frame header that fails its CRC ends the log: the log is cut there
//!   and one [`CorruptSegment`] with `op: u32::MAX` is reported.
//! * A frame whose image runs past the end of the file is a torn segment:
//!   the log is cut at its header and a [`CorruptSegment`] naming its op
//!   and node is reported. To the coordinator a corrupt segment is simply
//!   "not materialized", so the producing stage re-runs.
//! * A log with a foreign magic or version, and a directory in the old
//!   layout (`MANIFEST.json` and `seg-*.seg` files), are reported as one
//!   `op: u32::MAX` corruption and start over as an empty log.
//!
//! Every repair is synced before `open` returns, together with a stats
//! frame that counts the corruption, so a second open reports nothing.
//!
//! The payload checksum is checked at a slot's first `get`: it reads the
//! image at its offset, runs [`codec::parse_segment`] (magic, version,
//! flags, length, CRC), checks identity, row count and CRC against the
//! frame, decodes, caches, and demotes the slot on any failure. So a
//! resume pays only for the segments it reads, and every row it consumes
//! is checked exactly once. What this means for callers:
//!
//! * Damage inside an image, such as a flipped byte, is found at the
//!   slot's first `get`, not at `open`. Until then `drain_corruptions`
//!   stays empty and `contains` and `len` count the slot.
//! * A run that reads no corrupt segment reports none. [`verify`]
//!   (`ftpde store --verify`) checksums every segment, and the first
//!   `get` that needs a corrupt one finds it; its rows never reach a
//!   result.
//! * A run that does read one has already counted its producer as a
//!   skipped stage; the coordinator's input check then rewinds to the
//!   producer and re-executes it.
//!
//! # Concurrent readers
//!
//! [`inspect`] and [`verify`] only read the log, so they may run while a
//! writer appends to it. A last frame whose header or image is still
//! incomplete is listed in [`StoreReport::orphans`] as an uncommitted
//! tail, not counted as corrupt; a frame header that fails its CRC is
//! counted.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ftpde_obs::sync::clock;
use ftpde_obs::Summary;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::codec::{self, encoded_rows_len, CodecError, FrameHeader, FrameKind};
use crate::stats::StoreStats;
use crate::value::Row;
use crate::{CorruptSegment, StoreBackend};

/// File name of the checkpoint log inside a store directory.
pub const LOG_FILE: &str = "store.log";
/// The old layout's root file: its presence marks a directory this build
/// does not read.
const OLD_MANIFEST: &str = "MANIFEST.json";

/// One committed segment: its slot and where its image lies in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    op: u32,
    node: Option<usize>,
    /// Number of nodes a replicated segment serves (1 for per-node).
    nodes: usize,
    rows: u64,
    payload_crc: u32,
    /// Byte offset of the image in the log.
    offset: u64,
    /// Image length: [`codec::HEADER_LEN`] plus the payload.
    len: u64,
}

impl Entry {
    /// Whether this entry makes `(op, node)` visible.
    fn covers(&self, op: u32, node: usize) -> bool {
        self.op == op && self.node.map_or(node < self.nodes, |n| n == node)
    }
}

/// Applies one committed frame, whose image starts at `offset`, to the
/// slot index.
fn apply(entries: &mut Vec<Entry>, frame: &FrameHeader, offset: u64) {
    let (op, node) = (frame.op, frame.node);
    match frame.kind {
        FrameKind::Segment => {
            entries.retain(|e| !node.map_or(e.op == op, |n| e.covers(op, n)));
            entries.push(Entry {
                op,
                node,
                nodes: frame.nodes,
                rows: frame.rows,
                payload_crc: frame.payload_crc,
                offset,
                len: frame.image_len,
            });
        }
        FrameKind::Tombstone => entries.retain(|e| (e.op, e.node) != (op, node)),
        FrameKind::Stats => {}
    }
}

#[derive(Debug)]
struct DiskInner {
    entries: Vec<Entry>,
    stats: StoreStats,
    /// The log, positioned at `end`; `None` until a commit creates it.
    log: Option<File>,
    /// Length of the log's committed prefix: where the next frame goes.
    end: u64,
    cache: HashMap<(u32, usize), Arc<Vec<Row>>>,
    corruptions: Vec<CorruptSegment>,
}

impl DiskInner {
    /// Fsyncs the next append costs: one, plus the directory's when the
    /// append creates the log.
    fn append_fsyncs(&self) -> u64 {
        1 + u64::from(self.log.is_none())
    }

    /// Caches a segment's rows on the partition it covers, or on all
    /// `nodes` partitions of a replicated segment.
    fn cache(&mut self, op: u32, node: Option<usize>, nodes: usize, rows: &Arc<Vec<Row>>) {
        match node {
            Some(n) => {
                self.cache.insert((op, n), Arc::clone(rows));
            }
            None => {
                for n in 0..nodes {
                    self.cache.insert((op, n), Arc::clone(rows));
                }
            }
        }
    }
}

/// Durable checkpoint storage rooted at a directory.
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    remove_on_drop: bool,
    inner: Mutex<DiskInner>,
}

impl DiskBackend {
    /// Opens (creating if absent) a store directory: sweeps debris, scans
    /// the log's frame headers and cuts the log at the first damaged or
    /// incomplete frame, reading no image. Damage is reported via
    /// [`StoreBackend::drain_corruptions`], never as an error, and every
    /// repair is synced before this returns. Checksums are checked by each
    /// slot's first [`StoreBackend::get`] (see the module's recovery
    /// contract), and by [`verify`] for the whole directory.
    ///
    /// # Errors
    /// Only real I/O failures (permissions, disk full) — corruption is
    /// handled, not propagated.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut corruptions = Vec::new();
        let whole_store = |reason: String| CorruptSegment { op: u32::MAX, node: None, reason };

        // Sweep interrupted rewrites, and the old layout this build does
        // not read.
        let mut old_layout = false;
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            old_layout |= name == OLD_MANIFEST;
            if name == OLD_MANIFEST || name.ends_with(".seg") || name.ends_with(".tmp") {
                let _ = fs::remove_file(dirent.path());
            }
        }
        if old_layout {
            corruptions.push(whole_store(format!(
                "old store layout ({OLD_MANIFEST} and segment files) swept: this build reads \
                 only {LOG_FILE}"
            )));
        }

        let path = dir.join(LOG_FILE);
        let mut log = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let scan = match log.as_mut() {
            Some(file) => scan_log(file)?,
            None => Scan::default(),
        };
        let (entries, mut stats) = replay(&scan.frames);
        match &scan.damage {
            Some(Damage::Foreign(e)) => corruptions.push(whole_store(format!("{LOG_FILE}: {e}"))),
            Some(Damage::BadHeader(e)) => corruptions
                .push(whole_store(format!("{LOG_FILE}: frame at offset {}: {e}", scan.end))),
            Some(Damage::TornImage(frame)) => corruptions.push(CorruptSegment {
                op: frame.op,
                node: frame.node,
                reason: format!(
                    "torn segment: its frame at offset {} declares {} image bytes, the log \
                     holds {}",
                    scan.end,
                    frame.image_len,
                    scan.len.saturating_sub(scan.end + codec::FRAME_HEADER_LEN as u64)
                ),
            }),
            Some(Damage::ShortTail) | None => {}
        }

        // Repair: cut the log after its last good frame and append a stats
        // frame that counts what was reported, or start a fresh log when
        // no good log header is left.
        let mut end = scan.end;
        if scan.damage.is_some() || !corruptions.is_empty() {
            stats.corrupt_segments += corruptions.len() as u64;
            match log.as_mut().filter(|_| end >= codec::LOG_HEADER_LEN as u64) {
                Some(file) => {
                    stats.fsyncs += 1;
                    file.set_len(end)?;
                    file.seek(SeekFrom::Start(end))?;
                    write_frame(file, &FrameHeader::stats(stats), &[])?;
                    end += codec::FRAME_HEADER_LEN as u64;
                }
                None => {
                    stats.fsyncs += 2;
                    let (file, new_end) = rewrite(&dir, &stats)?;
                    log = Some(file);
                    end = new_end;
                }
            }
        } else if let Some(file) = log.as_mut() {
            file.seek(SeekFrom::Start(end))?;
        }

        Ok(DiskBackend {
            dir,
            remove_on_drop: false,
            inner: Mutex::new(DiskInner {
                entries,
                stats,
                log,
                end,
                cache: HashMap::new(),
                corruptions,
            }),
        })
    }

    /// Opens a store in a fresh unique temporary directory that is
    /// removed when the backend is dropped. Used by tests and benches.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn ephemeral() -> io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ftpde-store-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = Self::open(dir)?;
        store.remove_on_drop = true;
        Ok(store)
    }

    /// The directory this store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one frame and its image to the log and syncs them: one
    /// `sync_data`, plus a directory fsync when the append creates the
    /// log ([`DiskInner::append_fsyncs`]). Returns the image's offset. A
    /// failed append is cut back off, so the log still ends at its last
    /// committed frame.
    fn append(&self, inner: &mut DiskInner, frame: &FrameHeader, image: &[u8]) -> io::Result<u64> {
        let created = inner.log.is_none();
        let (mut file, start) = match inner.log.take() {
            Some(file) => (file, inner.end),
            None => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(self.dir.join(LOG_FILE))?;
                file.write_all(&codec::log_header())?;
                (file, codec::LOG_HEADER_LEN as u64)
            }
        };
        let mut written = write_frame(&mut file, frame, image);
        if created && written.is_ok() {
            written = sync_dir(&self.dir);
        }
        if let Err(e) = written {
            let _ = file.set_len(start).and_then(|()| file.seek(SeekFrom::Start(start)));
            // A log this append created is created again by the next one,
            // which then fsyncs the directory.
            if !created {
                inner.log = Some(file);
            }
            return Err(e);
        }
        let offset = start + codec::FRAME_HEADER_LEN as u64;
        inner.log = Some(file);
        inner.end = offset + image.len() as u64;
        Ok(offset)
    }

    fn put_segment(&self, op: u32, node: Option<usize>, nodes: usize, rows: Vec<Row>) {
        let started = clock::now();
        let (header, image) = codec::build_segment(op, node, &rows);
        let logical_copies = if node.is_some() { 1 } else { nodes as u64 };
        let row_count = rows.len() as u64;
        let raw_bytes = encoded_rows_len(&rows);
        let physical = image.len() as u64;
        let shared = Arc::new(rows);

        let mut inner = self.inner.lock();
        let fsyncs = inner.append_fsyncs();
        let mut stats = inner.stats;
        stats.fsyncs += fsyncs;
        stats.logical_rows_written += row_count * logical_copies;
        stats.logical_bytes_written += raw_bytes * logical_copies;
        stats.physical_rows_written += row_count;
        stats.physical_bytes_written += physical;
        stats.segments_committed += 1;
        // The frame records the time spent so far; its own write and sync
        // are counted in memory once they are done.
        let write_seconds = stats.write_seconds;
        stats.write_seconds += clock::elapsed(started).as_secs_f64();
        let frame = FrameHeader::segment(&header, nodes, stats);
        let appended = self.append(&mut inner, &frame, &image);
        let offset = appended.unwrap_or_else(|e| panic!("store: failed to commit op {op}: {e}"));
        apply(&mut inner.entries, &frame, offset);
        inner.cache(op, node, nodes, &shared);
        stats.write_seconds = write_seconds + clock::elapsed(started).as_secs_f64();
        inner.stats = stats;
    }

    /// Demotes a corrupt segment: append a tombstone, drop the entry and
    /// record the corruption.
    fn demote(&self, inner: &mut DiskInner, entry: &Entry, reason: String) {
        let fsyncs = inner.append_fsyncs();
        let mut stats = inner.stats;
        stats.corrupt_segments += 1;
        stats.fsyncs += fsyncs;
        let frame = FrameHeader::tombstone(entry.op, entry.node, stats);
        if self.append(inner, &frame, &[]).is_err() {
            stats.fsyncs -= fsyncs;
        }
        inner.entries.retain(|e| e != entry);
        inner.stats = stats;
        inner.corruptions.push(CorruptSegment { op: entry.op, node: entry.node, reason });
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        if self.remove_on_drop {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

impl StoreBackend for DiskBackend {
    fn put(&self, op: u32, node: usize, rows: Vec<Row>) {
        self.put_segment(op, Some(node), 1, rows);
    }

    fn put_replicated(&self, op: u32, rows: Vec<Row>, nodes: usize) {
        self.put_segment(op, None, nodes, rows);
    }

    fn get(&self, op: u32, node: usize) -> Option<Arc<Vec<Row>>> {
        let started = clock::now();
        let mut inner = self.inner.lock();
        if let Some(rows) = inner.cache.get(&(op, node)) {
            let rows = Arc::clone(rows);
            let bytes = encoded_rows_len(&rows);
            let elapsed = clock::elapsed(started).as_secs_f64();
            inner.stats.rows_read += rows.len() as u64;
            inner.stats.bytes_read += bytes;
            inner.stats.read_seconds += elapsed;
            return Some(rows);
        }
        let entry = inner.entries.iter().find(|e| e.covers(op, node))?.clone();
        let read = File::open(self.dir.join(LOG_FILE))
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|mut log| read_entry(&mut log, &entry));
        match read {
            Ok(rows) => {
                let shared = Arc::new(rows);
                inner.cache(op, entry.node, entry.nodes, &shared);
                let payload_bytes = entry.len - codec::HEADER_LEN as u64;
                let elapsed = clock::elapsed(started).as_secs_f64();
                let stats = &mut inner.stats;
                stats.rows_read += shared.len() as u64;
                stats.bytes_read += payload_bytes;
                stats.read_seconds += elapsed;
                Some(shared)
            }
            Err(reason) => {
                self.demote(&mut inner, &entry, reason);
                None
            }
        }
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        let inner = self.inner.lock();
        inner.cache.contains_key(&(op, node)) || inner.entries.iter().any(|e| e.covers(op, node))
    }

    fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.cache.clear();
        // Lifetime stats survive (and are re-persisted) — a coarse query
        // restart must keep the write volume it already cost.
        let mut stats = inner.stats;
        stats.fsyncs += 2;
        if let Ok((file, end)) = rewrite(&self.dir, &stats) {
            inner.log = Some(file);
            inner.end = end;
            inner.stats = stats;
        }
    }

    fn len(&self) -> usize {
        let inner = self.inner.lock();
        let mut slots: Vec<(u32, usize)> = inner.cache.keys().copied().collect();
        for e in &inner.entries {
            match e.node {
                Some(n) => slots.push((e.op, n)),
                None => slots.extend((0..e.nodes).map(|n| (e.op, n))),
            }
        }
        slots.sort_unstable();
        slots.dedup();
        slots.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        std::mem::take(&mut self.inner.lock().corruptions)
    }
}

/// Writes one frame and its image at the log's position and syncs them.
fn write_frame(log: &mut File, frame: &FrameHeader, image: &[u8]) -> io::Result<()> {
    log.write_all(&codec::encode_frame(frame))?;
    log.write_all(image)?;
    log.sync_data()
}

/// Fsyncs a directory so a created or renamed entry survives power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Atomically replaces the log with one holding a single stats frame:
/// write `.tmp`, `sync_all`, rename, fsync the directory. Returns the new
/// log, positioned at its end, and its length.
fn rewrite(dir: &Path, stats: &StoreStats) -> io::Result<(File, u64)> {
    let tmp = dir.join(format!("{LOG_FILE}.tmp"));
    let mut file =
        OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&tmp)?;
    file.write_all(&codec::log_header())?;
    file.write_all(&codec::encode_frame(&FrameHeader::stats(*stats)))?;
    file.sync_all()?;
    fs::rename(&tmp, dir.join(LOG_FILE))?;
    sync_dir(dir)?;
    Ok((file, (codec::LOG_HEADER_LEN + codec::FRAME_HEADER_LEN) as u64))
}

/// Why a log's committed prefix ends before the file does.
#[derive(Debug)]
enum Damage {
    /// The file does not start with this build's log header.
    Foreign(CodecError),
    /// A tail shorter than a frame header (or than the log header): an
    /// interrupted append.
    ShortTail,
    /// A frame header that fails its CRC or names an unknown kind.
    BadHeader(CodecError),
    /// A frame whose image runs past the end of the file.
    TornImage(FrameHeader),
}

/// What a scan of a log's frame headers found.
#[derive(Debug, Default)]
struct Scan {
    /// Committed frames in log order, each with its image's offset.
    frames: Vec<(FrameHeader, u64)>,
    /// End of the committed prefix: where the damage, if any, starts.
    end: u64,
    /// File length.
    len: u64,
    damage: Option<Damage>,
}

/// Reads a log's frame headers from the start, skipping every image.
fn scan_log(file: &mut File) -> io::Result<Scan> {
    let len = file.metadata()?.len();
    let mut scan = Scan { len, ..Scan::default() };
    let mut head = [0u8; codec::LOG_HEADER_LEN];
    let have = len.min(head.len() as u64) as usize;
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut head[..have])?;
    if have < head.len() {
        // A prefix of the log header is a log whose creation was cut.
        let torn = codec::log_header().starts_with(&head[..have]);
        let foreign = Damage::Foreign(CodecError::BadLogHeader);
        scan.damage = Some(if torn { Damage::ShortTail } else { foreign });
        return Ok(scan);
    }
    if let Err(e) = codec::parse_log_header(&head) {
        scan.damage = Some(Damage::Foreign(e));
        return Ok(scan);
    }
    scan.end = codec::LOG_HEADER_LEN as u64;
    let mut frame = [0u8; codec::FRAME_HEADER_LEN];
    while scan.end < len {
        if len - scan.end < frame.len() as u64 {
            scan.damage = Some(Damage::ShortTail);
            break;
        }
        file.seek(SeekFrom::Start(scan.end))?;
        file.read_exact(&mut frame)?;
        let header = match codec::parse_frame(&frame) {
            Ok(header) => header,
            Err(e) => {
                scan.damage = Some(Damage::BadHeader(e));
                break;
            }
        };
        let image_at = scan.end + frame.len() as u64;
        if header.image_len > len - image_at {
            scan.damage = Some(Damage::TornImage(header));
            break;
        }
        scan.frames.push((header, image_at));
        scan.end = image_at + header.image_len;
    }
    Ok(scan)
}

/// Replays committed frames into the slot index and the lifetime stats:
/// those of the last frame.
fn replay(frames: &[(FrameHeader, u64)]) -> (Vec<Entry>, StoreStats) {
    let mut entries = Vec::new();
    for (frame, offset) in frames {
        apply(&mut entries, frame, *offset);
    }
    (entries, frames.last().map_or_else(StoreStats::default, |(f, _)| f.stats))
}

/// Reads and fully decodes a committed segment. Returns a corruption
/// reason on failure.
fn read_entry(log: &mut File, entry: &Entry) -> Result<Vec<Row>, String> {
    let image = read_image(log, entry)?;
    let (header, payload) = check_image(entry, &image)?;
    codec::decode_segment_rows(&header, payload).map_err(|e| e.to_string())
}

/// Reads a committed image from the log. Its length was checked against
/// the file when the log was scanned.
fn read_image(log: &mut File, entry: &Entry) -> Result<Vec<u8>, String> {
    let mut image = vec![0; entry.len as usize];
    log.seek(SeekFrom::Start(entry.offset))
        .and_then(|_| log.read_exact(&mut image))
        .map_err(|e| format!("unreadable: {e}"))?;
    Ok(image)
}

/// Verifies an image (magic, version, flags, length, CRC) and checks it
/// against its frame. Returns the header and payload.
fn check_image<'a>(
    entry: &Entry,
    image: &'a [u8],
) -> Result<(codec::SegmentHeader, &'a [u8]), String> {
    let (header, payload) = codec::parse_segment(image).map_err(|e| e.to_string())?;
    if header.op != entry.op || header.node != entry.node {
        return Err(format!(
            "segment identity mismatch: image is op {} node {:?}, its frame says op {} node {:?}",
            header.op, header.node, entry.op, entry.node
        ));
    }
    if header.rows != entry.rows || header.crc32 != entry.payload_crc {
        return Err("segment content disagrees with its frame".to_string());
    }
    Ok((header, payload))
}

// --- offline inspection (CLI) --------------------------------------------

/// One segment's status in a [`StoreReport`] (see [`inspect`] / [`verify`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Producing operator id (`u32::MAX` for a damaged frame header).
    pub op: u32,
    /// Partition index; `None` for replicated.
    pub node: Option<usize>,
    /// Replica fan-out.
    pub nodes: usize,
    /// Byte offset of the segment's image in the log (of the frame, for
    /// a damaged frame header). The image is [`codec::HEADER_LEN`] plus
    /// `payload_bytes` long.
    pub offset: u64,
    /// Row count per the frame.
    pub rows: u64,
    /// Stored payload bytes.
    pub payload_bytes: u64,
    /// Stored payload CRC-32.
    pub crc32: u32,
    /// `"ok"`, or the corruption reason.
    pub status: String,
}

/// What `ftpde store --inspect/--verify` reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// The inspected directory.
    pub dir: String,
    /// Lifetime stats recorded in the last committed frame.
    pub stats: StoreStats,
    /// Per-segment details.
    pub segments: Vec<SegmentReport>,
    /// Stray files (`.tmp` leftovers, the old layout's files) and an
    /// uncommitted tail of the log.
    pub orphans: Vec<String>,
    /// Number of segments whose status is not `"ok"`.
    pub corrupt: u64,
}

impl StoreReport {
    /// Whether every committed segment verified clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
    }

    /// Renders the report as a CLI summary table.
    pub fn to_summary(&self) -> Summary {
        let mut s = Summary::new();
        s.banner(format!("store {}", self.dir));
        let rows: Vec<Vec<String>> = self
            .segments
            .iter()
            .map(|e| {
                vec![
                    e.op.to_string(),
                    e.node.map_or_else(|| format!("rep x{}", e.nodes), |n| n.to_string()),
                    e.rows.to_string(),
                    e.payload_bytes.to_string(),
                    format!("{:08x}", e.crc32),
                    e.status.clone(),
                ]
            })
            .collect();
        s.table(&["op", "node", "rows", "bytes", "crc32", "status"], &rows);
        if !self.orphans.is_empty() {
            s.kv("orphans", self.orphans.join(", "));
        }
        s.kv("corrupt segments", self.corrupt);
        for line in self.stats.to_summary().render().lines() {
            s.line(line.to_string());
        }
        s
    }
}

/// The names of the files in `dir` other than the log, sorted.
fn stray_files(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for dirent in fs::read_dir(dir)? {
        let name = dirent?.file_name().to_string_lossy().into_owned();
        if name != LOG_FILE {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

fn report(dir: &Path, check: bool) -> io::Result<StoreReport> {
    let mut log = match File::open(dir.join(LOG_FILE)) {
        Ok(file) => file,
        // `DiskBackend::open` creates the log at the first put or repair,
        // so a directory without one is an empty store.
        Err(e) if e.kind() == io::ErrorKind::NotFound && dir.is_dir() => {
            return Ok(StoreReport {
                dir: dir.display().to_string(),
                stats: StoreStats::default(),
                segments: Vec::new(),
                orphans: stray_files(dir)?,
                corrupt: 0,
            });
        }
        Err(e) => return Err(e),
    };
    let scan = scan_log(&mut log)?;
    let (entries, stats) = replay(&scan.frames);
    let mut corrupt = 0u64;
    let mut segments: Vec<SegmentReport> = entries
        .iter()
        .map(|e| {
            let checked =
                check.then(|| read_image(&mut log, e).and_then(|i| check_image(e, &i).map(drop)));
            let status = match checked {
                Some(Err(reason)) => {
                    corrupt += 1;
                    reason
                }
                _ => "ok".to_string(),
            };
            SegmentReport {
                op: e.op,
                node: e.node,
                nodes: e.nodes,
                offset: e.offset,
                rows: e.rows,
                payload_bytes: e.len.saturating_sub(codec::HEADER_LEN as u64),
                crc32: e.payload_crc,
                status,
            }
        })
        .collect();

    let mut orphans = stray_files(dir)?;
    match scan.damage {
        Some(Damage::Foreign(e)) => {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{LOG_FILE}: {e}")))
        }
        Some(Damage::BadHeader(e)) => {
            corrupt += 1;
            segments.push(SegmentReport {
                op: u32::MAX,
                node: None,
                nodes: 0,
                offset: scan.end,
                rows: 0,
                payload_bytes: 0,
                crc32: 0,
                status: format!("frame header: {e}"),
            });
        }
        Some(Damage::ShortTail | Damage::TornImage(_)) => orphans.push(format!(
            "{LOG_FILE}: uncommitted tail of {} bytes at offset {}",
            scan.len - scan.end,
            scan.end
        )),
        None => {}
    }
    Ok(StoreReport { dir: dir.display().to_string(), stats, segments, orphans, corrupt })
}

/// Reads a store directory's log headers without touching segment images.
/// A directory without a log is an empty store, as
/// [`DiskBackend::open`] leaves it until the first put. Never modifies
/// the directory.
///
/// # Errors
/// I/O failure, a missing directory, or a log with a foreign magic or
/// version.
pub fn inspect(dir: impl AsRef<Path>) -> io::Result<StoreReport> {
    report(dir.as_ref(), false)
}

/// Re-checksums every committed segment in a store directory. Segments
/// that fail get their corruption reason in [`SegmentReport::status`] and
/// are counted in [`StoreReport::corrupt`], as is a frame header that
/// fails its CRC. Never modifies the directory.
///
/// # Errors
/// I/O failure, a missing directory, or a log with a foreign magic or
/// version — per-segment corruption is reported in the result, not as an
/// error. A directory without a log verifies as an empty store.
pub fn verify(dir: impl AsRef<Path>) -> io::Result<StoreReport> {
    report(dir.as_ref(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{int_row, row, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ftpde-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn bits(rows: &[Row]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Int(i) => *i as u64,
                        Value::Float(f) => f.to_bits(),
                    })
                    .collect()
            })
            .collect()
    }

    fn sample_rows() -> Vec<Row> {
        vec![int_row(&[1, 2, 3]), row([Value::Float(0.5), Value::Float(-0.0)]), int_row(&[9])]
    }

    /// The committed segment of `op`, as `inspect` lists it.
    fn segment(dir: &Path, op: u32) -> SegmentReport {
        inspect(dir).unwrap().segments.into_iter().find(|s| s.op == op).unwrap()
    }

    /// Offset of the last byte of `op`'s image.
    fn image_end(dir: &Path, op: u32) -> u64 {
        let s = segment(dir, op);
        s.offset + codec::HEADER_LEN as u64 + s.payload_bytes
    }

    /// XORs the log byte at `at` with `mask`, in place.
    fn flip(dir: &Path, at: u64, mask: u8) {
        let mut log = OpenOptions::new().read(true).write(true).open(dir.join(LOG_FILE)).unwrap();
        let mut byte = [0u8];
        log.seek(SeekFrom::Start(at)).unwrap();
        log.read_exact(&mut byte).unwrap();
        log.seek(SeekFrom::Start(at)).unwrap();
        log.write_all(&[byte[0] ^ mask]).unwrap();
    }

    fn log_len(dir: &Path) -> u64 {
        fs::metadata(dir.join(LOG_FILE)).unwrap().len()
    }

    /// A store holding ops 1 and 2, committed and closed.
    fn two_puts(dir: &Path) {
        let store = DiskBackend::open(dir).unwrap();
        store.put(1, 0, sample_rows());
        store.put(2, 0, sample_rows());
    }

    fn cut(dir: &Path, len: u64) {
        OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap().set_len(len).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn put_get_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(3, 1, sample_rows());
            store.put_replicated(7, vec![int_row(&[42])], 3);
            assert_eq!(bits(&store.get(3, 1).unwrap()), bits(&sample_rows()));
        }
        // Brand-new process simulation: fresh instance, cold cache.
        let store = DiskBackend::open(&dir).unwrap();
        assert!(store.drain_corruptions().is_empty());
        assert!(store.contains(3, 1));
        assert!(!store.contains(3, 0));
        assert_eq!(bits(&store.get(3, 1).unwrap()), bits(&sample_rows()));
        for node in 0..3 {
            assert_eq!(store.get(7, node).unwrap()[0][0], Value::Int(42));
        }
        let stats = store.stats();
        assert_eq!(stats.fsyncs, 3, "one per put, plus the directory's when the log is created");
        assert_eq!(stats.segments_committed, 2);
        assert!(stats.write_bytes_per_s().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn flipped_byte_is_demoted_not_fatal() {
        let dir = tmp_dir("flip");
        two_puts(&dir);
        // Flip the last payload byte of op 1's image.
        flip(&dir, image_end(&dir, 1) - 1, 0x40);

        // The flip is inside an image, so `open` keeps the slot and its
        // first read finds the damage.
        let store = DiskBackend::open(&dir).unwrap();
        assert!(store.drain_corruptions().is_empty());
        assert!(store.contains(1, 0));
        assert!(store.get(1, 0).is_none());
        let corruptions = store.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert_eq!(corruptions[0].op, 1);
        assert!(corruptions[0].reason.contains("checksum"));
        assert!(!store.contains(1, 0), "corrupt segment reads as absent");
        assert_eq!(store.stats().corrupt_segments, 1);
        assert_eq!(bits(&store.get(2, 0).unwrap()), bits(&sample_rows()), "healthy sibling reads");
        // The demotion is durable: a further reopen is already clean.
        drop(store);
        let store = DiskBackend::open(&dir).unwrap();
        assert!(store.drain_corruptions().is_empty());
        assert!(!store.contains(1, 0));
        assert_eq!(store.stats().corrupt_segments, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `open` reads no image: a frame header that fails its CRC ends the
    /// log there, while a flipped byte in an earlier image survives until
    /// its slot is read.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn open_cuts_the_log_at_a_bad_frame_header_without_reading_images() {
        let dir = tmp_dir("header");
        {
            let store = DiskBackend::open(&dir).unwrap();
            for op in 1..=4 {
                store.put(op, 0, sample_rows());
            }
        }
        flip(&dir, image_end(&dir, 2) - 1, 0x01);
        let third = segment(&dir, 3).offset - codec::FRAME_HEADER_LEN as u64;
        flip(&dir, third + 5, 0x10);

        let store = DiskBackend::open(&dir).unwrap();
        let corruptions = store.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert_eq!((corruptions[0].op, corruptions[0].node), (u32::MAX, None));
        assert!(corruptions[0].reason.contains("frame header checksum"), "{:?}", corruptions[0]);
        assert_eq!(store.stats().corrupt_segments, 1);
        assert_eq!(store.stats().segments_committed, 2, "the stats of the last good frame");
        assert_eq!(store.len(), 2);
        assert!(store.contains(2, 0), "a flipped image byte survives open");
        assert!(!store.contains(3, 0) && !store.contains(4, 0));
        assert_eq!(bits(&store.get(1, 0).unwrap()), bits(&sample_rows()));
        assert!(store.get(2, 0).is_none());
        assert_eq!(
            log_len(&dir),
            third + 2 * codec::FRAME_HEADER_LEN as u64,
            "cut, stats, tombstone"
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment whose image sets flag bit 0 (which once marked an
    /// LZ-compressed payload) keeps its frame intact, so it survives
    /// `open` and is demoted at its first `get`.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn flagged_segment_image_is_demoted_at_first_get() {
        let dir = tmp_dir("flagged");
        fs::create_dir_all(&dir).unwrap();
        let mut log = codec::log_header().to_vec();
        let mut stats = StoreStats::default();
        for op in [1, 2] {
            let (header, mut image) = codec::build_segment(op, Some(0), &sample_rows());
            if op == 2 {
                image[12] |= 1;
            }
            stats.segments_committed += 1;
            log.extend(codec::encode_frame(&FrameHeader::segment(&header, 1, stats)));
            log.extend(image);
        }
        fs::write(dir.join(LOG_FILE), log).unwrap();

        let store = DiskBackend::open(&dir).unwrap();
        assert!(store.drain_corruptions().is_empty());
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().segments_committed, 2);
        assert_eq!(bits(&store.get(1, 0).unwrap()), bits(&sample_rows()));
        assert!(store.get(2, 0).is_none());
        let corruptions = store.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert_eq!(corruptions[0].op, 2);
        assert!(corruptions[0].reason.contains("flags"), "{}", corruptions[0].reason);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn torn_image_and_tmp_garbage_are_swept() {
        let dir = tmp_dir("torn");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(5, 0, sample_rows());
        }
        // Torn write: cut the log inside the image, and leave a stray
        // rewrite and an old-style segment file around.
        cut(&dir, log_len(&dir) - 2);
        fs::write(dir.join("store.log.tmp"), b"partial").unwrap();
        fs::write(dir.join("seg-8-0.seg"), b"uncommitted").unwrap();

        let store = DiskBackend::open(&dir).unwrap();
        let corruptions = store.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert_eq!((corruptions[0].op, corruptions[0].node), (5, Some(0)));
        assert!(corruptions[0].reason.contains("torn"), "{}", corruptions[0].reason);
        assert!(!store.contains(5, 0));
        assert!(!dir.join("store.log.tmp").exists());
        assert!(!dir.join("seg-8-0.seg").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every repair `open` makes is synced: a second open finds nothing to
    /// report and keeps the corruption count. Checked for a bad frame
    /// header, a torn image and a directory in the old layout, and for a
    /// short tail, which is cut without a report.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn open_repairs_are_durable() {
        fn damage(tag: &str, dir: &Path) {
            match tag {
                "header" => flip(dir, segment(dir, 2).offset - 1, 0x01),
                "torn" => cut(dir, log_len(dir) - 1),
                "old-layout" => {
                    fs::remove_file(dir.join(LOG_FILE)).unwrap();
                    fs::write(dir.join(OLD_MANIFEST), b"{\"version\": 1}").unwrap();
                    fs::write(dir.join("seg-1-0.seg"), b"FTPDSEG1").unwrap();
                }
                _ => {
                    let mut log = OpenOptions::new().append(true).open(dir.join(LOG_FILE)).unwrap();
                    log.write_all(&[0; 40]).unwrap();
                }
            }
        }
        for tag in ["header", "torn", "old-layout", "short-tail"] {
            let dir = tmp_dir(&format!("durable-{tag}"));
            two_puts(&dir);
            damage(tag, &dir);
            let first = DiskBackend::open(&dir).unwrap();
            let reported = first.drain_corruptions();
            let count = first.stats().corrupt_segments;
            let slots = first.len();
            drop(first);
            assert_eq!(reported.len(), usize::from(tag != "short-tail"), "{tag}: {reported:?}");
            assert_eq!(count, reported.len() as u64, "{tag}");
            let second = DiskBackend::open(&dir).unwrap();
            assert!(second.drain_corruptions().is_empty(), "{tag}: reported again");
            assert_eq!(second.stats().corrupt_segments, count, "{tag}");
            assert_eq!(second.len(), slots, "{tag}");
            assert!(verify(&dir).unwrap().is_clean(), "{tag}");
            assert!(verify(&dir).unwrap().orphans.is_empty(), "{tag}: repair left debris");
            drop(second);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn replace_and_clear_keep_directory_tidy() {
        let dir = tmp_dir("tidy");
        let store = DiskBackend::open(&dir).unwrap();
        store.put(1, 0, sample_rows());
        store.put(1, 0, vec![int_row(&[99])]); // overwrite same slot
        assert_eq!(store.get(1, 0).unwrap().len(), 1);
        store.put_replicated(1, vec![int_row(&[7])], 2); // replicated evicts per-node
        assert_eq!(store.get(1, 0).unwrap()[0][0], Value::Int(7));
        assert_eq!(inspect(&dir).unwrap().segments.len(), 1, "the latest frame wins");
        store.clear();
        assert!(store.is_empty());
        let stats = store.stats();
        assert!(stats.logical_rows_written >= 3, "lifetime stats survive clear");
        // Only the log remains on disk, compacted to one stats frame.
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec![LOG_FILE.to_string()]);
        assert_eq!(log_len(&dir), (codec::LOG_HEADER_LEN + codec::FRAME_HEADER_LEN) as u64);
        drop(store);
        let store = DiskBackend::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.stats(), stats);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A put costs one fsync, plus one when it creates the log; a demotion
    /// costs one and a clear two.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn every_commit_costs_its_exact_fsyncs() {
        let dir = tmp_dir("fsyncs");
        let store = DiskBackend::open(&dir).unwrap();
        assert_eq!(store.stats().fsyncs, 0, "open creates no log");
        store.put(1, 0, sample_rows());
        assert_eq!(store.stats().fsyncs, 2);
        store.put_replicated(2, sample_rows(), 3);
        assert_eq!(store.stats().fsyncs, 3);
        drop(store);
        flip(&dir, image_end(&dir, 1) - 1, 0x01);
        let store = DiskBackend::open(&dir).unwrap();
        assert_eq!(store.stats().fsyncs, 3);
        assert!(store.get(1, 0).is_none());
        assert_eq!(store.stats().fsyncs, 4, "a demotion appends one tombstone");
        store.clear();
        assert_eq!(store.stats().fsyncs, 6, "a clear rewrites the log");
        store.put(3, 0, sample_rows());
        assert_eq!(store.stats().fsyncs, 7, "the rewritten log exists");
        drop(store);
        assert_eq!(DiskBackend::open(&dir).unwrap().stats().fsyncs, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `write_seconds` times each put through its sync, so it (and the
    /// observed `tm(o)` derived from it) covers what the caller waited.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn put_time_covers_its_commit() {
        let store = DiskBackend::ephemeral().unwrap();
        let before = store.stats().write_seconds;
        let started = clock::now();
        for op in 0..20 {
            store.put(op, 0, vec![int_row(&[i64::from(op)])]);
        }
        let observed = clock::elapsed(started).as_secs_f64();
        let counted = store.stats().write_seconds - before;
        assert!(counted >= 0.8 * observed, "write_seconds {counted} of {observed} s observed");
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn ephemeral_store_removes_its_directory() {
        let dir;
        {
            let store = DiskBackend::ephemeral().unwrap();
            dir = store.dir().to_path_buf();
            store.put(1, 0, sample_rows());
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn inspect_and_verify_reports() {
        let dir = tmp_dir("report");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(1, 0, sample_rows());
            store.put(2, 1, sample_rows());
        }
        let clean = verify(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.segments.len(), 2);
        assert!(clean.orphans.is_empty());
        assert!(clean.to_summary().render().contains("crc32"));

        // Inspect does not checksum; verify does.
        flip(&dir, image_end(&dir, 2) - 1, 0xFF);
        assert!(inspect(&dir).unwrap().is_clean());
        let dirty = verify(&dir).unwrap();
        assert!(!dirty.is_clean());
        assert_eq!(dirty.corrupt, 1);
        let bad = dirty.segments.iter().find(|s| s.op == 2).unwrap();
        assert!(bad.status.contains("checksum"));

        // Serde round-trip for the CLI's --format json.
        let json = serde_json::to_string(&dirty).unwrap();
        let back: StoreReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dirty);

        // A foreign file is an error, not a misparse.
        fs::write(dir.join(LOG_FILE), b"not a checkpoint log").unwrap();
        let err = verify(&dir).unwrap_err();
        assert!(err.to_string().contains("bad log header"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Stray files and an incomplete last frame are listed as orphans and
    /// do not make a store corrupt; a frame header that fails its CRC
    /// does. Neither report modifies the log.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn verify_flags_orphans() {
        let dir = tmp_dir("orphan");
        two_puts(&dir);
        fs::write(dir.join("stray.tmp"), b"x").unwrap();
        let report = verify(&dir).unwrap();
        assert_eq!(report.orphans, vec!["stray.tmp".to_string()]);
        assert!(report.is_clean(), "orphans are garbage, not corruption");
        fs::remove_file(dir.join("stray.tmp")).unwrap();

        // A writer mid-append: part of an image, then of a frame header.
        let len = log_len(&dir);
        let second = segment(&dir, 2).offset;
        for tail in [second + 10, second - 60] {
            cut(&dir, tail);
            let report = verify(&dir).unwrap();
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(report.segments.len(), 1);
            assert_eq!(report.orphans.len(), 1);
            assert!(report.orphans[0].contains("uncommitted tail"), "{:?}", report.orphans);
            assert_eq!(log_len(&dir), tail, "verify never cuts the log");
        }
        fs::remove_file(dir.join(LOG_FILE)).unwrap();
        two_puts(&dir);
        assert_eq!(log_len(&dir), len);
        let header = segment(&dir, 2).offset - codec::FRAME_HEADER_LEN as u64;
        flip(&dir, header, 0x01);
        let report = verify(&dir).unwrap();
        assert_eq!(report.corrupt, 1);
        let bad = report.segments.iter().find(|s| s.op == u32::MAX).unwrap();
        assert_eq!(bad.offset, header);
        assert!(bad.status.contains("frame header"), "{}", bad.status);
        fs::remove_dir_all(&dir).unwrap();
    }
}
