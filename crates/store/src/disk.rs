//! The durable backend: one segment file per materialized partition plus
//! an atomically-committed JSON manifest.
//!
//! # Layout
//!
//! ```text
//! <dir>/MANIFEST.json        committed segments + lifetime stats
//! <dir>/seg-<op>-<node>.seg  one operator partition ([`crate::codec`])
//! <dir>/seg-<op>-rep.seg     a replicated (gather) partition
//! <dir>/*.tmp                in-flight writes; never valid after a crash
//! ```
//!
//! # Commit protocol
//!
//! A put writes `<name>.tmp`, `sync_all`s it, renames it over the final
//! name, fsyncs the directory, then rewrites the manifest the same way
//! (tmp → fsync → rename → dir fsync). A segment *exists* iff the
//! committed manifest lists it; everything else in the directory is
//! garbage from an interrupted write and is swept on [`DiskBackend::open`].
//! A crash therefore leaves the store in the last committed state — the
//! exact property the engine's resume path needs.
//!
//! # Recovery contract
//!
//! `open` re-reads the manifest, sweeps debris and checks each listed
//! segment's file length against its manifest entry, reading no payload.
//! A missing, truncated or over-long file is *demoted* (rather than
//! errored on): the entry is dropped, the file deleted, and a
//! [`CorruptSegment`] recorded for the engine to surface as a
//! `segment_corrupt` observability event. To the coordinator a corrupt
//! segment is simply "not materialized", so the producing stage re-runs.
//!
//! The checksum is checked at a slot's first `get`: it reads the file,
//! runs [`codec::parse_segment`] (magic, version, flags, length, CRC),
//! checks identity and row count against the manifest, decodes, caches,
//! and demotes the slot on any failure. So a resume pays only for the
//! segments it reads, and every row it consumes is checked exactly once.
//! What this means for callers:
//!
//! * Damage that keeps the file length, such as a flipped byte, is found
//!   at the slot's first `get`, not at `open`. Until then
//!   `drain_corruptions` stays empty and `contains` and `len` count the
//!   slot.
//! * A run that reads no corrupt segment reports none. [`verify`]
//!   (`ftpde store --verify`, `serve-metrics --store`) checksums every
//!   segment, and the first `get` that needs a corrupt one finds it; its
//!   rows never reach a result.
//! * A run that does read one has already counted its producer as a
//!   skipped stage; the coordinator's input check then rewinds to the
//!   producer and re-executes it.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use ftpde_obs::Summary;
use serde::{Deserialize, Serialize};

use crate::sync::clock;
use crate::sync::plain::{Arc, AtomicU64, Mutex, Ordering};

use crate::codec::{self, encoded_rows_len};
use crate::stats::{record_corrupt_segments, record_fsyncs, record_get, record_put, StoreStats};
use crate::value::Row;
use crate::{CorruptSegment, StoreBackend};

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Manifest format version written by this build.
pub const MANIFEST_VERSION: u32 = 1;

/// One committed segment as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Producing operator id.
    pub op: u32,
    /// Partition index; `None` for a replicated segment.
    pub node: Option<usize>,
    /// Number of nodes a replicated segment serves (1 for per-node).
    pub nodes: usize,
    /// Segment file name relative to the store directory.
    pub file: String,
    /// Row count.
    pub rows: u64,
    /// Payload bytes (the file holds [`codec::HEADER_LEN`] more).
    pub payload_bytes: u64,
    /// CRC-32 of the stored payload.
    pub crc32: u32,
}

impl ManifestEntry {
    /// Whether this entry makes `(op, node)` visible.
    fn covers(&self, op: u32, node: usize) -> bool {
        self.op == op && self.node.map_or(node < self.nodes, |n| n == node)
    }
}

/// The durable root object: what a fresh process reads to resume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Lifetime stats of this directory, cumulative across reopens.
    pub stats: StoreStats,
    /// Committed segments.
    pub segments: Vec<ManifestEntry>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest { version: MANIFEST_VERSION, stats: StoreStats::default(), segments: Vec::new() }
    }
}

#[derive(Debug, Default)]
struct DiskInner {
    manifest: Manifest,
    cache: HashMap<(u32, usize), Arc<Vec<Row>>>,
    corruptions: Vec<CorruptSegment>,
}

/// Durable checkpoint storage rooted at a directory.
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    remove_on_drop: bool,
    inner: Mutex<DiskInner>,
}

impl DiskBackend {
    /// Opens (creating if absent) a store directory: parses the manifest,
    /// sweeps torn/uncommitted files and checks that every committed
    /// segment's file exists with the length its manifest entry implies,
    /// reading no payload. Segments that fail are demoted to "absent" and
    /// reported via [`StoreBackend::drain_corruptions`], never as an
    /// error. Checksums are checked by each slot's first
    /// [`StoreBackend::get`] (see the module's recovery contract), and by
    /// [`verify`] for the whole directory.
    ///
    /// # Errors
    /// Only real I/O failures (permissions, disk full) — corruption is
    /// handled, not propagated.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let open_start = clock::now();
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut corruptions = Vec::new();
        let mut manifest = match fs::read_to_string(dir.join(MANIFEST_FILE)) {
            Ok(text) => match serde_json::from_str::<Manifest>(&text) {
                Ok(m) if m.version == MANIFEST_VERSION => m,
                Ok(m) => {
                    corruptions.push(CorruptSegment {
                        op: u32::MAX,
                        node: None,
                        reason: format!("unsupported manifest version {}", m.version),
                    });
                    Manifest::default()
                }
                Err(e) => {
                    corruptions.push(CorruptSegment {
                        op: u32::MAX,
                        node: None,
                        reason: format!("manifest unreadable: {e}"),
                    });
                    Manifest::default()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(e),
        };

        // Check every committed segment's length; demote failures. The
        // checksum waits for the slot's first `get`.
        let before = manifest.segments.len();
        let mut kept = Vec::with_capacity(before);
        for entry in std::mem::take(&mut manifest.segments) {
            match check_entry_length(&dir, &entry) {
                Ok(()) => kept.push(entry),
                Err(reason) => {
                    let _ = fs::remove_file(dir.join(&entry.file));
                    corruptions.push(CorruptSegment { op: entry.op, node: entry.node, reason });
                }
            }
        }
        manifest.segments = kept;
        manifest.stats.corrupt_segments += corruptions.len() as u64;

        // Sweep in-flight temporaries and orphaned segment files: without
        // a manifest entry they were never committed.
        let committed: Vec<String> = manifest.segments.iter().map(|e| e.file.clone()).collect();
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if name == MANIFEST_FILE {
                continue;
            }
            let orphan =
                name.ends_with(".tmp") || (name.ends_with(".seg") && !committed.contains(&name));
            if orphan {
                let _ = fs::remove_file(dirent.path());
            }
        }

        // Cold-start cost, live on `/metrics`: how long the manifest
        // load, length checks and sweep took and how many segments they
        // walked (kept or demoted).
        crate::stats::record_reopen(clock::elapsed(open_start).as_secs_f64(), before as u64);

        let store = DiskBackend {
            dir,
            remove_on_drop: false,
            inner: Mutex::new(DiskInner { manifest, cache: HashMap::new(), corruptions }),
        };
        if before != store.inner.lock().manifest.segments.len() {
            let mut inner = store.inner.lock();
            store.write_manifest(&mut inner)?;
            drop(inner);
            record_fsyncs(2);
        }
        Ok(store)
    }

    /// Opens a store in a fresh unique temporary directory that is
    /// removed when the backend is dropped. Used by tests and benches.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn ephemeral() -> std::io::Result<Self> {
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

    /// Atomically persists a segment file: write `.tmp`, fsync, rename,
    /// fsync the directory. Returns bytes written. Records 2 fsyncs to
    /// the live metrics; the caller accounts them to the manifest stats
    /// (this runs with no lock held — the payload write and its fsyncs
    /// are the slow part of a put and must stay out of the critical
    /// section).
    fn commit_file(&self, name: &str, bytes: &[u8]) -> u64 {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let write = || -> std::io::Result<()> {
            let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, self.dir.join(name))?;
            sync_dir(&self.dir)?;
            Ok(())
        };
        // A put that cannot reach the medium is a store-level fault the
        // engine cannot re-execute around; fail fast like an allocator.
        write().unwrap_or_else(|e| panic!("store: failed to commit {name}: {e}"));
        record_fsyncs(2);
        bytes.len() as u64
    }

    /// Rewrites the manifest atomically. Counts 2 fsyncs into the
    /// manifest stats; the caller reports them to the live metrics
    /// *after* releasing the `inner` guard (FT214 — no `obs::global()`
    /// under a lock).
    fn write_manifest(&self, inner: &mut DiskInner) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(&inner.manifest)
            .expect("manifest serialization is infallible");
        let tmp = self.dir.join(format!("{MANIFEST_FILE}.tmp"));
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        sync_dir(&self.dir)?;
        inner.manifest.stats.fsyncs += 2;
        Ok(())
    }

    fn put_segment(&self, op: u32, node: Option<usize>, nodes: usize, rows: Vec<Row>) {
        let started = clock::now();
        let (header, image) = codec::build_segment(op, node, &rows);
        let file = segment_file_name(op, node);
        let logical_copies = if node.is_some() { 1 } else { nodes as u64 };
        let row_count = rows.len() as u64;
        let raw_bytes = encoded_rows_len(&rows);
        let shared = Arc::new(rows);

        // Commit the segment file *before* taking the lock: the slot
        // only becomes visible to readers once its manifest entry lands
        // below, and the engine writes each (op, node) slot from a
        // single worker, so the payload write + 2 fsyncs need no
        // serialization against other slots.
        let physical = self.commit_file(&file, &image);

        let mut inner = self.inner.lock();
        // Evict whatever previously covered these slots. Segment file
        // names are deterministic per slot, so the unlink must stay
        // atomic with the manifest mutation that forgets the entry — a
        // racing re-put of the same slot could otherwise lose the file
        // it just committed.
        inner.manifest.segments.retain(|e| {
            let replaced = node.map_or(e.op == op, |n| e.covers(op, n));
            if replaced && e.file != file {
                // ftpde-allow(FT211: unlinking a replaced slot must be atomic with forgetting its manifest entry — slot file names are deterministic)
                let _ = fs::remove_file(self.dir.join(&e.file));
            }
            !replaced
        });
        inner.manifest.segments.push(ManifestEntry {
            op,
            node,
            nodes,
            file,
            rows: row_count,
            payload_bytes: header.payload_len,
            crc32: header.crc32,
        });
        match node {
            Some(n) => {
                inner.cache.insert((op, n), shared);
            }
            None => {
                for n in 0..nodes {
                    inner.cache.insert((op, n), Arc::clone(&shared));
                }
            }
        }
        let elapsed = clock::elapsed(started).as_secs_f64();
        let stats = &mut inner.manifest.stats;
        stats.fsyncs += 2; // commit_file's segment write + rename pair
        stats.logical_rows_written += row_count * logical_copies;
        stats.logical_bytes_written += raw_bytes * logical_copies;
        stats.physical_rows_written += row_count;
        stats.physical_bytes_written += physical;
        stats.segments_committed += 1;
        stats.write_seconds += elapsed;
        // ftpde-allow(FT211: the manifest rewrite is the commit point — it must serialize with the mutation it persists)
        self.write_manifest(&mut inner)
            .unwrap_or_else(|e| panic!("store: failed to commit manifest: {e}"));
        drop(inner);
        record_fsyncs(2); // write_manifest's pair, reported unlocked
        record_put(physical, elapsed);
    }

    /// Demotes a corrupt segment: drop the entry, delete the file, record
    /// the corruption, persist the shrunken manifest. Takes the `inner`
    /// lock itself — callers must not hold it (the caller observed the
    /// corruption with no lock held, so the entry is re-validated here
    /// before acting on it).
    fn demote(&self, entry: &ManifestEntry, reason: String) {
        let mut inner = self.inner.lock();
        // A concurrent put may have replaced the slot (and its file)
        // while the failed read ran; demoting the snapshot would then
        // delete the successor's data.
        if !inner.manifest.segments.iter().any(|e| e == entry) {
            return;
        }
        // ftpde-allow(FT211: unlinking a demoted slot must be atomic with forgetting its manifest entry — slot file names are deterministic)
        let _ = fs::remove_file(self.dir.join(&entry.file));
        inner.manifest.segments.retain(|e| e.file != entry.file);
        inner.manifest.stats.corrupt_segments += 1;
        inner.corruptions.push(CorruptSegment { op: entry.op, node: entry.node, reason });
        // ftpde-allow(FT211: the manifest rewrite is the commit point — it must serialize with the mutation it persists)
        let synced = self.write_manifest(&mut inner).is_ok();
        drop(inner);
        record_corrupt_segments(1);
        if synced {
            record_fsyncs(2);
        }
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
            inner.manifest.stats.rows_read += rows.len() as u64;
            inner.manifest.stats.bytes_read += bytes;
            inner.manifest.stats.read_seconds += elapsed;
            drop(inner);
            record_get(bytes, elapsed);
            return Some(rows);
        }
        let entry = inner.manifest.segments.iter().find(|e| e.covers(op, node))?.clone();
        drop(inner);
        // Read and decode the segment with no lock held: committed
        // files are immutable, and the cache insert below re-validates
        // the entry against the manifest before publishing the rows.
        match read_entry(&self.dir, &entry) {
            Ok(rows) => {
                let shared = Arc::new(rows);
                let mut inner = self.inner.lock();
                // Only cache if the entry is still current — a
                // concurrent put/clear may have replaced the slot while
                // the read ran, and its rows must not be shadowed by
                // this (now stale, but consistent-at-read-start) copy.
                if inner.manifest.segments.iter().any(|e| e == &entry) {
                    match entry.node {
                        Some(n) => {
                            inner.cache.insert((op, n), Arc::clone(&shared));
                        }
                        None => {
                            for n in 0..entry.nodes {
                                inner.cache.insert((op, n), Arc::clone(&shared));
                            }
                        }
                    }
                }
                let elapsed = clock::elapsed(started).as_secs_f64();
                let stats = &mut inner.manifest.stats;
                stats.rows_read += shared.len() as u64;
                stats.bytes_read += entry.payload_bytes;
                stats.read_seconds += elapsed;
                drop(inner);
                record_get(entry.payload_bytes, elapsed);
                Some(shared)
            }
            Err(reason) => {
                self.demote(&entry, reason);
                None
            }
        }
    }

    fn contains(&self, op: u32, node: usize) -> bool {
        let inner = self.inner.lock();
        inner.cache.contains_key(&(op, node))
            || inner.manifest.segments.iter().any(|e| e.covers(op, node))
    }

    fn clear(&self) {
        let mut inner = self.inner.lock();
        for entry in std::mem::take(&mut inner.manifest.segments) {
            // ftpde-allow(FT211: unlinking cleared slots must be atomic with emptying the manifest — slot file names are deterministic)
            let _ = fs::remove_file(self.dir.join(&entry.file));
        }
        inner.cache.clear();
        // Lifetime stats survive (and are re-persisted) — a coarse query
        // restart must keep the write volume it already cost.
        // ftpde-allow(FT211: the manifest rewrite is the commit point — it must serialize with the mutation it persists)
        let synced = self.write_manifest(&mut inner).is_ok();
        drop(inner);
        if synced {
            record_fsyncs(2);
        }
    }

    fn len(&self) -> usize {
        let inner = self.inner.lock();
        let mut slots: Vec<(u32, usize)> = inner.cache.keys().copied().collect();
        for e in &inner.manifest.segments {
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
        self.inner.lock().manifest.stats
    }

    fn drain_corruptions(&self) -> Vec<CorruptSegment> {
        std::mem::take(&mut self.inner.lock().corruptions)
    }
}

/// Deterministic segment file name for a slot.
fn segment_file_name(op: u32, node: Option<usize>) -> String {
    match node {
        Some(n) => format!("seg-{op}-{n}.seg"),
        None => format!("seg-{op}-rep.seg"),
    }
}

/// Fsyncs a directory so a completed rename survives power loss.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reads and fully decodes a committed segment, cross-checking the file
/// against its manifest entry. Returns a corruption reason on failure.
fn read_entry(dir: &Path, entry: &ManifestEntry) -> Result<Vec<Row>, String> {
    let bytes = read_file(dir, &entry.file)?;
    let (header, payload) = codec::parse_segment(&bytes).map_err(|e| e.to_string())?;
    check_entry_matches(entry, &header)?;
    codec::decode_segment_rows(&header, payload).map_err(|e| e.to_string())
}

/// CRC-verifies a committed segment without decoding rows (the [`verify`]
/// path).
fn verify_entry(dir: &Path, entry: &ManifestEntry) -> Result<(), String> {
    let bytes = read_file(dir, &entry.file)?;
    let (header, _) = codec::parse_segment(&bytes).map_err(|e| e.to_string())?;
    check_entry_matches(entry, &header)
}

/// Checks that a committed segment's file exists and is exactly as long as
/// its manifest entry implies, without reading it (the [`DiskBackend::open`]
/// path).
fn check_entry_length(dir: &Path, entry: &ManifestEntry) -> Result<(), String> {
    let actual = fs::metadata(dir.join(&entry.file)).map_err(|e| format!("unreadable: {e}"))?.len();
    let expected = entry.payload_bytes.checked_add(codec::HEADER_LEN as u64);
    if expected != Some(actual) {
        return Err(format!(
            "segment length mismatch: manifest says {} payload bytes, file has {actual} bytes",
            entry.payload_bytes
        ));
    }
    Ok(())
}

fn read_file(dir: &Path, name: &str) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    File::open(dir.join(name))
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("unreadable: {e}"))?;
    Ok(bytes)
}

fn check_entry_matches(entry: &ManifestEntry, header: &codec::SegmentHeader) -> Result<(), String> {
    if header.op != entry.op || header.node != entry.node {
        return Err(format!(
            "segment identity mismatch: file is op {} node {:?}, manifest says op {} node {:?}",
            header.op, header.node, entry.op, entry.node
        ));
    }
    if header.rows != entry.rows || header.crc32 != entry.crc32 {
        return Err("segment content disagrees with manifest".to_string());
    }
    Ok(())
}

// --- offline inspection (CLI) --------------------------------------------

/// One segment's status in a [`StoreReport`] (see [`inspect`] / [`verify`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Producing operator id.
    pub op: u32,
    /// Partition index; `None` for replicated.
    pub node: Option<usize>,
    /// Replica fan-out.
    pub nodes: usize,
    /// Segment file name.
    pub file: String,
    /// Row count per the manifest.
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
    /// Lifetime stats recorded in the manifest.
    pub stats: StoreStats,
    /// Per-segment details.
    pub segments: Vec<SegmentReport>,
    /// Stray files (`.tmp` leftovers, uncommitted segments).
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
            s.kv("orphan files", self.orphans.join(", "));
        }
        s.kv("corrupt segments", self.corrupt);
        for line in self.stats.to_summary().render().lines() {
            s.line(line.to_string());
        }
        s
    }
}

fn load_manifest(dir: &Path) -> std::io::Result<Manifest> {
    let text = fs::read_to_string(dir.join(MANIFEST_FILE))?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn list_orphans(dir: &Path, manifest: &Manifest) -> std::io::Result<Vec<String>> {
    let mut orphans = Vec::new();
    for dirent in fs::read_dir(dir)? {
        let name = dirent?.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_FILE {
            continue;
        }
        let committed = manifest.segments.iter().any(|e| e.file == name);
        if !committed {
            orphans.push(name);
        }
    }
    orphans.sort();
    Ok(orphans)
}

fn report(dir: &Path, check: bool) -> std::io::Result<StoreReport> {
    let manifest = load_manifest(dir)?;
    let mut corrupt = 0u64;
    let segments = manifest
        .segments
        .iter()
        .map(|e| {
            let status = if check {
                match verify_entry(dir, e) {
                    Ok(()) => "ok".to_string(),
                    Err(reason) => {
                        corrupt += 1;
                        reason
                    }
                }
            } else {
                "ok".to_string()
            };
            SegmentReport {
                op: e.op,
                node: e.node,
                nodes: e.nodes,
                file: e.file.clone(),
                rows: e.rows,
                payload_bytes: e.payload_bytes,
                crc32: e.crc32,
                status,
            }
        })
        .collect();
    Ok(StoreReport {
        dir: dir.display().to_string(),
        stats: manifest.stats,
        segments,
        orphans: list_orphans(dir, &manifest)?,
        corrupt,
    })
}

/// Reads a store directory's manifest without touching segment payloads.
///
/// # Errors
/// I/O failure or an unreadable manifest.
pub fn inspect(dir: impl AsRef<Path>) -> std::io::Result<StoreReport> {
    report(dir.as_ref(), false)
}

/// Re-checksums every committed segment in a store directory. Segments
/// that fail get their corruption reason in
/// [`SegmentReport::status`] and are counted in [`StoreReport::corrupt`].
///
/// # Errors
/// I/O failure or an unreadable manifest — per-segment corruption is
/// reported in the result, not as an error.
pub fn verify(dir: impl AsRef<Path>) -> std::io::Result<StoreReport> {
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
        assert!(stats.fsyncs >= 4, "commit protocol fsyncs file+dir+manifest+dir");
        assert!(stats.write_bytes_per_s().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The reopen path must publish its cold-start cost to the global
    /// registry: `store.reopen_seconds` observations and a
    /// `store.segments_scanned` count covering every committed segment
    /// the open length-checked.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn reopen_records_cold_start_metrics() {
        let dir = tmp_dir("reopen-metrics");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(1, 0, sample_rows());
            store.put(2, 0, sample_rows());
        }
        let g = ftpde_obs::global();
        let scanned_before = g.snapshot().counter("store.segments_scanned");
        let reopens_before = g.snapshot().histogram("store.reopen_seconds").map_or(0, |h| h.count);
        let _store = DiskBackend::open(&dir).unwrap();
        let snap = g.snapshot();
        // Lower bounds: sibling tests reopening stores in parallel also
        // bump the global counters.
        assert!(
            snap.counter("store.segments_scanned") - scanned_before >= 2,
            "both committed segments checked on reopen"
        );
        let h = snap.histogram("store.reopen_seconds").expect("reopen timing recorded");
        assert!(h.count - reopens_before >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn flipped_byte_is_demoted_not_fatal() {
        let dir = tmp_dir("flip");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(1, 0, sample_rows());
            store.put(2, 0, sample_rows());
        }
        // Flip one payload byte of op 1's segment.
        let path = dir.join(segment_file_name(1, Some(0)));
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // The flip keeps the file length, so `open` keeps the slot and
        // its first read finds the damage.
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
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `open` reads no payload: it demotes a segment one byte short, one
    /// byte long or missing, and keeps one whose damage keeps its length.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn open_demotes_wrong_lengths_and_missing_files_without_a_get() {
        let dir = tmp_dir("lengths");
        {
            let store = DiskBackend::open(&dir).unwrap();
            for op in 1..=4 {
                store.put(op, 0, sample_rows());
            }
        }
        let path = |op| dir.join(segment_file_name(op, Some(0)));
        let short = fs::read(path(1)).unwrap();
        fs::write(path(1), &short[..short.len() - 1]).unwrap();
        let mut long = fs::read(path(2)).unwrap();
        long.push(0);
        fs::write(path(2), &long).unwrap();
        fs::remove_file(path(3)).unwrap();
        let mut flipped = fs::read(path(4)).unwrap();
        *flipped.last_mut().unwrap() ^= 0x01;
        fs::write(path(4), &flipped).unwrap();

        let store = DiskBackend::open(&dir).unwrap();
        let corruptions = store.drain_corruptions();
        let demoted: Vec<u32> = corruptions.iter().map(|c| c.op).collect();
        assert_eq!(demoted, [1, 2, 3]);
        assert!(corruptions[..2].iter().all(|c| c.reason.contains("length mismatch")));
        assert!(corruptions[2].reason.contains("unreadable"));
        assert_eq!(store.stats().corrupt_segments, 3);
        assert!(!path(1).exists() && !path(2).exists());
        assert!((1..=3).all(|op| !store.contains(op, 0)));
        assert!(store.contains(4, 0), "a flipped byte survives open");
        assert_eq!(store.len(), 1);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A manifest written before compression was retired carries a
    /// `compressed` field per entry; it still opens, and the field is
    /// ignored. A segment whose header sets flag bit 0 (which marked an
    /// LZ-compressed payload) keeps its length, so it survives `open` and
    /// is demoted at its first `get`.
    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn manifest_with_compressed_fields_opens_and_flagged_segments_demote() {
        let dir = tmp_dir("legacy");
        fs::create_dir_all(&dir).unwrap();
        let (_, image) = codec::build_segment(1, Some(0), &sample_rows());
        fs::write(dir.join("seg-1-0.seg"), &image).unwrap();
        let (_, mut image) = codec::build_segment(2, Some(0), &sample_rows());
        image[12] |= 1;
        fs::write(dir.join("seg-2-0.seg"), &image).unwrap();
        let entry = |op: u32| {
            format!(
                r#"{{
      "op": {op},
      "node": 0,
      "nodes": 1,
      "file": "seg-{op}-0.seg",
      "rows": 3,
      "payload_bytes": 66,
      "crc32": 1562949529,
      "compressed": false
    }}"#
            )
        };
        let manifest = format!(
            r#"{{
  "version": 1,
  "stats": {{
    "logical_rows_written": 6,
    "physical_rows_written": 6,
    "logical_bytes_written": 132,
    "physical_bytes_written": 228,
    "rows_read": 0,
    "bytes_read": 0,
    "fsyncs": 6,
    "segments_committed": 2,
    "corrupt_segments": 0,
    "write_seconds": 0.002068403,
    "read_seconds": 0.0
  }},
  "segments": [
    {},
    {}
  ]
}}"#,
            entry(1),
            entry(2)
        );
        fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();

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
    fn truncation_and_tmp_garbage_are_swept() {
        let dir = tmp_dir("torn");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(5, 0, sample_rows());
        }
        // Torn write: truncate the committed file mid-payload, and leave
        // a stray .tmp plus an uncommitted .seg around.
        let path = dir.join(segment_file_name(5, Some(0)));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        fs::write(dir.join("seg-9-0.seg.tmp"), b"partial").unwrap();
        fs::write(dir.join("seg-8-0.seg"), b"uncommitted").unwrap();

        let store = DiskBackend::open(&dir).unwrap();
        assert_eq!(store.drain_corruptions().len(), 1);
        assert!(!store.contains(5, 0));
        assert!(!dir.join("seg-9-0.seg.tmp").exists());
        assert!(!dir.join("seg-8-0.seg").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn corrupt_manifest_resets_to_empty() {
        let dir = tmp_dir("manifest");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(1, 0, sample_rows());
        }
        fs::write(dir.join(MANIFEST_FILE), b"{ not json").unwrap();
        let store = DiskBackend::open(&dir).unwrap();
        let corruptions = store.drain_corruptions();
        assert_eq!(corruptions.len(), 1);
        assert!(corruptions[0].reason.contains("manifest"));
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
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
        store.clear();
        assert!(store.is_empty());
        let stats = store.stats();
        assert!(stats.logical_rows_written >= 3, "lifetime stats survive clear");
        // Only the manifest remains on disk.
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec![MANIFEST_FILE.to_string()]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
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
        let path = dir.join(segment_file_name(2, Some(1)));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
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
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn verify_flags_orphans() {
        let dir = tmp_dir("orphan");
        {
            let store = DiskBackend::open(&dir).unwrap();
            store.put(1, 0, sample_rows());
        }
        fs::write(dir.join("stray.tmp"), b"x").unwrap();
        let report = verify(&dir).unwrap();
        assert_eq!(report.orphans, vec!["stray.tmp".to_string()]);
        assert!(report.is_clean(), "orphans are garbage, not corruption");
        fs::remove_dir_all(&dir).unwrap();
    }
}
