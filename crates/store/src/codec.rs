//! The on-media byte format of a checkpoint segment.
//!
//! One segment holds one partition of one operator's materialized output:
//!
//! ```text
//! [ 0.. 8)  magic  "FTPDSEG1"
//! [ 8..12)  format version, u32 LE (currently 1)
//! [12..16)  flags, u32 LE (none are defined: must be 0)
//! [16..20)  producing operator id, u32 LE
//! [20..28)  partition index, u64 LE (u64::MAX = replicated segment)
//! [28..36)  row count, u64 LE
//! [36..44)  stored payload length, u64 LE
//! [44..48)  CRC-32 (IEEE) of the stored payload, u32 LE
//! [48.. )   payload
//! ```
//!
//! The payload is a sequence of length-prefixed row records (bincode
//! style): a `u32` LE value count, then per value a 1-byte tag (`0` =
//! `Int`, `1` = `Float`) and 8 LE bytes. Floats are encoded via
//! `f64::to_bits`, so the round-trip is bit-exact — including negative
//! zero and any NaN payload — which is what makes "results are
//! bit-identical across backends" a checkable contract. A row's arity is
//! untrusted input: the decoder checks the whole record fits in the
//! payload before it allocates anything for it.
//!
//! Flag bit 0 once marked an LZ-compressed payload. No build writes it any
//! more, so [`parse_segment`] rejects it like any other unknown flag: such
//! a segment is demoted and its producer re-runs.
//!
//! The checksum is CRC-32 with the IEEE polynomial (zlib's `crc32`),
//! computed slicing-by-16: sixteen 256-entry tables built at compile time
//! fold in one 16-byte block per step, and a byte loop finishes the tail.
//! The value is the same as the byte-at-a-time definition's (a test
//! compares them at every length up to 300 bytes and every alignment), so
//! segments written by earlier builds verify unchanged. The SSE4.2 `crc32` instruction would
//! be faster but computes CRC-32C, a different polynomial and so a
//! different format; carry-less-multiply folding needs `unsafe`, which
//! the workspace denies.
//!
//! # The checkpoint log
//!
//! The disk backend stores its segments in one append-only log per store
//! directory (see [`crate::disk`] for the protocol). The log opens with
//! [`LOG_MAGIC`] and a `u32` LE version ([`LOG_VERSION`]), so a foreign or
//! future file is reported rather than misparsed. Then come frames, each
//! a fixed header followed by its image:
//!
//! ```text
//! [  0..  4)  kind, u32 LE (1 segment, 2 tombstone, 3 stats)
//! [  4..  8)  producing operator id, u32 LE
//! [  8.. 16)  partition index, u64 LE (u64::MAX = replicated segment)
//! [ 16.. 24)  fan-out (nodes a replicated segment serves, else 1), u64 LE
//! [ 24.. 32)  row count, u64 LE
//! [ 32.. 40)  image length, u64 LE (0 for tombstone and stats frames)
//! [ 40.. 44)  CRC-32 of the segment's payload, u32 LE
//! [ 44..132)  the store's StoreStats after this frame: nine u64 LE
//!             counters, then write_seconds and read_seconds as f64 bits
//! [132..136)  CRC-32 of bytes [0..132), u32 LE
//! [136..   )  image: one segment exactly as built above
//! ```
//!
//! Everything here is pure (no I/O): the disk backend, the verifier and
//! the CLI all share these functions, and they run under Miri.

use crate::stats::StoreStats;
use crate::value::{Row, Value};

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"FTPDSEG1";
/// Current segment format version.
pub const VERSION: u32 = 1;
/// Size of the fixed segment header in bytes.
pub const HEADER_LEN: usize = 48;
/// The `node` encoding of a replicated (broadcast) segment.
const NODE_REPLICATED: u64 = u64::MAX;

/// Why a segment (or its payload) failed to decode. Every variant is a
/// *corruption signal*: callers treat the segment as not materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fixed header (a torn write).
    Truncated,
    /// The first 8 bytes are not the segment magic.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion(u32),
    /// An unknown flag bit is set.
    BadFlags(u32),
    /// The stored payload length disagrees with the file size.
    LengthMismatch { declared: u64, actual: u64 },
    /// The payload's CRC-32 does not match the header.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// A row record ran off the end of the payload.
    TruncatedRow,
    /// An unknown value tag byte.
    BadTag(u8),
    /// Decoded row count disagrees with the header.
    RowCountMismatch { declared: u64, actual: u64 },
    /// The file does not open with the checkpoint log's magic.
    BadLogHeader,
    /// A log format version this build does not understand.
    BadLogVersion(u32),
    /// A frame header's own CRC-32 does not match its bytes.
    FrameChecksumMismatch { expected: u32, actual: u32 },
    /// A checksummed frame header names a kind this build does not know.
    BadFrameKind(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "segment shorter than its header"),
            CodecError::BadMagic => write!(f, "bad segment magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            CodecError::BadFlags(fl) => write!(f, "unknown segment flags {fl:#x}"),
            CodecError::LengthMismatch { declared, actual } => {
                write!(f, "payload length mismatch: header says {declared}, file has {actual}")
            }
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header {expected:#010x}, payload {actual:#010x}")
            }
            CodecError::TruncatedRow => write!(f, "row record truncated"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::RowCountMismatch { declared, actual } => {
                write!(f, "row count mismatch: header says {declared}, payload holds {actual}")
            }
            CodecError::BadLogHeader => write!(f, "not a checkpoint log (bad log header)"),
            CodecError::BadLogVersion(v) => write!(f, "unsupported checkpoint log version {v}"),
            CodecError::FrameChecksumMismatch { expected, actual } => write!(
                f,
                "frame header checksum mismatch: stored {expected:#010x}, header {actual:#010x}"
            ),
            CodecError::BadFrameKind(k) => write!(f, "unknown frame kind {k}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- CRC-32 (IEEE 802.3, the one zlib/gzip use) --------------------------

/// Slicing-by-16 tables. `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed
/// by `k` zero bytes, so one 16-byte block folds in with 16 independent
/// lookups instead of a 16-step dependency chain.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`, 16 bytes per step (slicing-by-16).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut rest = data;
    while let Some((chunk, tail)) = rest.split_first_chunk::<16>() {
        // The running CRC folds into the block's first four bytes; byte
        // `i` then still has `15 - i` bytes to travel through.
        let mut block = *chunk;
        for (b, s) in block.iter_mut().zip(c.to_le_bytes()) {
            *b ^= s;
        }
        c = block.iter().zip(CRC_TABLES.iter().rev()).fold(0, |acc, (&b, t)| acc ^ t[b as usize]);
        rest = tail;
    }
    for &b in rest {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- row payload ---------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;

/// Exact encoded size of `rows` as a payload, without materializing the
/// bytes (the in-memory backend's accounting uses this so both backends
/// report comparable byte volumes).
pub fn encoded_rows_len(rows: &[Row]) -> u64 {
    rows.iter().map(|r| 4 + 9 * r.len() as u64).sum()
}

/// Encodes `rows` as the payload byte sequence.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_rows_len(rows) as usize);
    for r in rows {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        for v in r {
            match v {
                Value::Int(i) => {
                    out.push(TAG_INT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(x) => {
                    out.push(TAG_FLOAT);
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

/// Decodes a payload back into rows.
///
/// # Errors
/// Any structural violation ([`CodecError::TruncatedRow`] /
/// [`CodecError::BadTag`]) — the caller treats the segment as corrupt.
pub fn decode_rows(bytes: &[u8]) -> Result<Vec<Row>, CodecError> {
    let mut rows = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (arity, tail) = rest.split_first_chunk::<4>().ok_or(CodecError::TruncatedRow)?;
        let arity = u32::from_le_bytes(*arity) as usize;
        // Bound the whole record by the bytes actually present *before*
        // allocating: the arity prefix is untrusted input.
        let len = arity
            .checked_mul(9)
            .filter(|&len| len <= tail.len())
            .ok_or(CodecError::TruncatedRow)?;
        let (mut values, tail) = tail.split_at(len);
        rest = tail;
        let mut row = Vec::with_capacity(arity);
        while let Some((&[tag, payload @ ..], more)) = values.split_first_chunk::<9>() {
            values = more;
            row.push(match tag {
                TAG_INT => Value::Int(i64::from_le_bytes(payload)),
                TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(payload))),
                other => return Err(CodecError::BadTag(other)),
            });
        }
        rows.push(row.into_boxed_slice());
    }
    Ok(rows)
}

// --- segment assembly ----------------------------------------------------

/// The parsed fixed header of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Producing operator id.
    pub op: u32,
    /// Partition index; `None` for a replicated segment.
    pub node: Option<usize>,
    /// Number of rows in the decoded payload.
    pub rows: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// CRC-32 of the stored payload.
    pub crc32: u32,
}

/// Builds a complete segment file image for `rows`, returning the header
/// it wrote alongside it (so a writer never re-parses its own image).
pub fn build_segment(op: u32, node: Option<usize>, rows: &[Row]) -> (SegmentHeader, Vec<u8>) {
    let payload = encode_rows(rows);
    let header = SegmentHeader {
        op,
        node,
        rows: rows.len() as u64,
        payload_len: payload.len() as u64,
        crc32: crc32(&payload),
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&header.op.to_le_bytes());
    out.extend_from_slice(&node.map_or(NODE_REPLICATED, |n| n as u64).to_le_bytes());
    out.extend_from_slice(&header.rows.to_le_bytes());
    out.extend_from_slice(&header.payload_len.to_le_bytes());
    out.extend_from_slice(&header.crc32.to_le_bytes());
    out.extend_from_slice(&payload);
    (header, out)
}

/// Parses and *verifies* a segment file image: magic, version, flags,
/// length and checksum. Returns the header and the verified payload slice.
///
/// # Errors
/// Every corruption class maps to a distinct [`CodecError`].
pub fn parse_segment(bytes: &[u8]) -> Result<(SegmentHeader, &[u8]), CodecError> {
    let (fields, payload) = bytes.split_first_chunk::<HEADER_LEN>().ok_or(CodecError::Truncated)?;
    let mut fields = fields.as_slice();
    if take::<8>(&mut fields)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut fields)?);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = u32::from_le_bytes(take(&mut fields)?);
    if flags != 0 {
        return Err(CodecError::BadFlags(flags));
    }
    let header = SegmentHeader {
        op: u32::from_le_bytes(take(&mut fields)?),
        node: match u64::from_le_bytes(take(&mut fields)?) {
            NODE_REPLICATED => None,
            n => Some(n as usize),
        },
        rows: u64::from_le_bytes(take(&mut fields)?),
        payload_len: u64::from_le_bytes(take(&mut fields)?),
        crc32: u32::from_le_bytes(take(&mut fields)?),
    };
    let actual = payload.len() as u64;
    if header.payload_len != actual {
        return Err(CodecError::LengthMismatch { declared: header.payload_len, actual });
    }
    let sum = crc32(payload);
    if sum != header.crc32 {
        return Err(CodecError::ChecksumMismatch { expected: header.crc32, actual: sum });
    }
    Ok((header, payload))
}

/// Takes the next `N` bytes of a header. The caller holds the whole
/// header, so [`CodecError::Truncated`] cannot fire here.
fn take<const N: usize>(fields: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (field, rest) = fields.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *fields = rest;
    Ok(*field)
}

/// Decodes a verified payload into rows, cross-checking the header's row
/// count.
///
/// # Errors
/// Structural payload corruption the checksum could not see (it can't —
/// the checksum covers the stored bytes, so this only fires on a
/// mis-built segment) or a row-count mismatch.
pub fn decode_segment_rows(header: &SegmentHeader, payload: &[u8]) -> Result<Vec<Row>, CodecError> {
    let rows = decode_rows(payload)?;
    if rows.len() as u64 != header.rows {
        return Err(CodecError::RowCountMismatch {
            declared: header.rows,
            actual: rows.len() as u64,
        });
    }
    Ok(rows)
}

// --- the checkpoint log --------------------------------------------------

/// Magic bytes opening a disk store's checkpoint log.
pub const LOG_MAGIC: [u8; 8] = *b"FTPDLOG1";
/// Current checkpoint log format version.
pub const LOG_VERSION: u32 = 1;
/// Size of the log's file header: magic and version.
pub const LOG_HEADER_LEN: usize = 12;
/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 136;

/// What a log frame records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A committed segment; the frame's image holds it.
    Segment,
    /// Removes the slot the header names (a demoted segment). No image.
    Tombstone,
    /// Carries only the stats (a cleared or repaired log). No image.
    Stats,
}

/// The parsed fixed header of a log frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// What the frame records.
    pub kind: FrameKind,
    /// Producing operator id (0 for a stats frame).
    pub op: u32,
    /// Partition index; `None` for a replicated segment.
    pub node: Option<usize>,
    /// Number of nodes a replicated segment serves (1 for per-node).
    pub nodes: usize,
    /// Row count of the segment.
    pub rows: u64,
    /// Bytes of image following the header: [`HEADER_LEN`] plus the
    /// payload for a segment, 0 otherwise.
    pub image_len: u64,
    /// CRC-32 of the segment's payload (as in its [`SegmentHeader`]).
    pub payload_crc: u32,
    /// The store's lifetime stats once this frame is committed.
    pub stats: StoreStats,
}

impl FrameHeader {
    /// The frame committing a segment that [`build_segment`] returned
    /// `seg` for.
    pub fn segment(seg: &SegmentHeader, nodes: usize, stats: StoreStats) -> Self {
        FrameHeader {
            kind: FrameKind::Segment,
            op: seg.op,
            node: seg.node,
            nodes,
            rows: seg.rows,
            image_len: HEADER_LEN as u64 + seg.payload_len,
            payload_crc: seg.crc32,
            stats,
        }
    }

    /// The frame removing slot `(op, node)`.
    pub fn tombstone(op: u32, node: Option<usize>, stats: StoreStats) -> Self {
        FrameHeader { kind: FrameKind::Tombstone, op, node, ..Self::stats(stats) }
    }

    /// A frame carrying only `stats`.
    pub fn stats(stats: StoreStats) -> Self {
        FrameHeader {
            kind: FrameKind::Stats,
            op: 0,
            node: None,
            nodes: 1,
            rows: 0,
            image_len: 0,
            payload_crc: 0,
            stats,
        }
    }
}

/// The bytes a new log starts with.
pub fn log_header() -> [u8; LOG_HEADER_LEN] {
    let mut out = [0; LOG_HEADER_LEN];
    let (magic, version) = out.split_at_mut(LOG_MAGIC.len());
    magic.copy_from_slice(&LOG_MAGIC);
    version.copy_from_slice(&LOG_VERSION.to_le_bytes());
    out
}

/// Checks a log's file header.
///
/// # Errors
/// [`CodecError::Truncated`] when `bytes` is shorter than the header,
/// [`CodecError::BadLogHeader`] for another magic, and
/// [`CodecError::BadLogVersion`] for another version.
pub fn parse_log_header(bytes: &[u8]) -> Result<(), CodecError> {
    let (head, _) = bytes.split_first_chunk::<LOG_HEADER_LEN>().ok_or(CodecError::Truncated)?;
    let mut fields = head.as_slice();
    if take::<8>(&mut fields)? != LOG_MAGIC {
        return Err(CodecError::BadLogHeader);
    }
    match u32::from_le_bytes(take(&mut fields)?) {
        LOG_VERSION => Ok(()),
        v => Err(CodecError::BadLogVersion(v)),
    }
}

/// Encodes a frame header, its own CRC-32 last.
pub fn encode_frame(h: &FrameHeader) -> Vec<u8> {
    let kind: u32 = match h.kind {
        FrameKind::Segment => 1,
        FrameKind::Tombstone => 2,
        FrameKind::Stats => 3,
    };
    let s = &h.stats;
    let stats = [
        s.logical_rows_written,
        s.physical_rows_written,
        s.logical_bytes_written,
        s.physical_bytes_written,
        s.rows_read,
        s.bytes_read,
        s.fsyncs,
        s.segments_committed,
        s.corrupt_segments,
        s.write_seconds.to_bits(),
        s.read_seconds.to_bits(),
    ];
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&h.op.to_le_bytes());
    out.extend_from_slice(&h.node.map_or(NODE_REPLICATED, |n| n as u64).to_le_bytes());
    out.extend_from_slice(&(h.nodes as u64).to_le_bytes());
    out.extend_from_slice(&h.rows.to_le_bytes());
    out.extend_from_slice(&h.image_len.to_le_bytes());
    out.extend_from_slice(&h.payload_crc.to_le_bytes());
    for word in stats {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Parses a frame header from the first [`FRAME_HEADER_LEN`] bytes of
/// `bytes`, checking its CRC first. Reads no image.
///
/// # Errors
/// [`CodecError::Truncated`] when `bytes` is shorter than a header,
/// [`CodecError::FrameChecksumMismatch`] for damaged bytes, and
/// [`CodecError::BadFrameKind`] for a kind this build does not know.
pub fn parse_frame(bytes: &[u8]) -> Result<FrameHeader, CodecError> {
    let (head, _) = bytes.split_first_chunk::<FRAME_HEADER_LEN>().ok_or(CodecError::Truncated)?;
    let (body, stored) = head.split_last_chunk::<4>().ok_or(CodecError::Truncated)?;
    let (expected, actual) = (u32::from_le_bytes(*stored), crc32(body));
    if expected != actual {
        return Err(CodecError::FrameChecksumMismatch { expected, actual });
    }
    let mut fields = body;
    let kind = match u32::from_le_bytes(take(&mut fields)?) {
        1 => FrameKind::Segment,
        2 => FrameKind::Tombstone,
        3 => FrameKind::Stats,
        k => return Err(CodecError::BadFrameKind(k)),
    };
    let op = u32::from_le_bytes(take(&mut fields)?);
    let node = match u64::from_le_bytes(take(&mut fields)?) {
        NODE_REPLICATED => None,
        n => Some(n as usize),
    };
    let nodes = u64::from_le_bytes(take(&mut fields)?) as usize;
    let rows = u64::from_le_bytes(take(&mut fields)?);
    let image_len = u64::from_le_bytes(take(&mut fields)?);
    let payload_crc = u32::from_le_bytes(take(&mut fields)?);
    let mut word = || take::<8>(&mut fields).map(u64::from_le_bytes);
    let stats = StoreStats {
        logical_rows_written: word()?,
        physical_rows_written: word()?,
        logical_bytes_written: word()?,
        physical_bytes_written: word()?,
        rows_read: word()?,
        bytes_read: word()?,
        fsyncs: word()?,
        segments_committed: word()?,
        corrupt_segments: word()?,
        write_seconds: f64::from_bits(word()?),
        read_seconds: f64::from_bits(word()?),
    };
    Ok(FrameHeader { kind, op, node, nodes, rows, image_len, payload_crc, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{int_row, row};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample_rows() -> Vec<Row> {
        vec![
            int_row(&[1, -2, i64::MAX]),
            row([Value::Float(0.5), Value::Float(-0.0)]),
            row([Value::Float(f64::NAN), Value::Int(0)]),
            int_row(&[]),
        ]
    }

    /// Bitwise row equality — `PartialEq` on `Value` treats NaN != NaN and
    /// -0.0 == 0.0, which is exactly what "bit-identical" must not do.
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

    /// The byte-at-a-time loop that slicing-by-16 replaced: the reference
    /// that pins the on-media checksum.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..len).map(|_| rng.gen::<u8>()).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = noise(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn crc32_matches_the_bytewise_reference_on_a_large_buffer() {
        let buf = noise((1 << 20) + 7);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let rows = sample_rows();
        let bytes = encode_rows(&rows);
        assert_eq!(bytes.len() as u64, encoded_rows_len(&rows));
        let back = decode_rows(&bytes).unwrap();
        assert_eq!(bits(&back), bits(&rows));
    }

    #[test]
    fn segment_round_trips() {
        let rows = sample_rows();
        let (built, seg) = build_segment(7, Some(2), &rows);
        let (header, payload) = parse_segment(&seg).unwrap();
        assert_eq!(header, built);
        assert_eq!(header.op, 7);
        assert_eq!(header.node, Some(2));
        assert_eq!(header.rows, rows.len() as u64);
        let back = decode_segment_rows(&header, payload).unwrap();
        assert_eq!(bits(&back), bits(&rows));
        // Replicated segments encode node = MAX.
        let (_, seg) = build_segment(3, None, &rows);
        assert_eq!(parse_segment(&seg).unwrap().0.node, None);
    }

    #[test]
    fn every_corruption_class_is_detected() {
        let rows = sample_rows();
        let (_, seg) = build_segment(1, Some(0), &rows);

        // Truncated below the header.
        assert_eq!(parse_segment(&seg[..HEADER_LEN - 1]), Err(CodecError::Truncated));
        // Bad magic.
        let mut bad = seg.clone();
        bad[0] ^= 0xFF;
        assert_eq!(parse_segment(&bad), Err(CodecError::BadMagic));
        // Unsupported version.
        let mut bad = seg.clone();
        bad[8] = 99;
        assert_eq!(parse_segment(&bad), Err(CodecError::BadVersion(99)));
        // Unknown flags, including bit 0, which once marked an
        // LZ-compressed payload.
        for flags in [0x80, 0x01] {
            let mut bad = seg.clone();
            bad[12] = flags;
            assert_eq!(parse_segment(&bad), Err(CodecError::BadFlags(u32::from(flags))));
        }
        // Torn payload (length mismatch).
        let torn = &seg[..seg.len() - 3];
        assert!(matches!(parse_segment(torn), Err(CodecError::LengthMismatch { .. })));
        // Flipped payload byte (checksum).
        let mut bad = seg.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(matches!(parse_segment(&bad), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn payload_decoder_rejects_structural_garbage() {
        assert_eq!(decode_rows(&[1, 0]), Err(CodecError::TruncatedRow));
        // Arity 1 but no value bytes.
        assert_eq!(decode_rows(&1u32.to_le_bytes()), Err(CodecError::TruncatedRow));
        // Unknown tag.
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.push(7);
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(decode_rows(&bytes), Err(CodecError::BadTag(7)));
        // An arity far beyond the payload is rejected before anything is
        // allocated for it.
        assert_eq!(decode_rows(&u32::MAX.to_le_bytes()), Err(CodecError::TruncatedRow));
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[TAG_INT; 17]);
        assert_eq!(decode_rows(&bytes), Err(CodecError::TruncatedRow));
        // Row-count mismatch against the header.
        let (_, seg) = build_segment(1, Some(0), &sample_rows());
        let (mut h, p) = parse_segment(&seg).unwrap();
        h.rows += 1;
        assert!(matches!(decode_segment_rows(&h, p), Err(CodecError::RowCountMismatch { .. })));
    }

    #[test]
    fn errors_render_their_diagnosis() {
        let e = CodecError::ChecksumMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(CodecError::Truncated.to_string().contains("header"));
        let e = CodecError::FrameChecksumMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("frame header checksum"));
    }

    fn sample_stats() -> StoreStats {
        StoreStats {
            logical_rows_written: 1,
            physical_rows_written: 2,
            logical_bytes_written: 3,
            physical_bytes_written: 4,
            rows_read: 5,
            bytes_read: 6,
            fsyncs: 7,
            segments_committed: 8,
            corrupt_segments: 9,
            write_seconds: 0.25,
            read_seconds: -0.0,
        }
    }

    #[test]
    fn frames_round_trip_every_kind() {
        let (seg, image) = build_segment(7, None, &sample_rows());
        let frames = [
            FrameHeader::segment(&seg, 3, sample_stats()),
            FrameHeader::segment(&build_segment(2, Some(5), &[]).0, 1, StoreStats::default()),
            FrameHeader::tombstone(7, Some(1), sample_stats()),
            FrameHeader::stats(sample_stats()),
        ];
        assert_eq!(frames[0].image_len, image.len() as u64);
        for frame in frames {
            let bytes = encode_frame(&frame);
            assert_eq!(bytes.len(), FRAME_HEADER_LEN);
            let back = parse_frame(&bytes).unwrap();
            assert_eq!(back, frame);
            assert_eq!(back.stats.read_seconds.to_bits(), frame.stats.read_seconds.to_bits());
        }
        assert_eq!(
            parse_frame(&encode_frame(&frames[0])[..FRAME_HEADER_LEN - 1]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn every_flipped_frame_header_byte_fails_its_checksum() {
        let (seg, _) = build_segment(4, Some(0), &sample_rows());
        let bytes = encode_frame(&FrameHeader::segment(&seg, 1, sample_stats()));
        for at in 0..FRAME_HEADER_LEN {
            for bit in [0x01, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[at] ^= bit;
                assert!(
                    matches!(parse_frame(&bad), Err(CodecError::FrameChecksumMismatch { .. })),
                    "byte {at}, mask {bit:#x}"
                );
            }
        }
    }

    #[test]
    fn an_unknown_frame_kind_with_a_valid_checksum_is_rejected() {
        let mut bytes = encode_frame(&FrameHeader::stats(sample_stats()));
        bytes[0] = 9;
        let sum = crc32(&bytes[..FRAME_HEADER_LEN - 4]);
        bytes[FRAME_HEADER_LEN - 4..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(parse_frame(&bytes), Err(CodecError::BadFrameKind(9)));
    }

    #[test]
    fn log_header_rejects_foreign_and_future_files() {
        let head = log_header();
        assert_eq!(parse_log_header(&head), Ok(()));
        assert_eq!(parse_log_header(&head[..LOG_HEADER_LEN - 1]), Err(CodecError::Truncated));
        let (_, seg) = build_segment(1, Some(0), &sample_rows());
        assert_eq!(parse_log_header(&seg), Err(CodecError::BadLogHeader));
        let mut future = head;
        future[8] = 2;
        assert_eq!(parse_log_header(&future), Err(CodecError::BadLogVersion(2)));
    }
}
