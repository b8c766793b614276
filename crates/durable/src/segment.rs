//! The on-disk layer: checksummed append-only segment files and the
//! [`Log`] that owns a directory of them.
//!
//! ## Segment layout
//!
//! ```text
//! seg-<seq>.log
//! +--------+---------+---------+----------------------------------+
//! | magic  | version | seq     | records ...                      |
//! | "PGDL" | u16     | u64     |                                  |
//! +--------+---------+---------+----------------------------------+
//!
//! record = | len u32 | crc32 u32 | payload (len bytes) |
//! ```
//!
//! Integers are big-endian, written and read through
//! [`pgrid_core::wire`] like every other format of the workspace.
//! Version 2 switched from little- to big-endian; a version-1 log is
//! rejected as an unsupported version.
//!
//! Segments are strictly append-only and never reopened for writing: a
//! process that restarts always starts a fresh segment with a higher
//! sequence number, so a torn tail can only exist in the last segment a
//! crashed writer touched.  Recovery scans every segment in sequence
//! order, keeps the longest prefix of records whose checksums verify,
//! and truncates the file to that prefix — a half-written record is
//! discarded, never replayed.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pgrid_core::wire::{Reader, WireError, WireResult, Writer};

/// Magic bytes of every segment file.
pub const MAGIC: [u8; 4] = *b"PGDL";

/// On-disk format version.
pub const FORMAT_VERSION: u16 = 2;

/// Bytes of the segment header (magic + version + sequence number).
pub const SEGMENT_HEADER_LEN: u64 = 14;

/// Bytes of a record header (length + checksum).
pub const RECORD_HEADER_LEN: u64 = 8;

/// Upper bound on a single record payload; anything larger in a length
/// field is treated as tail corruption.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, reflected) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:010}.log")
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// One sealed (read-only) segment of the manifest.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// Sequence number (replay order).
    pub seq: u64,
    /// File path.
    pub path: PathBuf,
    /// Bytes of valid data (header + verified records).
    pub bytes: u64,
    /// Number of verified records.
    pub records: u64,
}

/// The verified contents of one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Sequence number from the header (0 when the header itself is torn).
    pub seq: u64,
    /// The record payloads whose checksums verified, in write order.
    pub records: Vec<Vec<u8>>,
    /// Length of the valid prefix; everything past it is a torn tail.
    pub valid_len: u64,
    /// Actual file length on disk.
    pub file_len: u64,
}

/// Reads a segment file, keeping the longest checksum-valid prefix.
///
/// A file too short to hold the header (a crash immediately after
/// creation) scans as `valid_len == 0` with no records — recovery
/// deletes it.  A wrong magic or format version is real corruption and
/// an error, not a torn tail.
pub fn read_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let file_len = data.len() as u64;
    let mut r = Reader::new(&data);
    let Ok((magic, version, seq)) = read_header(&mut r) else {
        return Ok(SegmentScan {
            seq: 0,
            records: Vec::new(),
            valid_len: 0,
            file_len,
        });
    };
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a segment file (bad magic)", path.display()),
        ));
    }
    if version != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unsupported segment version {version}", path.display()),
        ));
    }
    let mut records = Vec::new();
    let mut valid_len = SEGMENT_HEADER_LEN;
    while let Ok(payload) = read_record(&mut r) {
        records.push(payload.to_vec());
        valid_len = file_len - r.remaining() as u64;
    }
    Ok(SegmentScan {
        seq,
        records,
        valid_len,
        file_len,
    })
}

/// Reads the segment header: magic, format version, sequence number.
fn read_header(r: &mut Reader<'_>) -> WireResult<([u8; 4], u16, u64)> {
    Ok((r.array()?, r.u16()?, r.u64()?))
}

/// Reads one `[len | crc32 | payload]` record, failing on a torn or
/// corrupt one.
fn read_record<'a>(r: &mut Reader<'a>) -> WireResult<&'a [u8]> {
    let len = r.u32()?;
    let crc = r.u32()?;
    if len > MAX_RECORD_LEN {
        return Err(WireError::Count(len.into()));
    }
    let payload = r.bytes(len as usize)?;
    if crc32(payload) != crc {
        return Err(WireError::Invalid("record checksum mismatch".into()));
    }
    Ok(payload)
}

/// The active (append) segment.
struct SegmentWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    bytes: u64,
    records: u64,
}

impl SegmentWriter {
    fn create(dir: &Path, seq: u64) -> io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)?;
        let mut header = Writer::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.raw(&MAGIC);
        header.u16(FORMAT_VERSION);
        header.u64(seq);
        file.write_all(&header.into_vec())?;
        Ok(SegmentWriter {
            file,
            path,
            seq,
            bytes: SEGMENT_HEADER_LEN,
            records: 0,
        })
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= MAX_RECORD_LEN as u64,
            "record payload exceeds MAX_RECORD_LEN"
        );
        let mut w = Writer::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        w.u32(payload.len() as u32);
        w.u32(crc32(payload));
        w.raw(payload);
        let frame = w.into_vec();
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        Ok(frame.len() as u64)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Tuning knobs of a [`Log`].
#[derive(Copy, Clone, Debug)]
pub struct LogOptions {
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
}

impl Default for LogOptions {
    fn default() -> LogOptions {
        LogOptions {
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`Log::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// Record payloads replayed, oldest first.
    pub records: usize,
    /// Segments whose torn tail was truncated away.
    pub torn_truncations: usize,
    /// Headerless or empty segment files deleted during recovery.
    pub deleted_segments: usize,
}

/// What one [`Log::compact`] call reclaimed.
#[derive(Clone, Debug, Default)]
pub struct CompactOutcome {
    /// Bytes of segment data deleted.
    pub reclaimed_bytes: u64,
    /// Bytes of the freshly written checkpoint segment.
    pub checkpoint_bytes: u64,
    /// Segments deleted.
    pub segments_removed: usize,
}

/// An append-only log over a directory of segment files with an
/// in-memory manifest: the sealed segments plus the active writer.
pub struct Log {
    dir: PathBuf,
    options: LogOptions,
    sealed: Vec<SegmentInfo>,
    writer: SegmentWriter,
}

impl Log {
    /// Opens (or creates) the log in `dir`, replaying every verified
    /// record in segment order.  Torn tails are truncated on disk;
    /// headerless files are deleted; a fresh segment is started for new
    /// appends so sealed files are never rewritten.
    pub fn open(dir: &Path, options: LogOptions) -> io::Result<(Log, Vec<Vec<u8>>, ReplayOutcome)> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_segment_file_name(name) {
                found.push((seq, entry.path()));
            }
        }
        found.sort_by_key(|(seq, _)| *seq);

        let mut outcome = ReplayOutcome::default();
        let mut payloads = Vec::new();
        let mut sealed = Vec::new();
        let mut max_seq = 0u64;
        for (name_seq, path) in found {
            max_seq = max_seq.max(name_seq);
            let scan = read_segment(&path)?;
            if scan.valid_len == 0 {
                // Crash before the header made it to disk: nothing to keep.
                std::fs::remove_file(&path)?;
                outcome.deleted_segments += 1;
                continue;
            }
            if scan.valid_len < scan.file_len {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(scan.valid_len)?;
                outcome.torn_truncations += 1;
            }
            outcome.records += scan.records.len();
            sealed.push(SegmentInfo {
                seq: scan.seq,
                path,
                bytes: scan.valid_len,
                records: scan.records.len() as u64,
            });
            payloads.extend(scan.records);
        }
        let writer = SegmentWriter::create(dir, max_seq + 1)?;
        Ok((
            Log {
                dir: dir.to_path_buf(),
                options,
                sealed,
                writer,
            },
            payloads,
            outcome,
        ))
    }

    /// Appends one record, rotating the active segment first when it is
    /// full.  Returns the bytes written (frame, not payload).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if self.writer.records > 0 && self.writer.bytes >= self.options.segment_bytes {
            self.rotate()?;
        }
        self.writer.append(payload)
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.writer.sync()?;
        let next = self.writer.seq + 1;
        self.sealed.push(SegmentInfo {
            seq: self.writer.seq,
            path: self.writer.path.clone(),
            bytes: self.writer.bytes,
            records: self.writer.records,
        });
        self.writer = SegmentWriter::create(&self.dir, next)?;
        Ok(())
    }

    /// Fsyncs the active segment, returning the measured sync latency.
    pub fn sync(&mut self) -> io::Result<Duration> {
        let started = Instant::now();
        self.writer.sync()?;
        Ok(started.elapsed())
    }

    /// Rewrites the log as one checkpoint: `live` payloads go into a
    /// fresh segment, every older segment is deleted, and a new empty
    /// segment becomes the active writer.
    ///
    /// Crash-safe without a manifest file because replay is
    /// last-writer-wins: a crash *before* the deletions replays the old
    /// segments first and the (possibly partial) checkpoint after, and
    /// checkpoint records are full images, so whatever prefix of the
    /// checkpoint survived simply overwrites the corresponding state.
    pub fn compact<'a, I>(&mut self, live: I) -> io::Result<CompactOutcome>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        self.writer.sync()?;
        let old_tail = SegmentInfo {
            seq: self.writer.seq,
            path: self.writer.path.clone(),
            bytes: self.writer.bytes,
            records: self.writer.records,
        };
        let checkpoint_seq = self.writer.seq + 1;
        let mut checkpoint = SegmentWriter::create(&self.dir, checkpoint_seq)?;
        for payload in live {
            checkpoint.append(payload)?;
        }
        checkpoint.sync()?;

        let mut outcome = CompactOutcome {
            checkpoint_bytes: checkpoint.bytes,
            ..CompactOutcome::default()
        };
        for old in self.sealed.drain(..).chain(std::iter::once(old_tail)) {
            outcome.reclaimed_bytes += old.bytes;
            outcome.segments_removed += 1;
            std::fs::remove_file(&old.path)?;
        }
        self.sealed.push(SegmentInfo {
            seq: checkpoint.seq,
            path: checkpoint.path.clone(),
            bytes: checkpoint.bytes,
            records: checkpoint.records,
        });
        self.writer = SegmentWriter::create(&self.dir, checkpoint_seq + 1)?;
        Ok(outcome)
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.writer.bytes
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgrid-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_sync_reopen_replays_in_order() {
        let dir = temp_dir("basic");
        let (mut log, replayed, _) = Log::open(&dir, LogOptions::default()).unwrap();
        assert!(replayed.is_empty());
        for i in 0u32..100 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, replayed, outcome) = Log::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(outcome.records, 100);
        assert_eq!(outcome.torn_truncations, 0);
        let values: Vec<u32> = replayed
            .iter()
            .map(|p| u32::from_le_bytes(p[..].try_into().unwrap()))
            .collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let options = LogOptions { segment_bytes: 64 };
        let (mut log, _, _) = Log::open(&dir, options).unwrap();
        for i in 0u32..50 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        log.sync().unwrap();
        assert!(log.segment_count() > 2, "tiny segments must rotate");
        drop(log);
        let (_, replayed, _) = Log::open(&dir, options).unwrap();
        assert_eq!(replayed.len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let (mut log, _, _) = Log::open(&dir, LogOptions::default()).unwrap();
        for i in 0u64..10 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        // Corrupt the tail: chop 3 bytes off the only data segment.
        let seg = dir.join(segment_file_name(1));
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (_, replayed, outcome) = Log::open(&dir, LogOptions::default()).unwrap();
        assert_eq!(outcome.torn_truncations, 1);
        assert_eq!(replayed.len(), 9, "only the torn record is lost");
        // The truncated file now ends exactly at the valid prefix.
        let scan = read_segment(&seg).unwrap();
        assert_eq!(scan.valid_len, scan.file_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_logs_are_rejected() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        // A little-endian version-1 header.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&1u64.to_le_bytes());
        std::fs::write(dir.join(segment_file_name(1)), v1).unwrap();
        let err = Log::open(&dir, LogOptions::default())
            .err()
            .expect("v1 log");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported segment version 256"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_history_and_survives_reopen() {
        let dir = temp_dir("compact");
        let options = LogOptions { segment_bytes: 128 };
        let (mut log, _, _) = Log::open(&dir, options).unwrap();
        for i in 0u64..200 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        log.sync().unwrap();
        let before = log.total_bytes();
        let live: Vec<Vec<u8>> = vec![b"live-1".to_vec(), b"live-2".to_vec()];
        let outcome = log.compact(live.iter().map(|p| p.as_slice())).unwrap();
        assert!(outcome.reclaimed_bytes > 0);
        assert!(outcome.segments_removed > 0);
        assert!(log.total_bytes() < before);
        assert_eq!(log.segment_count(), 2, "checkpoint + fresh active segment");
        drop(log);
        let (_, replayed, _) = Log::open(&dir, options).unwrap();
        assert_eq!(replayed, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
