//! Durable state layer: the on-disk format shared by checkpoint/restore,
//! cold spill, and live key migration.
//!
//! Everything the runtime persists — whole-service checkpoints, per-key
//! spill bundles, migration payloads — goes through this one crate, so
//! there is exactly one serialization of a session to get right. The
//! format is deliberately boring:
//!
//! * **Framed records.** A snapshot file is a header (magic + version)
//!   followed by a sequence of records `[len u32][kind u8][payload][crc32]`
//!   and a terminating end record that carries the record count. Torn and
//!   truncated files fail with [`StateError::Truncated`]; bit flips fail
//!   with [`StateError::Checksum`]; nothing panics on hostile bytes.
//! * **One byte layout.** Record payloads are built with
//!   [`tilt_data::codec`]'s [`Enc`] / [`Dec`] (re-exported here) — the
//!   same primitives the wire protocol frames its messages with.
//! * **Validated structure.** Span lists must advance strictly, events
//!   must not end before they start, counts are checked against the bytes
//!   actually present before any allocation.
//!
//! The crate knows nothing about shards or services: it moves bytes and
//! [`tilt_data`] values. The runtime layers meaning on top (see
//! `tilt_runtime`'s durability module and `crates/state/README.md` for
//! the record-level schema).

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use tilt_data::codec::CodecError;
pub use tilt_data::codec::{Dec, Enc, MAX_VALUE_DEPTH};

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TILTSNP\x01";

/// Current format version; readers reject anything else.
pub const FORMAT_VERSION: u16 = 1;

/// Record kind terminating a snapshot file; its payload is the count of
/// preceding records, so a file that merely *looks* complete (ends on a
/// record boundary) but lost a tail still fails closed.
pub const KIND_END: u8 = 0xFF;

/// Typed failure of any durability operation. Decoding hostile bytes can
/// produce every variant except `Io`; nothing in this crate panics on
/// malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// An underlying filesystem operation failed.
    Io {
        /// The OS error class.
        kind: std::io::ErrorKind,
        /// What the crate was doing when it failed.
        context: &'static str,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u16),
    /// The input ended before a declared length was satisfied (torn or
    /// truncated file, or a count pointing past the end).
    Truncated,
    /// A record's checksum did not match its bytes (bit rot / bit flip).
    Checksum {
        /// Zero-based index of the damaged record.
        record: u32,
    },
    /// An unknown tag where a known one was required.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An event interval ended before it started, or a span list failed
    /// to advance strictly.
    BadInterval,
    /// A count field implies more elements than the remaining bytes can
    /// possibly hold.
    BadCount,
    /// A nested value exceeded [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// Bytes remained after the end record (or after a complete payload).
    TrailingBytes,
    /// The end record's count disagrees with the records actually read.
    BadRecordCount {
        /// Count the end record declared.
        expected: u32,
        /// Records actually present.
        actual: u32,
    },
    /// The bytes decoded but their meaning is inconsistent (wrong section
    /// count, roster mismatch, ...). The payload says what.
    Corrupt(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io { kind, context } => write!(f, "io error ({kind:?}) while {context}"),
            StateError::BadMagic => write!(f, "not a tilt snapshot (bad magic)"),
            StateError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {FORMAT_VERSION})")
            }
            StateError::Truncated => write!(f, "snapshot truncated (torn write?)"),
            StateError::Checksum { record } => write!(f, "checksum mismatch in record {record}"),
            StateError::BadTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            StateError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            StateError::BadInterval => write!(f, "non-advancing interval or span"),
            StateError::BadCount => write!(f, "count exceeds remaining bytes"),
            StateError::TooDeep => write!(f, "value nesting exceeds depth cap"),
            StateError::TrailingBytes => write!(f, "trailing bytes after payload"),
            StateError::BadRecordCount { expected, actual } => {
                write!(f, "end record declares {expected} records but file holds {actual}")
            }
            StateError::Corrupt(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<CodecError> for StateError {
    fn from(e: CodecError) -> StateError {
        match e {
            CodecError::Truncated => StateError::Truncated,
            CodecError::BadCount => StateError::BadCount,
            CodecError::BadTag { tag, .. } => StateError::BadTag(tag),
            CodecError::BadUtf8 => StateError::BadUtf8,
            CodecError::BadInterval { .. } => StateError::BadInterval,
            CodecError::TooDeep => StateError::TooDeep,
            CodecError::TrailingBytes(_) => StateError::TrailingBytes,
        }
    }
}

impl StateError {
    fn io(context: &'static str) -> impl FnOnce(std::io::Error) -> StateError {
        move |e| StateError::Io { kind: e.kind(), context }
    }

    /// The error an armed failpoint injects: indistinguishable in shape
    /// from a real I/O failure, so recovery paths cannot special-case it.
    fn injected(context: &'static str) -> StateError {
        StateError::Io { kind: std::io::ErrorKind::Other, context }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven. Hand-rolled because the
// workspace builds offline; the polynomial matches zlib so external tools
// can verify snapshots.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// The CRC-32 (IEEE, as in zlib/PNG) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Snapshot files: header + checksummed records + end marker
// ---------------------------------------------------------------------------

/// Streaming writer of a snapshot file. Records are appended with
/// [`SnapshotWriter::record`]; [`SnapshotWriter::finish`] writes the end
/// record, flushes, and syncs, so a crash mid-write always leaves a file
/// that readers reject as truncated rather than silently short.
///
/// Writes are **crash-safe against the destination**: all bytes go to a
/// `<path>.part` staging file, and only a successful [`SnapshotWriter::finish`]
/// — end record, flush, fsync — atomically renames it over `path` and
/// fsyncs the parent directory. A crash (or injected fault) at any point
/// before the rename leaves the previous `path` contents untouched; an
/// abandoned writer removes its staging file on drop.
///
/// Failpoints: `state.snapshot.write_record` (error / torn-write-after-K
/// policies tear the staged bytes mid-record), `state.snapshot.fsync`,
/// `state.snapshot.rename`.
pub struct SnapshotWriter {
    out: Option<BufWriter<File>>,
    staging: PathBuf,
    dest: PathBuf,
    records: u32,
    bytes: u64,
    committed: bool,
}

/// The staging path a [`SnapshotWriter`] writes before renaming over
/// `path` (exposed so sweepers like [`Lineage::prune`] can recognize and
/// clear abandoned parts).
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".part");
    path.with_file_name(name)
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
fn sync_dir(dir: &Path) -> Result<(), StateError> {
    let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    File::open(dir).and_then(|d| d.sync_all()).map_err(StateError::io("syncing snapshot directory"))
}

impl SnapshotWriter {
    /// Opens a staged writer for `path` (the destination is not touched
    /// until [`SnapshotWriter::finish`] renames the staging file over it)
    /// and writes the header.
    pub fn create(path: &Path) -> Result<Self, StateError> {
        let staging = staging_path(path);
        let file = File::create(&staging).map_err(StateError::io("creating snapshot file"))?;
        let mut w = SnapshotWriter {
            out: Some(BufWriter::new(file)),
            staging,
            dest: path.to_path_buf(),
            records: 0,
            bytes: 0,
            committed: false,
        };
        w.raw(&MAGIC)?;
        w.raw(&FORMAT_VERSION.to_le_bytes())?;
        w.raw(&0u16.to_le_bytes())?; // reserved
        Ok(w)
    }

    fn raw(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let out = self.out.as_mut().expect("writer not finished");
        out.write_all(bytes).map_err(StateError::io("writing snapshot"))?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Appends one record of `kind` with `payload`.
    pub fn record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StateError> {
        // Assemble the whole frame first so the torn-write failpoint can
        // persist an exact byte prefix of it.
        let mut frame = Vec::with_capacity(payload.len() + 9);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.push(kind);
        frame.extend_from_slice(payload);
        // One-shot CRC over kind || payload without concatenating: feed the
        // payload through with the kind byte's CRC as the running state.
        let crc = crc32_continue(crc32(&[kind]), payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        match tilt_fault::evaluate("state.snapshot.write_record") {
            tilt_fault::Action::Proceed => {}
            tilt_fault::Action::Panic => {
                panic!("failpoint state.snapshot.write_record: injected panic")
            }
            tilt_fault::Action::Fail => {
                return Err(StateError::injected("writing snapshot record"));
            }
            tilt_fault::Action::Torn(k) => {
                let k = (k as usize).min(frame.len());
                self.raw(&frame[..k])?;
                if let Some(out) = self.out.as_mut() {
                    let _ = out.flush(); // land the torn prefix like a crash would
                }
                return Err(StateError::injected("writing snapshot record (torn)"));
            }
        }
        self.raw(&frame)?;
        self.records += 1;
        Ok(())
    }

    /// Writes the end record, flushes, syncs, and atomically publishes
    /// the staging file over the destination path (rename + parent-dir
    /// fsync). Returns the total bytes written (for
    /// `tilt_state_bytes_written` accounting).
    pub fn finish(mut self) -> Result<u64, StateError> {
        let count = self.records;
        let mut payload = Enc::new();
        payload.u32(count);
        self.record(KIND_END, &payload.into_bytes())?;
        let mut out = self.out.take().expect("finish called once");
        out.flush().map_err(StateError::io("flushing snapshot"))?;
        tilt_fault::fail_point!(
            "state.snapshot.fsync",
            return Err(StateError::injected("syncing snapshot"))
        );
        out.get_ref().sync_all().map_err(StateError::io("syncing snapshot"))?;
        drop(out);
        tilt_fault::fail_point!(
            "state.snapshot.rename",
            return Err(StateError::injected("publishing snapshot"))
        );
        std::fs::rename(&self.staging, &self.dest)
            .map_err(StateError::io("publishing snapshot"))?;
        self.committed = true;
        if let Some(parent) = self.dest.parent() {
            sync_dir(parent)?;
        }
        Ok(self.bytes)
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        // An abandoned or failed write never reached the rename: clear
        // the staging file so it cannot be mistaken for progress. (A real
        // crash skips this; Lineage::prune sweeps stray parts instead.)
        if !self.committed {
            let _ = std::fs::remove_file(&self.staging);
        }
    }
}

/// Resumes a CRC-32 computation: `crc32_continue(crc32(a), b)` equals
/// `crc32(a ++ b)`.
fn crc32_continue(prev: u32, bytes: &[u8]) -> u32 {
    let mut c = !prev;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// A fully validated snapshot file held in memory: magic, version,
/// per-record checksums, and the end record's count have all been
/// checked.
#[derive(Debug)]
pub struct SnapshotFile {
    records: Vec<(u8, Vec<u8>)>,
    bytes: u64,
}

impl SnapshotFile {
    /// Reads and validates `path`.
    pub fn read(path: &Path) -> Result<Self, StateError> {
        let mut file = File::open(path).map_err(StateError::io("opening snapshot file"))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data).map_err(StateError::io("reading snapshot file"))?;
        Self::parse(&data)
    }

    /// Validates an in-memory snapshot image (the file format, minus the
    /// filesystem).
    pub fn parse(data: &[u8]) -> Result<Self, StateError> {
        if data.len() < MAGIC.len() {
            return Err(StateError::Truncated);
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(StateError::BadMagic);
        }
        let mut dec = Dec::new(&data[MAGIC.len()..]);
        let version = dec.u16()?;
        if version != FORMAT_VERSION {
            return Err(StateError::BadVersion(version));
        }
        if dec.u16()? != 0 {
            return Err(StateError::Corrupt("reserved header bytes must be zero"));
        }
        let mut records: Vec<(u8, Vec<u8>)> = Vec::new();
        loop {
            let len = dec.u32()? as usize;
            if len > dec.remaining() {
                return Err(StateError::Truncated);
            }
            let kind = dec.u8()?;
            let payload = dec.take(len)?;
            let stored = dec.u32()?;
            let computed = crc32_continue(crc32(&[kind]), payload);
            if stored != computed {
                return Err(StateError::Checksum { record: records.len() as u32 });
            }
            if kind == KIND_END {
                let mut end = Dec::new(payload);
                let expected = end.u32()?;
                end.finish()?;
                if expected != records.len() as u32 {
                    return Err(StateError::BadRecordCount {
                        expected,
                        actual: records.len() as u32,
                    });
                }
                dec.finish()?;
                return Ok(SnapshotFile { records, bytes: data.len() as u64 });
            }
            records.push((kind, payload.to_vec()));
        }
    }

    /// The validated records in file order (end record excluded).
    pub fn records(&self) -> &[(u8, Vec<u8>)] {
        &self.records
    }

    /// Total file size in bytes (for `tilt_state_bytes_read` accounting).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Convenience: writes a single-record file (used for spill bundles and
/// migration payloads, which are one logical object per file). Returns
/// bytes written.
pub fn write_bundle(path: &Path, kind: u8, payload: &[u8]) -> Result<u64, StateError> {
    let mut w = SnapshotWriter::create(path)?;
    w.record(kind, payload)?;
    w.finish()
}

/// Convenience: reads a file written by [`write_bundle`], checking the
/// record kind. Returns the payload and total bytes read.
pub fn read_bundle(path: &Path, kind: u8) -> Result<(Vec<u8>, u64), StateError> {
    let file = SnapshotFile::read(path)?;
    let bytes = file.bytes();
    let mut records = file.records.into_iter();
    match (records.next(), records.next()) {
        (Some((k, payload)), None) if k == kind => Ok((payload, bytes)),
        (Some(_), None) => Err(StateError::Corrupt("unexpected bundle record kind")),
        _ => Err(StateError::Corrupt("bundle must hold exactly one record")),
    }
}

// ---------------------------------------------------------------------------
// Snapshot lineage: a retained family of numbered snapshots per directory
// ---------------------------------------------------------------------------

/// Extension of every lineage snapshot file.
pub const SNAPSHOT_EXT: &str = "tiltsnp";

/// A numbered family of snapshot files in one directory
/// (`snap-00000001.tiltsnp`, `snap-00000002.tiltsnp`, ...), the recovery
/// contract behind crash-safe checkpoints: each checkpoint writes the
/// next index via the staged [`SnapshotWriter`], and restore walks the
/// family newest-first until a file validates — so a crash at *any*
/// point (mid-write, pre-fsync, pre-rename) still leaves the newest
/// *published* snapshot restorable.
#[derive(Debug, Clone)]
pub struct Lineage {
    dir: PathBuf,
    retain: usize,
}

impl Lineage {
    /// Opens (creating if needed) a lineage directory that retains the
    /// newest `retain` snapshots on [`Lineage::prune`] (clamped to ≥ 1).
    pub fn open(dir: &Path, retain: usize) -> Result<Lineage, StateError> {
        std::fs::create_dir_all(dir).map_err(StateError::io("creating snapshot directory"))?;
        Ok(Lineage { dir: dir.to_path_buf(), retain: retain.max(1) })
    }

    /// The directory this lineage lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn index_of(path: &Path) -> Option<u64> {
        if path.extension()?.to_str()? != SNAPSHOT_EXT {
            return None;
        }
        let stem = path.file_stem()?.to_str()?;
        stem.strip_prefix("snap-")?.parse().ok()
    }

    /// Every snapshot in the family, sorted oldest to newest. Staging
    /// (`*.part`) and foreign files are ignored.
    pub fn paths(&self) -> Vec<PathBuf> {
        let mut found: Vec<(u64, PathBuf)> = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter_map(|p| Self::index_of(&p).map(|i| (i, p)))
                .collect(),
            Err(_) => Vec::new(),
        };
        found.sort();
        found.into_iter().map(|(_, p)| p).collect()
    }

    /// The path the next checkpoint should write: one past the newest
    /// existing index.
    pub fn next_path(&self) -> PathBuf {
        let next =
            self.paths().last().and_then(|p| Self::index_of(p)).map_or(1, |i| i.saturating_add(1));
        self.dir.join(format!("snap-{next:08}.{SNAPSHOT_EXT}"))
    }

    /// The newest member of the family that fully validates (magic,
    /// version, every checksum, end-record count). A torn, truncated, or
    /// bit-rotted newer file is skipped, not fatal — that is the
    /// fallback restore leans on after a crash mid-checkpoint.
    pub fn newest_valid(&self) -> Option<(PathBuf, SnapshotFile)> {
        self.paths()
            .into_iter()
            .rev()
            .find_map(|p| SnapshotFile::read(&p).ok().map(|f| (p.clone(), f)))
    }

    /// Deletes all but the newest `retain` snapshots, plus any abandoned
    /// `*.part` staging files. Returns how many files were removed.
    pub fn prune(&self) -> usize {
        let mut removed = 0;
        let paths = self.paths();
        if paths.len() > self.retain {
            for p in &paths[..paths.len() - self.retain] {
                if std::fs::remove_file(p).is_ok() {
                    removed += 1;
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for p in entries.filter_map(|e| e.ok().map(|e| e.path())) {
                if p.extension().is_some_and(|x| x == "part") && std::fs::remove_file(&p).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory unique to this process and call, so tests
    /// running in parallel (or a rerun after a crash) never share files.
    /// No test here arms a failpoint — the registry is process-global, and
    /// the one that does lives in `tests/chaos_properties.rs`, where every
    /// test holds the `tilt_fault::Scenario` guard.
    fn scratch_dir(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tilt-state-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_continue(crc32(b"1234"), b"56789"), crc32(b"123456789"));
    }

    #[test]
    fn every_truncation_of_a_file_errors_cleanly() {
        let dir = scratch_dir("trunc");
        let path = dir.join("snap.tilt");
        let mut w = SnapshotWriter::create(&path).unwrap();
        let mut payload = Enc::new();
        payload.u64(0xDEAD_BEEF);
        payload.str("section");
        w.record(1, &payload.into_bytes()).unwrap();
        w.record(2, b"tail").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();

        // The intact file parses.
        let file = SnapshotFile::parse(&full).unwrap();
        assert_eq!(file.records().len(), 2);
        assert_eq!(file.records()[1], (2u8, b"tail".to_vec()));
        assert_eq!(file.bytes(), full.len() as u64);

        // Every strict prefix is rejected without panicking.
        for cut in 0..full.len() {
            let err = SnapshotFile::parse(&full[..cut]).expect_err("prefix must fail");
            assert!(
                matches!(err, StateError::Truncated | StateError::Checksum { .. }),
                "cut {cut}: unexpected {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let dir = scratch_dir("flip");
        let path = dir.join("snap.tilt");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.record(1, b"payload-bytes-here").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in every byte position past the header; all must be
        // caught (magic/version corruption has its own variants).
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x10;
            assert!(SnapshotFile::parse(&bad).is_err(), "flip at {i} accepted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_bytes_and_wrong_versions_rejected() {
        let dir = scratch_dir("tail");
        let path = dir.join("snap.tilt");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.record(1, b"x").unwrap();
        w.finish().unwrap();
        let mut full = std::fs::read(&path).unwrap();
        full.push(0);
        assert!(matches!(
            SnapshotFile::parse(&full),
            Err(StateError::Truncated | StateError::TrailingBytes)
        ));

        let mut wrong = std::fs::read(&path).unwrap();
        wrong[8] = 99; // version field
        assert!(matches!(SnapshotFile::parse(&wrong), Err(StateError::BadVersion(99))));
        let mut not_magic = std::fs::read(&path).unwrap();
        not_magic[0] = b'X';
        assert!(matches!(SnapshotFile::parse(&not_magic), Err(StateError::BadMagic)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundle_round_trip_and_kind_check() {
        let dir = scratch_dir("bundle");
        let path = dir.join("bundle.tilt");
        let written = write_bundle(&path, 7, b"key-state").unwrap();
        let (payload, read) = read_bundle(&path, 7).unwrap();
        assert_eq!(payload, b"key-state");
        assert_eq!(written, read);
        assert_eq!(
            read_bundle(&path, 8),
            Err(StateError::Corrupt("unexpected bundle record kind"))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staged_write_publishes_only_on_finish() {
        let dir = scratch_dir("stage");
        let path = dir.join("snap.tiltsnp");

        // Mid-write: destination untouched, bytes live in the .part file.
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.record(1, b"half").unwrap();
        assert!(!path.exists(), "destination must not exist before finish");
        assert!(staging_path(&path).exists());
        drop(w); // abandoned writer clears its staging file
        assert!(!staging_path(&path).exists());
        assert!(!path.exists());

        // Finished: destination exists, staging is gone, file validates.
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.record(1, b"whole").unwrap();
        w.finish().unwrap();
        assert!(path.exists());
        assert!(!staging_path(&path).exists());
        assert_eq!(SnapshotFile::read(&path).unwrap().records()[0], (1u8, b"whole".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lineage_numbers_validates_and_prunes() {
        let dir = scratch_dir("lineage");
        let lineage = Lineage::open(&dir, 2).unwrap();
        assert!(lineage.newest_valid().is_none());

        for gen in 1u8..=3 {
            let path = lineage.next_path();
            assert_eq!(
                path.file_name().unwrap().to_str().unwrap(),
                format!("snap-{gen:08}.tiltsnp")
            );
            let mut w = SnapshotWriter::create(&path).unwrap();
            w.record(1, &[gen]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(lineage.paths().len(), 3);
        let (newest, file) = lineage.newest_valid().unwrap();
        assert!(newest.ends_with("snap-00000003.tiltsnp"));
        assert_eq!(file.records()[0].1, vec![3]);

        // Torn newest (simulated crash that somehow published a short
        // file): fallback picks the next-newest valid member.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 5]).unwrap();
        let (fallback, file) = lineage.newest_valid().unwrap();
        assert!(fallback.ends_with("snap-00000002.tiltsnp"));
        assert_eq!(file.records()[0].1, vec![2]);

        // Prune keeps the newest two and sweeps stray staging files.
        std::fs::write(dir.join("snap-00000009.tiltsnp.part"), b"junk").unwrap();
        assert_eq!(lineage.prune(), 2);
        let left = lineage.paths();
        assert_eq!(left.len(), 2);
        assert!(left[0].ends_with("snap-00000002.tiltsnp"));
        assert!(lineage.next_path().ends_with("snap-00000004.tiltsnp"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
