//! Crash-durable shard journal — an ingest node's local write-ahead log.
//!
//! An ingest node is a tabulator: its whole durable state is one cumulative
//! [`CountShard`] plus the sequence number (= local tuple count) it pushes
//! to the coordinator.  Because the shard is *cumulative* — every record
//! supersedes every earlier one — a journal of shards is trivially
//! replay-safe: recovery only needs the **last valid record**, and
//! re-pushing it upstream is a no-op thanks to the coordinator's
//! strictly-newer seq gate.  That makes the journal format deliberately
//! simple:
//!
//! ```text
//! [ 8-byte magic "PKAJRNL1" ]
//! [ u32 len (LE) | u32 crc32 (LE) | len bytes of JSON payload ]*
//! payload = {"format_version": 1, "seq": <u64>, "shard": <CountShard wire form>}
//! ```
//!
//! On open, the file is scanned from the start; the first record whose
//! length, checksum, JSON, or shard payload fails validation ends the scan,
//! and everything from that offset on (a torn tail after `kill -9`, or
//! corruption) is truncated so the file is again append-clean.  A corrupt
//! record is therefore *refused*, never merged — the journal recovers the
//! longest valid prefix and nothing else (property-tested in
//! `tests/journal_torn_writes.rs` at the workspace root).
//!
//! Durability is tunable per deployment via [`FsyncPolicy`]: fsync every
//! record (no acknowledged tuple is ever lost), fsync on an interval
//! (bounded loss window, near-zero overhead), or never fsync (leave
//! flushing to the OS — survives process crash, not power loss).
//!
//! Since records are cumulative, the journal would grow O(records), not
//! O(data).  [`ShardJournal::append`] therefore compacts opportunistically:
//! once the file is several times larger than its own last record, it is
//! atomically rewritten (temp file + rename) to contain just that record.

use crate::error::StreamError;
use crate::shard::CountShard;
use crate::{Result, WIRE_FORMAT_VERSION};
use serde::{Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File magic: identifies a shard journal and pins its container layout.
const MAGIC: &[u8; 8] = b"PKAJRNL1";

/// Upper bound on a single record's payload, used as a sanity check while
/// scanning: a torn length prefix that decodes to something absurd must not
/// trigger a multi-gigabyte read.  64 MiB is orders of magnitude above any
/// real contingency table this engine fits.
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Compact once the file exceeds this many bytes *and* is more than
/// [`COMPACT_FACTOR`]× its own last record — small journals are never worth
/// a rewrite.
const COMPACT_MIN_BYTES: u64 = 1 << 20;

/// See [`COMPACT_MIN_BYTES`].
const COMPACT_FACTOR: u64 = 4;

/// When to push journal writes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an acknowledged tuple survives
    /// power loss.  Slowest option; cost is one fsync per ingest command.
    PerRecord,
    /// `fsync` at most once per interval: bounds the power-loss window to
    /// the interval while keeping appends at memory speed.
    Interval(Duration),
    /// Never `fsync`: appends survive a process crash (`kill -9`) because
    /// the OS holds the pages, but not kernel panic or power loss.
    Off,
}

impl FsyncPolicy {
    /// Parses a CLI spec: `per-record`, `off`, or `interval=<ms>`.
    pub fn parse(spec: &str) -> Result<Self> {
        if spec == "per-record" {
            return Ok(FsyncPolicy::PerRecord);
        }
        if spec == "off" {
            return Ok(FsyncPolicy::Off);
        }
        if let Some(ms) = spec.strip_prefix("interval=") {
            let ms: u64 = ms.parse().map_err(|_| StreamError::InvalidConfig {
                reason: format!("invalid fsync interval in `{spec}` (want interval=<ms>)"),
            })?;
            if ms == 0 {
                return Err(StreamError::InvalidConfig {
                    reason: "fsync interval must be positive (use per-record instead)".to_string(),
                });
            }
            return Ok(FsyncPolicy::Interval(Duration::from_millis(ms)));
        }
        Err(StreamError::InvalidConfig {
            reason: format!("unknown fsync policy `{spec}` (want per-record, interval=<ms>, off)"),
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use, computed bitwise so no table needs vendoring.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What `open` salvaged from an existing journal file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalRecovery {
    /// Sequence number of the last valid record (the node's tuple count at
    /// the time it was written), if any record survived.
    pub seq: Option<u64>,
    /// The last valid cumulative shard — the node's complete recovered
    /// count state.  Earlier records are subsumed and ignored.
    pub shard: Option<CountShard>,
    /// How many intact records the scan walked over (including the one
    /// recovered).
    pub valid_records: u64,
    /// Bytes discarded past the last valid record: a torn tail from an
    /// unclean shutdown, or deliberate corruption.  Zero on a clean file.
    pub truncated_bytes: u64,
}

impl JournalRecovery {
    /// Tuples carried by the recovered shard (0 when nothing survived).
    pub fn tuples(&self) -> u64 {
        self.shard.as_ref().map_or(0, CountShard::tuple_count)
    }
}

/// Append-only journal of cumulative [`CountShard`] records.
///
/// See the [module docs](self) for the on-disk format and recovery rules.
#[derive(Debug)]
pub struct ShardJournal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Current file length — maintained so append/compaction decisions need
    /// no extra metadata syscalls.
    len: u64,
    /// Total on-disk size of the most recently appended (or recovered)
    /// record, driving the compaction heuristic.
    last_record_bytes: u64,
    /// Appends since the last fsync (any policy).
    unsynced: u64,
    last_sync: Instant,
    records_appended: u64,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StreamError {
    StreamError::Durability { reason: format!("{context} {}: {e}", path.display()) }
}

fn encode_record(seq: u64, shard: &CountShard) -> Result<Vec<u8>> {
    let payload = Value::Object(vec![
        ("format_version".to_string(), Value::U64(WIRE_FORMAT_VERSION)),
        ("seq".to_string(), Value::U64(seq)),
        ("shard".to_string(), shard.serialize()),
    ]);
    let json = serde_json::to_string(&payload).map_err(|e| StreamError::Durability {
        reason: format!("cannot encode journal record: {e}"),
    })?;
    let bytes = json.as_bytes();
    let mut record = Vec::with_capacity(8 + bytes.len());
    record.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(bytes).to_le_bytes());
    record.extend_from_slice(bytes);
    Ok(record)
}

/// Parses one payload; `None` means the record is invalid and the scan must
/// stop.  The shard goes through [`CountShard::from_value`], whose table
/// decodes through its checked constructor — a bit-flipped count that still checksums
/// (possible only pre-checksum, e.g. hand-edited files) cannot smuggle an
/// inconsistent table into the engine.
fn decode_payload(bytes: &[u8]) -> Option<(u64, CountShard)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    crate::shard::check_format_version(&value).ok()?;
    let seq = value.get("seq").and_then(Value::as_u64)?;
    let shard = CountShard::from_value(value.get("shard")?).ok()?;
    Some((seq, shard))
}

impl ShardJournal {
    /// Opens (creating if absent) the journal at `path`, scans it, truncates
    /// any invalid tail, and returns the journal positioned for appends plus
    /// what was recovered.
    ///
    /// A file with a missing or wrong magic header is treated as wholly
    /// invalid: its entire content counts as `truncated_bytes` and it is
    /// rewritten as an empty journal.  (Point the journal at a dedicated
    /// file — recovery will not preserve foreign content.)
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<(Self, JournalRecovery)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("cannot open journal", &path, e))?;

        let mut contents = Vec::new();
        file.read_to_end(&mut contents).map_err(|e| io_err("cannot read journal", &path, e))?;

        let mut recovery = JournalRecovery::default();
        let mut valid_end = 0u64;
        let mut last_record_bytes = 0u64;

        if contents.len() >= MAGIC.len() && &contents[..MAGIC.len()] == MAGIC {
            valid_end = MAGIC.len() as u64;
            let mut offset = MAGIC.len();
            // A torn or absent header ends the scan.
            while let Some(header) = contents.get(offset..offset + 8) {
                let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
                let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
                if len == 0 || len > MAX_RECORD_BYTES {
                    break;
                }
                let Some(payload) = contents.get(offset + 8..offset + 8 + len as usize) else {
                    break; // torn payload
                };
                if crc32(payload) != crc {
                    break;
                }
                let Some((seq, shard)) = decode_payload(payload) else {
                    break;
                };
                recovery.seq = Some(seq);
                recovery.shard = Some(shard);
                recovery.valid_records += 1;
                last_record_bytes = 8 + u64::from(len);
                offset += last_record_bytes as usize;
                valid_end = offset as u64;
            }
        }

        recovery.truncated_bytes = contents.len() as u64 - valid_end;
        if valid_end == 0 {
            // Missing/corrupt magic (or brand-new file): start clean.
            file.set_len(0).map_err(|e| io_err("cannot truncate journal", &path, e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("cannot seek journal", &path, e))?;
            file.write_all(MAGIC).map_err(|e| io_err("cannot write journal header", &path, e))?;
            valid_end = MAGIC.len() as u64;
        } else if recovery.truncated_bytes > 0 {
            file.set_len(valid_end)
                .map_err(|e| io_err("cannot truncate journal tail", &path, e))?;
        }
        file.seek(SeekFrom::Start(valid_end))
            .map_err(|e| io_err("cannot seek journal", &path, e))?;
        if recovery.truncated_bytes > 0 {
            // Make the repaired tail (and fresh header) durable before
            // acknowledging anything appended after it.
            file.sync_all().map_err(|e| io_err("cannot sync journal", &path, e))?;
        }

        let journal = Self {
            file,
            path,
            policy,
            len: valid_end,
            last_record_bytes,
            unsynced: 0,
            last_sync: Instant::now(),
            records_appended: 0,
        };
        Ok((journal, recovery))
    }

    /// Appends one cumulative record and applies the fsync policy.  `seq`
    /// is the node's tuple count after the ingest this record captures.
    pub fn append(&mut self, seq: u64, shard: &CountShard) -> Result<()> {
        let record = encode_record(seq, shard)?;
        if self.should_compact(record.len() as u64) {
            self.compact(&record)?;
        } else {
            self.file
                .write_all(&record)
                .map_err(|e| io_err("cannot append to journal", &self.path, e))?;
            self.len += record.len() as u64;
        }
        self.last_record_bytes = record.len() as u64;
        self.unsynced += 1;
        self.records_appended += 1;
        match self.policy {
            FsyncPolicy::PerRecord => self.sync()?,
            FsyncPolicy::Interval(interval) => {
                if self.last_sync.elapsed() >= interval {
                    self.sync()?;
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(())
    }

    fn should_compact(&self, incoming_bytes: u64) -> bool {
        self.len > COMPACT_MIN_BYTES && self.len > COMPACT_FACTOR * incoming_bytes
    }

    /// Atomically rewrites the journal to hold only `record` (valid because
    /// records are cumulative): write a sibling temp file, fsync it, rename
    /// over the live path, reopen.  A crash at any point leaves either the
    /// old journal or the new one — never a mix.
    fn compact(&mut self, record: &[u8]) -> Result<()> {
        let tmp_path = self.path.with_extension("journal.tmp");
        let mut tmp = File::create(&tmp_path)
            .map_err(|e| io_err("cannot create compaction file", &tmp_path, e))?;
        tmp.write_all(MAGIC)
            .and_then(|()| tmp.write_all(record))
            .and_then(|()| tmp.sync_all())
            .map_err(|e| io_err("cannot write compaction file", &tmp_path, e))?;
        std::fs::rename(&tmp_path, &self.path)
            .map_err(|e| io_err("cannot swap compacted journal into", &self.path, e))?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("cannot reopen compacted journal", &self.path, e))?;
        self.len = MAGIC.len() as u64 + record.len() as u64;
        file.seek(SeekFrom::Start(self.len))
            .map_err(|e| io_err("cannot seek journal", &self.path, e))?;
        self.file = file;
        Ok(())
    }

    /// Forces buffered appends to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced > 0 {
            self.file.sync_all().map_err(|e| io_err("cannot sync journal", &self.path, e))?;
            self.unsynced = 0;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Runs an interval-policy sync if one is due; no-op otherwise.  Engine
    /// tick loops call this so an idle node still drains its sync debt.
    pub fn sync_if_due(&mut self) -> Result<()> {
        if let FsyncPolicy::Interval(interval) = self.policy {
            if self.unsynced > 0 && self.last_sync.elapsed() >= interval {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// How long until the interval policy next wants a sync: `None` when no
    /// timed sync is pending (nothing unsynced, or a non-interval policy).
    pub fn next_sync_due(&self) -> Option<Duration> {
        match self.policy {
            FsyncPolicy::Interval(interval) if self.unsynced > 0 => {
                Some(interval.saturating_sub(self.last_sync.elapsed()))
            }
            _ => None,
        }
    }

    /// Current file length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records appended through this handle (excludes recovered ones).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[3, 2]).unwrap().into_shared()
    }

    fn shard_with(rows: &[[usize; 2]]) -> CountShard {
        let mut shard = CountShard::new(schema());
        shard.record_batch(rows).expect("rows fit schema");
        shard
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("pka-journal-{tag}-{}-{n}.journal", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_specs() {
        assert_eq!(FsyncPolicy::parse("per-record").unwrap(), FsyncPolicy::PerRecord);
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("interval=250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("interval=0").is_err());
        assert!(FsyncPolicy::parse("always").is_err());
    }

    #[test]
    fn fresh_journal_recovers_nothing_and_round_trips() {
        let path = temp_path("fresh");
        let (mut journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery, JournalRecovery::default());

        let first = shard_with(&[[0, 0], [1, 1]]);
        let second = shard_with(&[[0, 0], [1, 1], [2, 0]]);
        journal.append(2, &first).unwrap();
        journal.append(3, &second).unwrap();
        drop(journal);

        let (_journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, Some(3));
        assert_eq!(recovery.shard.as_ref(), Some(&second));
        assert_eq!(recovery.valid_records, 2);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_record_survives() {
        let path = temp_path("torn");
        let (mut journal, _) = ShardJournal::open(&path, FsyncPolicy::PerRecord).unwrap();
        let first = shard_with(&[[1, 0]]);
        journal.append(1, &first).unwrap();
        let clean_len = journal.len_bytes();
        journal.append(2, &shard_with(&[[1, 0], [2, 1]])).unwrap();
        drop(journal);

        // Tear the second record mid-payload, as an interrupted write would.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (journal, recovery) = ShardJournal::open(&path, FsyncPolicy::PerRecord).unwrap();
        assert_eq!(recovery.seq, Some(1));
        assert_eq!(recovery.shard.as_ref(), Some(&first));
        assert_eq!(recovery.valid_records, 1);
        assert_eq!(recovery.truncated_bytes, full.len() as u64 - 3 - clean_len);
        assert_eq!(journal.len_bytes(), clean_len);
        // The repaired file must itself reopen cleanly.
        drop(journal);
        let (_journal, recovery) = ShardJournal::open(&path, FsyncPolicy::PerRecord).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.seq, Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_is_refused_not_merged() {
        let path = temp_path("corrupt");
        let (mut journal, _) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        let first = shard_with(&[[0, 1]]);
        journal.append(1, &first).unwrap();
        journal.append(2, &shard_with(&[[0, 1], [1, 0]])).unwrap();
        drop(journal);

        // Flip one payload byte inside the second record: CRC must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, Some(1));
        assert_eq!(recovery.shard.as_ref(), Some(&first));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_reset_to_an_empty_journal() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let (journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, None);
        assert_eq!(recovery.truncated_bytes, 28);
        assert_eq!(journal.len_bytes(), MAGIC.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        let path = temp_path("resume");
        let (mut journal, _) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        journal.append(1, &shard_with(&[[0, 0]])).unwrap();
        drop(journal);

        let (mut journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, Some(1));
        let latest = shard_with(&[[0, 0], [2, 1]]);
        journal.append(2, &latest).unwrap();
        drop(journal);

        let (_journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, Some(2));
        assert_eq!(recovery.shard.as_ref(), Some(&latest));
        assert_eq!(recovery.valid_records, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_only_the_latest_record_and_preserves_state() {
        let path = temp_path("compact");
        let (mut journal, _) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        // Force the heuristic with a tiny threshold stand-in: append far
        // past COMPACT_MIN_BYTES worth of records.  Each record here is a
        // few hundred bytes, so drive the file over the 1 MiB floor.
        let mut rows: Vec<[usize; 2]> = Vec::new();
        let mut seq = 0;
        while journal.len_bytes() <= COMPACT_MIN_BYTES {
            rows.push([seq as usize % 3, (seq as usize / 3) % 2]);
            seq += 1;
            journal.append(seq, &shard_with(&rows)).unwrap();
        }
        // The next append must compact: the file is > COMPACT_FACTOR× one
        // record.
        rows.push([0, 0]);
        seq += 1;
        let latest = shard_with(&rows);
        journal.append(seq, &latest).unwrap();
        assert!(
            journal.len_bytes() < COMPACT_MIN_BYTES / 2,
            "journal did not compact (len {})",
            journal.len_bytes()
        );
        drop(journal);

        let (_journal, recovery) = ShardJournal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovery.seq, Some(seq));
        assert_eq!(recovery.shard.as_ref(), Some(&latest));
        assert_eq!(recovery.valid_records, 1);
        assert_eq!(recovery.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }
}
