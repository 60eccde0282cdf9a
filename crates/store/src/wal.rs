//! Segmented append-only write-ahead log.
//!
//! A WAL directory holds segment files named `wal-<first_seq:020>.seg`
//! (the zero-padded first batch sequence number in the segment, so
//! lexicographic order is numeric order). Each segment is a run of CRC
//! frames (see [`crate::frame`]) whose payloads are encoded
//! [`WalRecord`]s — batch or online decisions and shard-plan migrations, sharing a
//! single strictly ascending `seq` space. A new segment starts
//! when the current one crosses [`WalConfig::segment_bytes`]; compaction
//! deletes whole segments whose records all fall at or below a snapshot
//! watermark.
//!
//! Durability is governed by [`FsyncPolicy`]: `always` fsyncs after every
//! append (a crash loses at most the in-flight record), `batch` fsyncs
//! every [`WalConfig::batch_fsync_every`] appends (bounded loss, much
//! cheaper), `never` leaves flushing to the OS (benchmarks only).
//!
//! Orthogonally, [`WalConfig::group_every`] enables **group commit**:
//! encoded frames accumulate in an in-memory buffer and reach the file
//! in one `write` per window (and exactly one fsync, when the policy
//! fsyncs at all) instead of one syscall per record. The default window
//! of 1 is plain write-through; larger windows trade a wider crash-loss
//! window — bounded by the same fsync cadence that already bounds
//! `batch` — for far fewer syscalls on the per-event online path.

use crate::frame::{read_frame, write_frame, FrameRead};
use crate::record::WalRecord;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When the WAL calls `fsync` on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Strongest guarantee: a crash
    /// loses at most the record being written.
    Always,
    /// fsync every [`WalConfig::batch_fsync_every`] records and on
    /// segment roll/seal. A crash can lose up to one fsync window.
    Batch,
    /// Never fsync explicitly; the OS flushes when it pleases. Only
    /// defensible for benchmarks and throwaway runs.
    Never,
}

impl FsyncPolicy {
    /// The CLI-facing name (`always` / `batch` / `never`).
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Tuning knobs for [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Fsync policy for the active segment.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Fsync cadence under [`FsyncPolicy::Batch`] (records per fsync).
    pub batch_fsync_every: u64,
    /// Group-commit window: buffer this many records in memory before
    /// one combined `write` to the active segment. `1` (the default)
    /// writes through on every append; an fsync (policy-driven or
    /// explicit [`Wal::sync`]) always flushes the buffer first.
    pub group_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Batch,
            segment_bytes: 8 << 20,
            batch_fsync_every: 16,
            group_every: 1,
        }
    }
}

const SEG_PREFIX: &str = "wal-";
const SEG_SUFFIX: &str = ".seg";

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("{SEG_PREFIX}{first_seq:020}{SEG_SUFFIX}"))
}

/// Lists segment files in `dir`, sorted by first sequence number.
pub fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SEG_PREFIX)
            .and_then(|s| s.strip_suffix(SEG_SUFFIX))
        else {
            continue;
        };
        let Ok(first_seq) = stem.parse::<u64>() else {
            continue;
        };
        segs.push((first_seq, entry.path()));
    }
    segs.sort();
    Ok(segs)
}

/// The writer half: appends [`WalRecord`]s to the active segment.
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    /// Active segment, opened lazily at the first append so the segment
    /// file can be named after the record that starts it.
    active: Option<ActiveSegment>,
    appends_since_fsync: u64,
    /// Encoded frames awaiting their group-commit write (always empty
    /// when `group_every == 1`).
    pending: Vec<u8>,
    pending_records: u64,
    records: u64,
    bytes: u64,
}

struct ActiveSegment {
    file: File,
    len: u64,
}

impl Wal {
    /// Opens a WAL writer in `dir`, creating the directory if needed.
    /// Appending continues in a fresh segment; existing segments are left
    /// for [`replay`] and compaction.
    pub fn open(dir: &Path, cfg: WalConfig) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            active: None,
            appends_since_fsync: 0,
            pending: Vec::new(),
            pending_records: 0,
            records: 0,
            bytes: 0,
        })
    }

    /// Records appended through this writer.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes appended through this writer (frames, not payloads).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record, honouring the fsync policy. Rolls to a new
    /// segment first if the active one is full. Batch, plan and online
    /// frames share one sequence space, so replay and followers see a
    /// single totally-ordered stream.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let roll = match &self.active {
            Some(seg) => seg.len + self.pending.len() as u64 >= self.cfg.segment_bytes,
            None => true,
        };
        if roll {
            self.roll(rec.seq())?;
        }
        // Frames land in the group-commit buffer first; with the default
        // window of 1 the buffer drains to the file on this very append.
        let before = self.pending.len();
        write_frame(&mut self.pending, &rec.encode());
        let frame_len = (self.pending.len() - before) as u64;
        self.pending_records += 1;
        self.records += 1;
        self.bytes += frame_len;
        mbta_telemetry::counter_add("mbta_store_wal_records_total", 1);
        mbta_telemetry::counter_add("mbta_store_wal_bytes_total", frame_len);

        self.appends_since_fsync += 1;
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => self.appends_since_fsync >= self.cfg.batch_fsync_every.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.fsync_active()?;
        } else if self.pending_records >= self.cfg.group_every.max(1) {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Writes the group-commit buffer to the active segment in one
    /// syscall. No fsync: durability stays with the fsync policy.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let seg = self
            .active
            .as_mut()
            .expect("pending frames imply an active segment");
        seg.file.write_all(&self.pending)?;
        seg.len += self.pending.len() as u64;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Flushes and fsyncs the active segment regardless of policy. Called
    /// on seal and before snapshots so the snapshot never gets ahead of
    /// the journal on disk.
    pub fn sync(&mut self) -> io::Result<()> {
        self.fsync_active()
    }

    fn fsync_active(&mut self) -> io::Result<()> {
        self.flush_pending()?;
        if let Some(seg) = &mut self.active {
            let t = Instant::now();
            seg.file.sync_data()?;
            mbta_telemetry::observe("mbta_store_fsync_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        self.appends_since_fsync = 0;
        Ok(())
    }

    fn roll(&mut self, first_seq: u64) -> io::Result<()> {
        // Seal the outgoing segment: drain any group-commit buffer into
        // it (its frames belong to the old segment), then make them
        // durable before anything lands in the next one.
        if self.active.is_some() {
            self.flush_pending()?;
            if self.cfg.fsync != FsyncPolicy::Never {
                self.fsync_active()?;
            }
        }
        let path = segment_path(&self.dir, first_seq);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.active = Some(ActiveSegment { file, len: 0 });
        mbta_telemetry::counter_add("mbta_store_wal_segments_total", 1);
        Ok(())
    }

    /// Deletes segments fully covered by a snapshot at `watermark`
    /// (exclusive: the snapshot folds in every record with
    /// `seq < watermark`). A segment is dropped only when the *next*
    /// segment's first seq proves it holds no record `>= watermark`; the
    /// last segment is never dropped. Returns the number removed.
    pub fn compact(dir: &Path, watermark: u64) -> io::Result<usize> {
        let segs = segment_files(dir)?;
        let mut removed = 0;
        for pair in segs.windows(2) {
            let (_, ref path) = pair[0];
            let (next_first, _) = pair[1];
            // Replay needs every record with seq >= watermark. The earlier
            // segment's last record has seq == next_first - 1.
            if next_first <= watermark {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// The outcome of scanning a WAL directory.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// All intact records, in ascending `seq` order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail ignored (0 on a clean log).
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments: usize,
    /// Path and durable length of the segment where the scan stopped, if
    /// it stopped early. `None` means every segment read cleanly to its
    /// end. Used by repair-on-open to physically truncate the torn tail.
    pub torn: Option<(PathBuf, u64)>,
}

/// Reads every segment in `dir` in order, stopping at the first bad
/// frame, undecodable payload, or non-monotone sequence number. The scan
/// never fails on damaged data — damage simply ends the durable prefix —
/// but real I/O errors (unreadable directory or file) are returned.
pub fn replay(dir: &Path) -> io::Result<WalReplay> {
    let segs = segment_files(dir)?;
    let mut out = WalReplay {
        records: Vec::new(),
        truncated_bytes: 0,
        segments: segs.len(),
        torn: None,
    };
    for (i, (_, path)) in segs.into_iter().enumerate() {
        let buf = fs::read(&path)?;
        let mut offset = 0usize;
        loop {
            match read_frame(&buf, offset) {
                FrameRead::End => break,
                FrameRead::Frame { payload, next } => {
                    let ok = match WalRecord::decode(payload) {
                        Ok(rec) => {
                            let monotone = out
                                .records
                                .last()
                                .map(|prev| rec.seq() == prev.seq() + 1)
                                .unwrap_or(true);
                            if monotone {
                                out.records.push(rec);
                                true
                            } else {
                                false
                            }
                        }
                        Err(_) => false,
                    };
                    if !ok {
                        out.truncated_bytes += (buf.len() - offset) as u64;
                        out.torn = Some((path.clone(), offset as u64));
                        break;
                    }
                    offset = next;
                }
                FrameRead::Bad { .. } => {
                    out.truncated_bytes += (buf.len() - offset) as u64;
                    out.torn = Some((path.clone(), offset as u64));
                    break;
                }
            }
        }
        if out.torn.is_some() {
            // Everything after the damaged segment is unreachable tail:
            // count it but read no further.
            out.segments = i + 1;
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BatchRecord, PlanRecord, WeightDelta};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord::Batch(BatchRecord {
            seq,
            first_time: seq as f64,
            last_time: seq as f64 + 0.5,
            events: 2,
            deltas: vec![WeightDelta {
                edge: seq as u32,
                weight: 1.0 + seq as f64,
            }],
            decisions: vec![],
        })
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp("round-trip");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        for seq in 0..5 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records, (0..5).map(rec).collect::<Vec<_>>());
        assert_eq!(replayed.truncated_bytes, 0);
        assert_eq!(replayed.segments, 1);
        assert!(replayed.torn.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_frames_interleave_with_batches() {
        let dir = tmp("plan-frames");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(&rec(0)).unwrap();
        let plan = WalRecord::Plan(PlanRecord {
            seq: 1,
            retained_weight: 0.5,
            moved_workers: 2,
            moved_tasks: 3,
            shards: vec![vec![0, 4], vec![1]],
        });
        wal.append(&plan).unwrap();
        wal.append(&rec(2)).unwrap();
        wal.sync().unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records, vec![rec(0), plan, rec(2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolls_segments_and_replays_across_them() {
        let dir = tmp("roll");
        let cfg = WalConfig {
            segment_bytes: 64, // force a roll every couple of records
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "expected multiple segments, got {segs:?}");
        // Segment names carry their first seq, ascending.
        assert_eq!(segs[0].0, 0);
        assert!(segs.windows(2).all(|w| w[0].0 < w[1].0));
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let mut wal = Wal::open(&dir, WalConfig::default()).unwrap();
        for seq in 0..4 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Chop mid-record: replay keeps the intact prefix.
        let (_, path) = segment_files(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 3);
        assert!(replayed.truncated_bytes > 0);
        let (torn_path, durable) = replayed.torn.unwrap();
        assert_eq!(torn_path, path);
        assert!(durable < bytes.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_only_fully_covered_segments() {
        let dir = tmp("compact");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..12 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        let before = segment_files(&dir).unwrap();
        assert!(before.len() >= 3);
        // A snapshot ending exactly where the second segment begins covers
        // precisely the first segment.
        let watermark = before[1].0;
        let removed = Wal::compact(&dir, watermark).unwrap();
        assert_eq!(removed, 1);
        // Replay of the remainder starts exactly where the snapshot ends.
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.first().unwrap().seq(), watermark);
        assert_eq!(replayed.records.last().unwrap().seq(), 11);
        // Compacting at the final watermark keeps the last segment.
        let _ = Wal::compact(&dir, 12).unwrap();
        assert!(!segment_files(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_window_or_sync() {
        let dir = tmp("group");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never, // isolate the group window
            group_every: 4,
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..3 {
            wal.append(&rec(seq)).unwrap();
        }
        // Window not reached: all three frames still sit in memory.
        assert_eq!(replay(&dir).unwrap().records.len(), 0);
        wal.append(&rec(3)).unwrap();
        // Fourth append filled the window: one combined write landed.
        assert_eq!(replay(&dir).unwrap().records.len(), 4);
        wal.append(&rec(4)).unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 4);
        // Explicit sync drains a partial window.
        wal.sync().unwrap();
        assert_eq!(replay(&dir).unwrap().records.len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_flushes_into_the_old_segment_on_roll() {
        let dir = tmp("group-roll");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Batch,
            segment_bytes: 64,
            group_every: 64, // wider than any segment: only rolls flush
            ..WalConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        let segs = segment_files(&dir).unwrap();
        assert!(segs.len() > 1, "expected a roll, got {segs:?}");
        // Nothing lost, nothing reordered, and each segment starts at
        // the sequence number its name claims.
        let replayed = replay(&dir).unwrap();
        assert_eq!(replayed.records.len(), 10);
        assert!(replayed.torn.is_none());
        for (first_seq, path) in &segs {
            let buf = fs::read(path).unwrap();
            if let FrameRead::Frame { payload, .. } = read_frame(&buf, 0) {
                assert_eq!(WalRecord::decode(payload).unwrap().seq(), *first_seq);
            } else {
                panic!("segment {path:?} does not start with a frame");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_names_round_trip() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
