//! Tail-following reads: the replication half of the store.
//!
//! A follower process watches a primary's WAL directory and keeps a warm
//! copy of the dispatch state without ever writing to the directory:
//!
//! * [`WalTail`] — a cursor over the segment files that can be polled
//!   repeatedly. Each poll returns the batch records that became durable
//!   since the last poll, using the same frame acceptance rules as
//!   recovery: the first torn or corrupt frame ends the readable prefix.
//!   While the primary is alive a bad frame is *in flight*, not final —
//!   the cursor parks on it and the next poll re-reads, so a half-written
//!   append is picked up once the primary finishes it.
//! * [`FollowerState`] — the incremental mirror of
//!   [`crate::store::RecoveredState`]: applies records one at a time with
//!   exactly the fold recovery uses, so `follower state at watermark W ==
//!   recover() at watermark W` by construction.
//! * [`heartbeat_touch`] / [`heartbeat_age`] — the liveness protocol. The
//!   primary touches `heartbeat` in the WAL directory while it runs; a
//!   follower treats a stale mtime as the first (necessary, not
//!   sufficient) signal of primary death. See DESIGN.md §12 for the full
//!   promotion gate.

use crate::record::WalRecord;
use crate::snapshot::SnapshotState;
use crate::store::{apply_record, RecoveredState};
use crate::wal::segment_files;
use crate::{read_frame, FrameRead};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Name of the liveness file a serving primary touches inside its WAL
/// directory. Carries no payload — only its mtime matters.
pub const HEARTBEAT_FILE: &str = "heartbeat";

/// Touches the heartbeat file in `dir`, creating it if needed. Called
/// periodically by a serving primary; the write is tiny and unsynced on
/// purpose (liveness, not durability).
pub fn heartbeat_touch(dir: &Path) -> io::Result<()> {
    fs::write(dir.join(HEARTBEAT_FILE), b"alive\n")
}

/// Age of the heartbeat in `dir` per its mtime, or `None` when the file
/// does not exist yet. A clock skew or mtime older than the epoch reads
/// as zero age (never falsely stale).
pub fn heartbeat_age(dir: &Path) -> io::Result<Option<Duration>> {
    let path = dir.join(HEARTBEAT_FILE);
    let meta = match fs::metadata(&path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let age = meta.modified()?.elapsed().unwrap_or(Duration::from_secs(0));
    Ok(Some(age))
}

/// How a [`WalTail::poll`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every durable record up to the end of the log was returned; the
    /// cursor is caught up.
    Clean,
    /// The cursor is parked on a torn or corrupt frame (or an undecodable
    /// payload). While the writer lives this may be an append in flight —
    /// poll again. Once the writer is known dead it is the final torn
    /// tail, exactly what recovery would truncate.
    Blocked,
    /// The record the cursor expects next no longer exists on disk: the
    /// primary compacted past the follower (or the directory lost data).
    /// The follower must restart from the latest snapshot.
    Gap,
}

/// One incremental read of the log tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TailPoll {
    /// Records that became durable since the previous poll, in `seq`
    /// order, starting at the tail's next expected sequence number.
    pub records: Vec<WalRecord>,
    /// How the read ended.
    pub status: TailStatus,
    /// Bytes from the blocking frame to the end of its segment when
    /// `status == Blocked` (the would-be truncation), else 0.
    pub blocked_bytes: u64,
}

/// A poll-based incremental reader of a WAL directory.
///
/// The tail never writes; it is safe to run against a directory a live
/// [`crate::store::DurableStore`] is appending to. Segment files are
/// re-read from the cursor's segment on every poll, so an append that
/// completes between polls is observed exactly once.
#[derive(Debug)]
pub struct WalTail {
    dir: PathBuf,
    /// Next record sequence number the tail expects to return.
    next_seq: u64,
}

impl WalTail {
    /// A tail positioned at the very start of the log (sequence 0).
    pub fn new(dir: &Path) -> WalTail {
        WalTail::resume_from(dir, 0)
    }

    /// A tail that resumes at `watermark` — records with `seq <
    /// watermark` (covered by a snapshot the caller already loaded) are
    /// skipped, never returned.
    pub fn resume_from(dir: &Path, watermark: u64) -> WalTail {
        WalTail {
            dir: dir.to_path_buf(),
            next_seq: watermark,
        }
    }

    /// The sequence number the next returned record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Reads every record that became durable since the last poll.
    ///
    /// Damaged data never fails the poll (it parks the cursor, see
    /// [`TailStatus`]); real I/O errors are returned.
    pub fn poll(&mut self) -> io::Result<TailPoll> {
        let mut out = TailPoll {
            records: Vec::new(),
            status: TailStatus::Clean,
            blocked_bytes: 0,
        };
        loop {
            let segs = segment_files(&self.dir)?;
            // (Re)resolve the cursor: the segment that holds `next_seq`
            // is the last one starting at or below it. The previous
            // cursor segment may have been compacted away after we
            // consumed it — resolving fresh each round handles that.
            let home = segs.iter().rev().find(|(first, _)| *first <= self.next_seq);
            let Some((first_seq, path)) = home else {
                if segs.is_empty() {
                    // Nothing written yet (or everything compacted into a
                    // snapshot at exactly our watermark): caught up.
                    return Ok(out);
                }
                // Every surviving segment starts beyond us: the records
                // we still need are gone.
                out.status = TailStatus::Gap;
                return Ok(out);
            };
            let (first_seq, path) = (*first_seq, path.clone());
            let buf = match fs::read(&path) {
                Ok(b) => b,
                // Compacted between the listing and the read: retry the
                // resolution with a fresh listing.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let mut offset = 0usize;
            loop {
                match read_frame(&buf, offset) {
                    FrameRead::End => break,
                    FrameRead::Frame { payload, next } => match WalRecord::decode(payload) {
                        Ok(rec) if rec.seq() < self.next_seq => offset = next,
                        Ok(rec) if rec.seq() == self.next_seq => {
                            out.records.push(rec);
                            self.next_seq += 1;
                            offset = next;
                        }
                        Ok(_) => {
                            out.status = TailStatus::Gap;
                            return Ok(out);
                        }
                        Err(_) => {
                            // CRC-valid frame with an undecodable payload:
                            // same treatment recovery gives it — the
                            // durable prefix ends here.
                            out.status = TailStatus::Blocked;
                            out.blocked_bytes = (buf.len() - offset) as u64;
                            return Ok(out);
                        }
                    },
                    FrameRead::Bad { .. } => {
                        out.status = TailStatus::Blocked;
                        out.blocked_bytes = (buf.len() - offset) as u64;
                        return Ok(out);
                    }
                }
            }
            // Segment read cleanly to its end. Did the writer roll to a
            // segment past this one? If a later segment now holds
            // `next_seq`, loop and follow it; otherwise this is the live
            // tail — caught up.
            let rolled = segment_files(&self.dir)?
                .iter()
                .any(|(first, _)| *first > first_seq && *first <= self.next_seq);
            if !rolled {
                return Ok(out);
            }
        }
    }
}

/// A warm, incrementally-maintained mirror of the primary's dispatch
/// state, fed by [`WalTail::poll`].
///
/// Applies each record with the exact fold recovery uses
/// ([`crate::store::recover`]), so at any watermark the follower state is
/// byte-for-byte the state a fresh recovery of the same prefix would
/// produce.
#[derive(Debug, Clone, Default)]
pub struct FollowerState {
    shards: Vec<BTreeSet<u32>>,
    weights: Vec<f64>,
    watermark: u64,
    records_applied: u64,
}

impl FollowerState {
    /// An empty state at watermark 0.
    pub fn new() -> FollowerState {
        FollowerState::default()
    }

    /// Seeds the mirror from a recovery of the primary's directory
    /// (snapshot + durable WAL prefix). Pair with
    /// [`WalTail::resume_from`] at the same watermark.
    pub fn from_recovered(state: &RecoveredState) -> FollowerState {
        FollowerState {
            shards: state
                .shards
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect(),
            weights: state.weights.clone(),
            watermark: state.watermark,
            records_applied: 0,
        }
    }

    /// Folds one record in. Records must arrive in sequence.
    pub fn apply(&mut self, rec: &WalRecord) {
        assert_eq!(
            rec.seq(),
            self.watermark,
            "follower records must be sequential (got seq {}, expected {})",
            rec.seq(),
            self.watermark
        );
        apply_record(&mut self.shards, &mut self.weights, rec);
        self.watermark += 1;
        self.records_applied += 1;
    }

    /// Batches folded in so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Records applied through [`FollowerState::apply`] (excludes the
    /// seeded snapshot/replay prefix).
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Number of assigned edges across all shards.
    pub fn assignments(&self) -> usize {
        self.shards.iter().map(BTreeSet::len).sum()
    }

    /// Total retained weight over assigned edges.
    pub fn total_weight(&self) -> f64 {
        let mut total = 0.0;
        for shard in &self.shards {
            for &e in shard {
                total += self.weights.get(e as usize).copied().unwrap_or(0.0);
            }
        }
        total
    }

    /// The mirror as a [`RecoveredState`] (for validation paths that
    /// already consume recovery output).
    pub fn to_recovered(&self) -> RecoveredState {
        RecoveredState {
            watermark: self.watermark,
            snapshot_watermark: None,
            records_replayed: self.records_applied,
            truncated_bytes: 0,
            shards: self
                .shards
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect(),
            weights: self.weights.clone(),
        }
    }

    /// The mirror as a snapshot payload (written at promotion so the next
    /// recovery starts warm).
    pub fn to_snapshot(&self) -> SnapshotState {
        SnapshotState {
            watermark: self.watermark,
            shards: self
                .shards
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect(),
            weights: self.weights.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BatchRecord, DecisionRecord, PlanRecord, WeightDelta};
    use crate::store::{recover, DurableStore, StoreConfig};
    use crate::wal;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mbta-store-tail-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Same deterministic workload the store tests use.
    fn rec(seq: u64) -> WalRecord {
        let mut decisions = vec![DecisionRecord {
            shard: (seq % 2) as u32,
            edge: seq as u32,
            assign: true,
            worker: seq as u32,
            task: seq as u32,
            weight: 1.0 + seq as f64,
        }];
        if seq >= 3 {
            let old = seq - 3;
            decisions.push(DecisionRecord {
                shard: (old % 2) as u32,
                edge: old as u32,
                assign: false,
                worker: old as u32,
                task: old as u32,
                weight: 1.0 + old as f64,
            });
        }
        WalRecord::Batch(BatchRecord {
            seq,
            first_time: seq as f64,
            last_time: seq as f64 + 0.25,
            events: 1,
            deltas: vec![WeightDelta {
                edge: seq as u32,
                weight: 1.0 + seq as f64,
            }],
            decisions,
        })
    }

    #[test]
    fn tail_follows_appends_incrementally() {
        let dir = tmp("incremental");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        let mut tail = WalTail::new(&dir);
        let mut follower = FollowerState::new();

        for seq in 0..3 {
            store.commit(&rec(seq)).unwrap();
        }
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 3);
        p.records.iter().for_each(|r| follower.apply(r));

        for seq in 3..7 {
            store.commit(&rec(seq)).unwrap();
        }
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 4);
        p.records.iter().for_each(|r| follower.apply(r));

        // Caught up: the next poll is empty and clean.
        let p = tail.poll().unwrap();
        assert!(p.records.is_empty());
        assert_eq!(p.status, TailStatus::Clean);

        // The mirror equals a fresh recovery of the same prefix.
        drop(store);
        let recovered = recover(&dir).unwrap();
        assert_eq!(follower.watermark(), recovered.watermark);
        assert_eq!(follower.to_recovered().shards, recovered.shards);
        assert!((follower.total_weight() - recovered.total_weight()).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_crosses_segment_rolls() {
        let dir = tmp("roll");
        let cfg = StoreConfig {
            segment_bytes: 96, // force several segments
            snapshot_every: 0,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        let mut tail = WalTail::new(&dir);
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
        }
        assert!(wal::segment_files(&dir).unwrap().len() > 1);
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(
            p.records.iter().map(|r| r.seq()).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_inflight_append_blocks_then_completes() {
        let dir = tmp("torn");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        store.commit(&rec(0)).unwrap();
        drop(store);
        // Simulate an append caught mid-write: a full record plus a
        // truncated frame on the active segment.
        let (_, path) = wal::segment_files(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        let mut frame = Vec::new();
        crate::write_frame(&mut frame, &rec(1).encode());
        bytes.extend_from_slice(&frame[..frame.len() - 4]);
        fs::write(&path, &bytes).unwrap();

        let mut tail = WalTail::new(&dir);
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.status, TailStatus::Blocked);
        assert!(p.blocked_bytes > 0);

        // The writer finishes the append: the same cursor now reads it.
        let mut whole = fs::read(&path).unwrap();
        whole.truncate(intact);
        whole.extend_from_slice(&frame);
        fs::write(&path, &whole).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.records[0].seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_snapshot_skips_covered_records() {
        let dir = tmp("resume");
        let cfg = StoreConfig {
            snapshot_every: 4,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..6 {
            store.commit(&rec(seq)).unwrap();
            if store.snapshot_due() {
                let snap = recover(&dir).unwrap().to_snapshot();
                store.snapshot(&snap).unwrap();
            }
        }
        drop(store);
        let base = recover(&dir).unwrap();
        assert_eq!(base.snapshot_watermark, Some(4));
        let mut follower = FollowerState::from_recovered(&base);
        let mut tail = WalTail::resume_from(&dir, base.watermark);
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert!(p.records.is_empty(), "tail replayed covered records");

        // New appends continue from the recovered watermark.
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        store.commit(&rec(6)).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.records[0].seq(), 6);
        p.records.iter().for_each(|r| follower.apply(r));
        assert_eq!(follower.watermark(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_past_follower_reports_gap() {
        let dir = tmp("gap");
        let cfg = StoreConfig {
            segment_bytes: 96,
            snapshot_every: 0,
            ..StoreConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 0..10 {
            store.commit(&rec(seq)).unwrap();
        }
        // A follower that never polled; the primary snapshots at the tip
        // and compacts everything behind it.
        let mut tail = WalTail::new(&dir);
        let snap = recover(&dir).unwrap().to_snapshot();
        store.snapshot(&snap).unwrap();
        store.commit(&rec(10)).unwrap();
        drop(store);
        let p = tail.poll().unwrap();
        // Either the surviving segment still reaches back to seq 0 (no
        // roll removed) or the tail reports the gap; with forced rolls the
        // early segments are gone.
        assert_eq!(p.status, TailStatus::Gap);
        assert!(p.records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follower_replays_plan_frames() {
        let dir = tmp("plan");
        let (mut store, _) = DurableStore::open(&dir, StoreConfig::default()).unwrap();
        let mut tail = WalTail::new(&dir);
        let mut follower = FollowerState::new();
        for seq in 0..3 {
            store.commit(&rec(seq)).unwrap();
        }
        // A migration swaps shards 0 and 1 at seq 3; batches continue.
        let pre = recover(&dir).unwrap();
        let plan = WalRecord::Plan(PlanRecord {
            seq: 3,
            retained_weight: pre.total_weight(),
            moved_workers: 1,
            moved_tasks: 1,
            shards: vec![pre.shards[1].clone(), pre.shards[0].clone()],
        });
        store.commit(&plan).unwrap();
        store.commit(&rec(4)).unwrap();
        let p = tail.poll().unwrap();
        assert_eq!(p.status, TailStatus::Clean);
        assert_eq!(p.records.len(), 5);
        p.records.iter().for_each(|r| follower.apply(r));
        assert_eq!(follower.watermark(), 5);
        // The mirror equals a fresh recovery across the plan boundary.
        drop(store);
        let recovered = recover(&dir).unwrap();
        assert_eq!(follower.to_recovered().shards, recovered.shards);
        assert!((follower.total_weight() - recovered.total_weight()).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_roundtrip() {
        let dir = tmp("heartbeat");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(heartbeat_age(&dir).unwrap(), None);
        heartbeat_touch(&dir).unwrap();
        let age = heartbeat_age(&dir).unwrap().expect("heartbeat exists");
        assert!(age < Duration::from_secs(10));
        // The heartbeat file is invisible to snapshot/segment listings.
        assert!(wal::segment_files(&dir).unwrap().is_empty());
        assert!(crate::snapshot::snapshot_files(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
