//! Property tests for the durability formats: (1) a [`BatchRecord`]
//! survives encode → decode bit-for-bit for arbitrary contents, and
//! (2) chopping a WAL at *any* byte offset never panics and always
//! recovers a clean record prefix — the "truncate-anywhere" guarantee the
//! crash-recovery path is built on.

use mbta_store::record::{BatchRecord, DecisionRecord, WalRecord, WeightDelta};
use mbta_store::store::recover;
use mbta_store::wal::{segment_files, FsyncPolicy, Wal, WalConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Ordinary magnitudes mixed with exact-bit hazards (negative zero,
/// subnormal, huge). NaN is excluded: the service never emits NaN weights,
/// and `PartialEq` on the decoded struct would read it as a mismatch.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u32..5, -1.0e3f64..1.0e3).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MIN_POSITIVE,
        3 => 1.0e300,
        _ => v,
    })
}

fn arb_delta() -> impl Strategy<Value = WeightDelta> {
    (0u32..10_000, arb_weight()).prop_map(|(edge, weight)| WeightDelta { edge, weight })
}

fn arb_decision() -> impl Strategy<Value = DecisionRecord> {
    (
        0u32..64,
        0u32..10_000,
        any::<bool>(),
        0u32..5_000,
        0u32..5_000,
        arb_weight(),
    )
        .prop_map(
            |(shard, edge, assign, worker, task, weight)| DecisionRecord {
                shard,
                edge,
                assign,
                worker,
                task,
                weight,
            },
        )
}

/// A record body; `seq` is patched in by the caller.
fn arb_record() -> impl Strategy<Value = BatchRecord> {
    (
        arb_weight(),
        arb_weight(),
        0u32..200,
        vec(arb_delta(), 0..8),
        vec(arb_decision(), 0..8),
    )
        .prop_map(
            |(first_time, last_time, events, deltas, decisions)| BatchRecord {
                seq: 0,
                first_time,
                last_time,
                events,
                deltas,
                decisions,
            },
        )
}

fn tmp(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbta-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The assignment state after replaying `recs` in order, shard by shard.
fn replay_by_hand(recs: &[BatchRecord]) -> Vec<Vec<u32>> {
    let mut shards: Vec<BTreeSet<u32>> = Vec::new();
    for rec in recs {
        for d in &rec.decisions {
            let s = d.shard as usize;
            if shards.len() <= s {
                shards.resize_with(s + 1, BTreeSet::new);
            }
            if d.assign {
                shards[s].insert(d.edge);
            } else {
                shards[s].remove(&d.edge);
            }
        }
    }
    shards
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, including f64 bit patterns.
    #[test]
    fn record_round_trips(seq in 0u64..1_000_000, rec in arb_record()) {
        let rec = BatchRecord { seq, ..rec };
        let decoded = BatchRecord::decode(&rec.encode()).unwrap();
        prop_assert_eq!(decoded, rec);
    }

    /// Chopping the log at any byte offset recovers some clean prefix of
    /// the committed records — never a panic, never an invented or
    /// half-applied record.
    #[test]
    fn truncate_anywhere_recovers_a_prefix(
        bodies in vec(arb_record(), 1..6),
        cut_frac in 0.0f64..=1.0,
        tag in 0u64..1_000_000,
    ) {
        let recs: Vec<BatchRecord> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| BatchRecord { seq: i as u64, ..body })
            .collect();
        let dir = tmp(tag);
        let mut wal = Wal::open(&dir, WalConfig {
            fsync: FsyncPolicy::Never, // speed; fsync is irrelevant to layout
            ..WalConfig::default()
        }).unwrap();
        for rec in &recs {
            wal.append(&WalRecord::Batch(rec.clone())).unwrap();
        }
        drop(wal);

        // Chop the single segment at an arbitrary byte offset.
        let (_, path) = segment_files(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = (((bytes.len() as f64) * cut_frac) as usize).min(bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let state = recover(&dir).unwrap();
        // Watermark is some prefix length, and the recovered assignment
        // state equals replaying exactly that prefix by hand.
        prop_assert!(state.watermark <= recs.len() as u64);
        let expect = replay_by_hand(&recs[..state.watermark as usize]);
        prop_assert_eq!(&state.shards, &expect);
        // A cut on a frame boundary is a clean (shorter) log; anywhere
        // else leaves a torn tail that must be reported as truncated.
        if cut == bytes.len() {
            prop_assert_eq!(state.watermark, recs.len() as u64);
            prop_assert_eq!(state.truncated_bytes, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
