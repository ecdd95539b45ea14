//! Property tests for the fleet WAL: encode → decode → replay reproduces
//! the exact TTKV state, under arbitrary op sequences and batch splits,
//! and compactions folded from the append buffer equal the rebuild path.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use ocasta_fleet::{Wal, WalReader, WalWriter};
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{Key, TimePrecision, Timestamp, Ttkv, Value};

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,20}".prop_map(Value::from),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => scalar(),
        1 => prop::collection::vec(scalar(), 0..4).prop_map(Value::List),
    ]
}

fn op() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        (0u8..12, 0u64..1_000_000, value()).prop_map(|(k, t, v)| {
            TraceOp::Mutation(AccessEvent::write(
                Timestamp::from_millis(t),
                Key::new(format!("app/key{k}")),
                v,
            ))
        }),
        (0u8..12, 0u64..1_000_000).prop_map(|(k, t)| {
            TraceOp::Mutation(AccessEvent::delete(
                Timestamp::from_millis(t),
                Key::new(format!("app/key{k}")),
            ))
        }),
        (0u8..12, 0u64..10_000)
            .prop_map(|(k, count)| { TraceOp::Reads(Key::new(format!("app/key{k}")), count) }),
    ]
}

/// Writes `ops` into an in-memory WAL split into batches of `batch` ops.
fn write_wal(ops: &[TraceOp], batch: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = WalWriter::new(&mut bytes).unwrap();
    for chunk in ops.chunks(batch.max(1)) {
        writer.append(chunk).unwrap();
    }
    writer.flush().unwrap();
    bytes
}

fn direct_store(ops: &[TraceOp], precision: TimePrecision) -> Ttkv {
    let mut store = Ttkv::new();
    for op in ops {
        op.clone().apply(&mut store, precision);
    }
    store
}

proptest! {
    /// The op stream read back from a WAL is byte-for-byte the op stream
    /// written, for every batch split.
    #[test]
    fn wal_preserves_op_streams(
        ops in prop::collection::vec(op(), 0..80),
        batch in 1usize..17,
    ) {
        let bytes = write_wal(&ops, batch);
        let mut reader = WalReader::new(bytes.as_slice()).unwrap();
        let decoded = reader.read_all().unwrap();
        prop_assert_eq!(decoded, ops);
        prop_assert!(!reader.torn_tail());
    }

    /// WAL replay reproduces the exact store a direct sequential apply
    /// builds — at both timestamp precisions.
    #[test]
    fn wal_replay_reproduces_exact_state(
        ops in prop::collection::vec(op(), 1..80),
        batch in 1usize..17,
    ) {
        let bytes = write_wal(&ops, batch);
        for precision in [TimePrecision::Milliseconds, TimePrecision::Seconds] {
            let replayed = WalReader::new(bytes.as_slice())
                .unwrap()
                .replay(precision)
                .unwrap();
            prop_assert_eq!(replayed, direct_store(&ops, precision));
        }
    }

    /// Truncating a WAL anywhere yields a clean prefix: every complete
    /// frame survives, nothing errors, and the replayed prefix state equals
    /// the direct build over the surviving ops.
    #[test]
    fn truncated_wal_replays_a_clean_prefix(
        ops in prop::collection::vec(op(), 1..60),
        batch in 1usize..9,
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = write_wal(&ops, batch);
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        let truncated = &bytes[..cut.clamp(ocasta_fleet::WAL_MAGIC.len(), bytes.len())];
        let mut reader = WalReader::new(truncated).unwrap();
        let surviving = reader.read_all().unwrap();
        let frames = reader.frames_read();
        // The survivors are exactly the first `frames` whole batches.
        let expected: Vec<TraceOp> = ops.chunks(batch).take(frames).flatten().cloned().collect();
        prop_assert_eq!(surviving, expected);
    }

    /// Pruned compactions equal replaying every op and pruning once at the
    /// newest horizon, whether each delta comes from the append buffer or,
    /// after a reopen, from the log read back — at both precisions and
    /// through chain rebases.
    #[test]
    fn buffered_compactions_equal_the_rebuild_path(
        ops in prop::collection::vec(op(), 1..120),
        batch in 1usize..17,
        rounds in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..6),
        seconds in any::<bool>(),
        rebase_layers in 1usize..4,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ocasta-prop-wal-buffer-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let precision = if seconds { TimePrecision::Seconds } else { TimePrecision::Milliseconds };
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_rebase_layers(rebase_layers);
        let per_round = ops.len().div_ceil(rounds.len());
        let mut newest = Timestamp::EPOCH;
        for (chunk, &(horizon_ms, reopen)) in ops.chunks(per_round).zip(&rounds) {
            let (before, after) = chunk.split_at(chunk.len() / 2);
            for frame in before.chunks(batch) {
                wal.append(frame).unwrap();
            }
            if reopen {
                // The reopened handle has no buffer: its next compaction
                // reads the log, frames appended after the reopen included.
                drop(wal);
                wal = Wal::open(&dir).unwrap();
                wal.set_rebase_layers(rebase_layers);
            }
            for frame in after.chunks(batch) {
                wal.append(frame).unwrap();
            }
            let horizon = Timestamp::from_millis(horizon_ms);
            newest = newest.max(horizon);
            wal.compact_pruned(precision, horizon).unwrap();
        }
        let mut expected = direct_store(&ops, precision);
        expected.prune_before(newest);
        let replayed = wal.replay(precision).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(replayed, expected);
    }
}
