//! Snapshot-equivalence battery for epoch-pinned snapshots.
//!
//! The tentpole claim of the sealed-segments refactor is that an epoch
//! pin ([`ShardedTtkv::pin_epoch`]) is *exactly* the store the legacy
//! clone-under-lock snapshot would have produced at the same moment, at
//! every interleaving of appends, seals, staged prunes and shell
//! collection this suite can generate. The clone path
//! ([`ShardedTtkv::snapshot_store_cloned`]) is kept alive purely as the
//! oracle here.

use ocasta_fleet::ShardedTtkv;
use ocasta_trace::{AccessEvent, TraceOp};
use ocasta_ttkv::{Timestamp, Ttkv, Value};

/// Deterministic xorshift64* PRNG, same recipe as the VOPR harness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn write_op(key: &str, t: u64, v: i64) -> TraceOp {
    TraceOp::Mutation(AccessEvent::write(
        Timestamp::from_millis(t),
        key,
        Value::from(v),
    ))
}

/// A random history chunk: timestamps wander (within-shard ties and
/// out-of-order arrivals included), keys collide across chunks.
fn random_chunk(rng: &mut Rng, clock: &mut u64, ops: usize) -> Vec<TraceOp> {
    (0..ops)
        .map(|_| {
            // Mostly advancing, sometimes repeating, timestamps.
            *clock += rng.below(20);
            let key = format!("app/k{}", rng.below(23));
            write_op(&key, *clock, rng.next() as i64 % 1000)
        })
        .collect()
}

/// Satellite 1: random histories × staged prunes (with occasional shell
/// collection) — after every stage, the epoch-pinned view is
/// field-for-field equal to the clone-under-lock snapshot AND to an
/// independent sequential store that experienced the identical op and
/// prune sequence. Exact `Ttkv` equality covers every field: history,
/// baselines, per-key counters, aggregates.
#[test]
fn epoch_snapshot_equals_clone_snapshot() {
    for seed in 1..=12u64 {
        let mut rng = Rng::new(seed * 0x9E37_79B9);
        let shards = 1 + rng.below(5) as usize;
        let seal_threshold = 1 + rng.below(40) as usize;
        let sharded = ShardedTtkv::with_seal_threshold(shards, seal_threshold);
        let mut oracle = Ttkv::new();
        let mut clock = 0u64;

        for stage in 0..8 {
            let ops = 40 + rng.below(60) as usize;
            let chunk = random_chunk(&mut rng, &mut clock, ops);
            for op in &chunk {
                op.clone()
                    .apply(&mut oracle, ocasta_ttkv::TimePrecision::Milliseconds);
            }
            sharded.append_routed(chunk);

            // Staged prunes: usually advancing, sometimes retreating (a
            // retreat must be a no-op on both sides).
            if stage % 2 == 1 {
                let horizon = Timestamp::from_millis(rng.below(clock + 1));
                sharded.prune_before(horizon);
                oracle.prune_before(horizon);
            }
            if stage == 5 {
                let swept = sharded.gc_dead_shells();
                let direct = oracle.gc_dead_shells();
                assert_eq!(swept, direct, "seed {seed} stage {stage}: shells");
            }

            let pinned = sharded.pin_epoch();
            let epoch = pinned.materialize();
            let clone = sharded.snapshot_store_cloned();
            assert_eq!(
                epoch, clone,
                "seed {seed} stage {stage}: epoch pin != clone-under-lock oracle"
            );
            assert_eq!(
                epoch, oracle,
                "seed {seed} stage {stage}: snapshot != sequential oracle"
            );
        }
        assert_eq!(sharded.into_ttkv(), oracle, "seed {seed}: final fold");
    }
}

/// Concurrent appends race pins and sweeps. With writers in flight the
/// "same moment" is defined by the pin itself: its immediate
/// materialization is the oracle, and re-materializing after all churn
/// settles must reproduce it exactly. At quiescence the epoch pin, the
/// clone path and the consuming fold all agree.
#[test]
fn epoch_pins_under_concurrent_appends_and_sweeps_are_exact() {
    for seed in [3u64, 17, 99] {
        let sharded = ShardedTtkv::with_seal_threshold(4, 24);
        let pins = std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let sharded = &sharded;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (worker + 1));
                    let mut clock = 0u64;
                    for _ in 0..30 {
                        // Disjoint key spaces keep the final store
                        // deterministic; batches are whole per-key rounds.
                        let ops: Vec<TraceOp> = (0..4)
                            .map(|i| {
                                clock += rng.below(50);
                                write_op(&format!("w{worker}/k{}", rng.below(7)), clock, i)
                            })
                            .collect();
                        sharded.append_routed(ops);
                    }
                });
            }
            let sweeper = scope.spawn(|| {
                for sweep in 1..=6u64 {
                    sharded.prune_before(Timestamp::from_millis(sweep * 100));
                }
            });
            let mut pins = Vec::new();
            for _ in 0..8 {
                let pin = sharded.pin_epoch();
                let oracle = pin.materialize();
                pins.push((pin, oracle));
            }
            sweeper.join().expect("sweeper panicked");
            pins
        });
        for (i, (pin, oracle)) in pins.iter().enumerate() {
            assert_eq!(
                &pin.materialize(),
                oracle,
                "seed {seed} pin {i}: drifted after the run settled"
            );
        }
        let epoch = sharded.snapshot_store();
        assert_eq!(epoch, sharded.snapshot_store_cloned(), "seed {seed}");
        assert_eq!(epoch, sharded.into_ttkv(), "seed {seed}");
    }
}

/// Seal-boundary regression: a prune horizon landing exactly on a
/// sealed-segment boundary, with a pin held across the sweep, must leave
/// both the pin (pre-sweep state) and the post-sweep snapshot equal to
/// their sequential-oracle counterparts.
#[test]
fn pin_across_a_boundary_sweep_sees_pre_sweep_state_exactly() {
    let sharded = ShardedTtkv::with_seal_threshold(1, 5);
    let ops: Vec<TraceOp> = (0..15)
        .map(|i| write_op("app/k", i * 10, i as i64))
        .collect();
    sharded.append_routed(ops.clone());

    let mut oracle_before = Ttkv::new();
    for op in &ops {
        op.clone()
            .apply(&mut oracle_before, ocasta_ttkv::TimePrecision::Milliseconds);
    }

    let pin = sharded.pin_epoch();
    // Horizon exactly at the second segment's first timestamp (ops seal
    // in fives: segments start at 0ms, 50ms, 100ms).
    let boundary = Timestamp::from_millis(50);
    sharded.prune_before(boundary);

    let mut oracle_after = oracle_before.clone();
    oracle_after.prune_before(boundary);

    assert_eq!(
        pin.materialize(),
        oracle_before,
        "the pin held across the sweep still shows pre-sweep history"
    );
    assert_eq!(
        sharded.snapshot_store(),
        oracle_after,
        "the live store shows the swept history"
    );
    assert_eq!(sharded.snapshot_store(), sharded.snapshot_store_cloned());
}

/// Session open does not grow with live state: a pin copies only the
/// unsealed tails, under one seal threshold per shard however much
/// history the store holds, and shares the sealed segments, so once live
/// state outgrows the tails the pin must reference segments. At every
/// size the pin still materializes into exactly the clone-under-lock
/// store.
#[test]
fn session_open_copies_only_the_unsealed_tails() {
    for ops in [10_000usize, 40_000, 160_000] {
        let sharded = ShardedTtkv::new(8);
        sharded.append_routed(
            (0..ops)
                .map(|i| write_op(&format!("app/k{:05}", i % 4096), i as u64, i as i64))
                .collect(),
        );
        let tail_capacity = sharded.shard_count() * sharded.seal_threshold();
        let pin = sharded.pin_epoch();
        assert!(
            pin.pinned_tail_mutations() < tail_capacity,
            "{ops} ops: the pin copied {} tail mutations",
            pin.pinned_tail_mutations()
        );
        if ops > tail_capacity {
            assert!(
                pin.segment_count() > 0,
                "{ops} ops: no sealed segment shared"
            );
        }
        assert_eq!(
            pin.materialize(),
            sharded.snapshot_store_cloned(),
            "{ops} ops: epoch pin != clone-under-lock store"
        );
    }
}
