//! Property-based tests for the TTKV.

use proptest::prelude::*;

use ocasta_ttkv::{Key, TimePrecision, Timestamp, Ttkv, TtkvBuilder, Value};

/// Strategy for scalar values.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,16}".prop_map(Value::from),
    ]
}

/// Strategy for arbitrary values (scalars plus shallow lists).
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => scalar(),
        1 => prop::collection::vec(scalar(), 0..4).prop_map(Value::List),
    ]
}

/// One mutation op against a small key space.
#[derive(Debug, Clone)]
enum Op {
    Write(u8, u64, Value),
    Delete(u8, u64),
    Read(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u64..100_000, value()).prop_map(|(k, t, v)| Op::Write(k % 8, t, v)),
        (any::<u8>(), 0u64..100_000).prop_map(|(k, t)| Op::Delete(k % 8, t)),
        any::<u8>().prop_map(|k| Op::Read(k % 8)),
    ]
}

fn key_name(k: u8) -> String {
    format!("app/key{k}")
}

/// Applies `ops`, skipping every op that touches a key in `skip`.
fn apply_filtered(ops: &[Op], skip: &[String]) -> Ttkv {
    let kept: Vec<Op> = ops
        .iter()
        .filter(|o| {
            let k = match o {
                Op::Write(k, ..) | Op::Delete(k, _) | Op::Read(k) => *k,
            };
            !skip.iter().any(|s| s == &key_name(k))
        })
        .cloned()
        .collect();
    apply(&kept)
}

fn apply(ops: &[Op]) -> Ttkv {
    let mut store = Ttkv::new();
    for o in ops {
        match o {
            Op::Write(k, t, v) => store.write(
                Timestamp::from_millis(*t),
                Key::new(key_name(*k)),
                v.clone(),
            ),
            Op::Delete(k, t) => store.delete(Timestamp::from_millis(*t), Key::new(key_name(*k))),
            Op::Read(k) => store.read(Key::new(key_name(*k))),
        }
    }
    store
}

/// `store` saved as a binary v2 segment and loaded back.
fn reloaded(store: &Ttkv) -> Ttkv {
    let mut bytes = Vec::new();
    store.save(&mut bytes).unwrap();
    Ttkv::load(bytes.as_slice()).unwrap()
}

proptest! {
    /// Persistence round-trips bit-exactly for arbitrary op sequences.
    #[test]
    fn persist_roundtrip(ops in prop::collection::vec(op(), 0..60)) {
        let store = apply(&ops);
        prop_assert_eq!(reloaded(&store), store);
    }

    /// Binary v2 persistence is exact on arbitrary pruned stores: random
    /// histories (both value precisions, tombstones, dead keys) pruned at a
    /// random horizon load back identically, and the reloaded store exports
    /// the same text v1 dump as the original.
    #[test]
    fn text_and_binary_persist_agree(
        ops in prop::collection::vec(op(), 0..60),
        horizon in 0u64..120_000,
    ) {
        let mut store = apply(&ops);
        // Pruning manufactures live and dead baselines plus lifetime
        // counters that exceed the surviving history.
        store.prune_before(Timestamp::from_millis(horizon));
        let from_v2 = reloaded(&store);
        prop_assert_eq!(from_v2.save_to_string(), store.save_to_string());
        prop_assert_eq!(from_v2, store);
    }

    /// `value_at` at a key's own mutation timestamps replays the sequential
    /// history: at the time of a write (and before the next mutation), the
    /// visible value is that write's value.
    #[test]
    fn value_at_matches_sequential_replay(ops in prop::collection::vec(op(), 1..60)) {
        let store = apply(&ops);
        for (key, record) in store.iter() {
            let history = record.history();
            for (i, version) in history.iter().enumerate() {
                // Find the last version sharing this timestamp (ties resolve
                // to insertion order; the last write at time t wins).
                let t = version.timestamp;
                let winner = history.iter().rev().find(|v| v.timestamp == t).unwrap();
                if history[i].timestamp == t {
                    prop_assert_eq!(
                        store.value_at(key.as_str(), t),
                        winner.value.as_ref(),
                        "key {} at {}", key, t
                    );
                }
            }
        }
    }

    /// Snapshots agree pointwise with `value_at`.
    #[test]
    fn snapshot_agrees_with_value_at(
        ops in prop::collection::vec(op(), 1..60),
        probe in 0u64..100_000,
    ) {
        let store = apply(&ops);
        let t = Timestamp::from_millis(probe);
        let snapshot = store.snapshot_at(t);
        for key in store.keys() {
            prop_assert_eq!(snapshot.get(key.as_str()), store.value_at(key.as_str(), t));
        }
    }

    /// History timestamps are always non-decreasing, even for out-of-order
    /// ingestion.
    #[test]
    fn history_is_sorted(ops in prop::collection::vec(op(), 0..60)) {
        let store = apply(&ops);
        for (_, record) in store.iter() {
            let times: Vec<_> = record.mutation_times().collect();
            let mut sorted = times.clone();
            sorted.sort();
            prop_assert_eq!(times, sorted);
        }
    }

    /// Pruning preserves every query at or after the horizon — including
    /// the horizon itself (tombstone-at-horizon and version-exactly-at-
    /// horizon edges fall out of the random op timestamps hitting the
    /// probed horizon).
    #[test]
    fn prune_preserves_post_horizon_queries(
        ops in prop::collection::vec(op(), 1..60),
        horizon in 0u64..100_000,
        probes in prop::collection::vec(0u64..100_000, 1..10),
    ) {
        let original = apply(&ops);
        let mut pruned = original.clone();
        let h = Timestamp::from_millis(horizon);
        let stats = pruned.prune_before(h);
        // The horizon itself is always probed: it is the hardest edge.
        for &probe in probes.iter().chain([&horizon]) {
            let t = Timestamp::from_millis(probe.max(horizon));
            for key in original.keys() {
                prop_assert_eq!(
                    original.value_at(key.as_str(), t),
                    pruned.value_at(key.as_str(), t),
                    "key {} at {} (horizon {})", key, t, h
                );
            }
            prop_assert_eq!(original.snapshot_at(t), pruned.snapshot_at(t));
        }
        // Counters are untouched.
        prop_assert_eq!(original.stats().writes, pruned.stats().writes);
        prop_assert_eq!(original.stats().reads, pruned.stats().reads);
        prop_assert_eq!(original.stats().deletes, pruned.stats().deletes);
        // The reclaimed bytes are exactly the footprint difference.
        prop_assert_eq!(
            pruned.approx_bytes() + stats.reclaimed_bytes,
            original.approx_bytes()
        );
        // Pruning never grows the store.
        prop_assert!(pruned.approx_bytes() <= original.approx_bytes());
    }

    /// Pruning never synthesises mutations (the phantom-baseline
    /// regression), and every key `modified_keys` reports still has real
    /// history to search.
    #[test]
    fn prune_invents_no_mutations_and_keeps_modified_keys_searchable(
        ops in prop::collection::vec(op(), 1..60),
        horizon in 0u64..100_000,
    ) {
        let original = apply(&ops);
        let mut pruned = original.clone();
        pruned.prune_before(Timestamp::from_millis(horizon));
        for (key, record) in pruned.iter() {
            let original_times: Vec<_> = original
                .record(key.as_str())
                .expect("prune drops no keys")
                .mutation_times()
                .collect();
            for t in record.mutation_times() {
                prop_assert!(
                    original_times.contains(&t),
                    "phantom mutation at {} on {}", t, key
                );
            }
        }
        for key in pruned.modified_keys() {
            let record = pruned.record(key.as_str()).expect("listed keys exist");
            prop_assert!(!record.history().is_empty(), "{} has no history", key);
        }
    }

    /// Pruning commutes with absorbing new (post-horizon) data: prune-then-
    /// absorb equals absorb-then-prune — the invariant that makes the fleet
    /// retention sweep safe to run concurrently with ingestion, where every
    /// shard keeps accepting fresh batches after each sweep.
    #[test]
    fn prune_commutes_with_absorbing_fresh_data(
        old_ops in prop::collection::vec(op(), 0..40),
        new_ops in prop::collection::vec(op(), 0..40),
        horizon in 0u64..100_000,
    ) {
        let h = Timestamp::from_millis(horizon);
        // Shift the fresh batch's mutations to or beyond the horizon — the
        // retention sweeper only ever prunes behind the ingest frontier.
        let shifted: Vec<Op> = new_ops
            .iter()
            .map(|o| match o {
                Op::Write(k, t, v) => {
                    Op::Write(*k, horizon.saturating_add(*t), v.clone())
                }
                Op::Delete(k, t) => Op::Delete(*k, horizon.saturating_add(*t)),
                Op::Read(k) => Op::Read(*k),
            })
            .collect();
        let base = apply(&old_ops);
        let fresh = apply(&shifted);

        let mut prune_then_absorb = base.clone();
        prune_then_absorb.prune_before(h);
        prune_then_absorb.absorb(fresh.clone());

        let mut absorb_then_prune = base;
        absorb_then_prune.absorb(fresh);
        absorb_then_prune.prune_before(h);

        prop_assert_eq!(prune_then_absorb, absorb_then_prune);
    }

    /// Staged sweeps equal one direct prune: prune at `h1`, absorb
    /// **arbitrary** late data (stragglers may predate `h1` — a lagging
    /// fleet machine), prune again at `h2 ≥ h1`, and the result is
    /// identical to pruning the combined history once at `h2`. This is the
    /// property that makes concurrently swept ingestion deterministic:
    /// however sweeps interleave with appends, the final re-prune lands on
    /// the same store.
    #[test]
    fn staged_sweeps_equal_one_direct_prune(
        old_ops in prop::collection::vec(op(), 0..40),
        new_ops in prop::collection::vec(op(), 0..40),
        h1 in 0u64..100_000,
        h2 in 0u64..100_000,
    ) {
        let (h1, h2) = (h1.min(h2), h1.max(h2));
        let (h1, h2) = (Timestamp::from_millis(h1), Timestamp::from_millis(h2));
        let base = apply(&old_ops);
        let fresh = apply(&new_ops);

        let mut staged = base.clone();
        staged.prune_before(h1);
        staged.absorb(fresh.clone());
        staged.prune_before(h2);

        let mut direct = base;
        direct.absorb(fresh);
        direct.prune_before(h2);

        prop_assert_eq!(staged, direct);
    }

    /// Quantising a builder's buffered accesses in place equals buffering
    /// the already-quantised accesses: same `last_time`, and the same store
    /// when both are built onto a pre-built base, with the ties
    /// quantisation creates ranked by arrival.
    #[test]
    fn apply_precision_equals_buffering_quantised_accesses(
        base in prop::collection::vec(op(), 0..20),
        tail in prop::collection::vec(op(), 0..60),
    ) {
        let buffer = |builder: &mut TtkvBuilder, precision: TimePrecision| {
            for o in &tail {
                match o {
                    Op::Write(k, t, v) => builder.write(
                        precision.apply(Timestamp::from_millis(*t)),
                        Key::new(key_name(*k)),
                        v.clone(),
                    ),
                    Op::Delete(k, t) => builder.delete(
                        precision.apply(Timestamp::from_millis(*t)),
                        Key::new(key_name(*k)),
                    ),
                    Op::Read(k) => builder.add_reads(Key::new(key_name(*k)), 1),
                }
            }
        };
        let mut raw = TtkvBuilder::new();
        buffer(&mut raw, TimePrecision::Milliseconds);
        raw.apply_precision(TimePrecision::Seconds);
        let mut quantised = TtkvBuilder::new();
        buffer(&mut quantised, TimePrecision::Seconds);
        prop_assert_eq!(raw.last_time(), quantised.last_time());
        let (mut raw_store, mut quantised_store) = (apply(&base), apply(&base));
        raw.build_into(&mut raw_store);
        quantised.build_into(&mut quantised_store);
        prop_assert_eq!(raw_store, quantised_store);
    }

    /// The per-record last-mutation watermark is prune-invariant — the
    /// rank-stability contract `ocasta-repair`'s cluster sort relies on.
    #[test]
    fn last_mutation_watermark_is_prune_invariant(
        ops in prop::collection::vec(op(), 1..60),
        horizons in prop::collection::vec(0u64..100_000, 1..4),
    ) {
        let original = apply(&ops);
        let mut pruned = original.clone();
        let mut sorted = horizons;
        sorted.sort_unstable();
        for h in sorted {
            pruned.prune_before(Timestamp::from_millis(h));
            for (key, record) in original.iter() {
                prop_assert_eq!(
                    pruned
                        .record(key.as_str())
                        .expect("prune drops no keys")
                        .last_mutation_watermark(),
                    record.last_mutation_watermark(),
                    "key {} at horizon {}", key, h
                );
            }
        }
    }

    /// Dead-shell GC is equivalent to the collected keys never having
    /// existed: prune + GC, then rewrite the keys — the store is
    /// indistinguishable, field for field, from one where those keys'
    /// pre-GC history was never ingested. This is the "GC'd-then-rewritten
    /// keys behave like fresh keys" contract (the dead-shell-leak fix).
    #[test]
    fn gcd_then_rewritten_keys_behave_like_fresh_keys(
        old_ops in prop::collection::vec(op(), 0..50),
        new_ops in prop::collection::vec(op(), 0..30),
        horizon in 0u64..100_000,
    ) {
        let h = Timestamp::from_millis(horizon);
        let mut gcd = apply(&old_ops);
        gcd.prune_before(h);
        let shells: Vec<String> = gcd
            .iter()
            .filter(|(_, r)| r.is_dead_shell())
            .map(|(k, _)| k.as_str().to_owned())
            .collect();
        let collected = gcd.gc_dead_shells();
        prop_assert_eq!(collected, shells.len() as u64);
        for key in &shells {
            prop_assert!(gcd.record(key).is_none(), "{} survived GC", key);
        }

        // The counterfactual: the shells' ops never happened at all.
        let mut fresh = apply_filtered(&old_ops, &shells);
        fresh.prune_before(h);
        prop_assert_eq!(fresh.gc_dead_shells(), 0, "no shells left to collect");
        prop_assert_eq!(&gcd, &fresh);

        // Rewriting the collected keys lands on the same store either way
        // (shift past the horizon: the sweeper only prunes behind the
        // frontier, and a straggler rewrite is exercised by the staged-
        // sweep properties above).
        let shifted: Vec<Op> = new_ops
            .iter()
            .map(|o| match o {
                Op::Write(k, t, v) => Op::Write(*k, horizon.saturating_add(*t), v.clone()),
                Op::Delete(k, t) => Op::Delete(*k, horizon.saturating_add(*t)),
                Op::Read(k) => Op::Read(*k),
            })
            .collect();
        let rewrites = apply(&shifted);
        gcd.absorb(rewrites.clone());
        fresh.absorb(rewrites);
        prop_assert_eq!(gcd, fresh);
    }

    /// GC keeps the store's aggregate counters consistent with its
    /// records: the persist round-trip (which *recomputes* aggregates from
    /// per-record counters on load) is still exact after a GC. This is the
    /// property that forces `gc_dead_shells` to decrement the aggregates —
    /// dropping records while keeping their counts would diverge here.
    #[test]
    fn gc_keeps_aggregates_and_persistence_consistent(
        ops in prop::collection::vec(op(), 0..50),
        horizon in 0u64..100_000,
    ) {
        let mut store = apply(&ops);
        store.prune_before(Timestamp::from_millis(horizon));
        store.gc_dead_shells();
        prop_assert_eq!(reloaded(&store), store);
    }

    /// Absorbing one store into another preserves totals and merged
    /// histories stay sorted.
    #[test]
    fn merge_preserves_totals(
        a in prop::collection::vec(op(), 0..40),
        b in prop::collection::vec(op(), 0..40),
    ) {
        let sa = apply(&a);
        let sb = apply(&b);
        let (ta, tb) = (sa.stats(), sb.stats());
        let mut merged = sa;
        merged.absorb(sb);
        let tm = merged.stats();
        prop_assert_eq!(tm.reads, ta.reads + tb.reads);
        prop_assert_eq!(tm.writes, ta.writes + tb.writes);
        prop_assert_eq!(tm.deletes, ta.deletes + tb.deletes);
        for (_, record) in merged.iter() {
            let times: Vec<_> = record.mutation_times().collect();
            let mut sorted = times.clone();
            sorted.sort();
            prop_assert_eq!(times, sorted);
        }
    }
}
