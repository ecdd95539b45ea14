//! Bulk construction of [`Ttkv`] stores.
//!
//! [`Ttkv::write`] keeps every key's history sorted on every insertion — ideal
//! for live recording but wasteful when a large, possibly out-of-order
//! batch is ingested at once (WAL replay, shard ingestion, trace merges):
//! each out-of-order arrival pays a `Vec::insert` shift. [`TtkvBuilder`]
//! instead accumulates mutations unordered and sorts once at
//! [`TtkvBuilder::build`] time, so every per-key insertion is an append.
//!
//! The builder produces *exactly* the store that sequential
//! [`Ttkv::write`]/[`Ttkv::delete`] calls in the same arrival order would
//! produce: the sort is stable on timestamps, and ties therefore preserve
//! arrival order — the same rule `KeyRecord::record_mutation` applies.

use std::collections::{BTreeMap, BTreeSet};

use crate::record::Version;
use crate::stats::PruneStats;
use crate::store::Ttkv;
use crate::time::{TimePrecision, Timestamp};
use crate::value::Value;
use crate::Key;

/// Accumulates accesses and builds a [`Ttkv`] in one sorted pass.
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::{Timestamp, Ttkv, TtkvBuilder, Value};
///
/// let mut builder = TtkvBuilder::new();
/// builder.write(Timestamp::from_secs(9), "app/theme", Value::from("light"));
/// builder.write(Timestamp::from_secs(1), "app/theme", Value::from("dark"));
/// builder.add_reads("app/theme", 40);
///
/// let store = builder.build();
/// assert_eq!(store.value_at("app/theme", Timestamp::from_secs(5)),
///            Some(&Value::from("dark")));
/// assert_eq!(store.stats().reads, 40);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TtkvBuilder {
    /// A pre-built store the buffered tail layers onto. This is what lets a
    /// live fleet shard be pruned in place: fold the tail into the base,
    /// prune the base, and keep appending — see
    /// [`TtkvBuilder::from_store`].
    base: Ttkv,
    mutations: Vec<(Key, Version)>,
    reads: BTreeMap<Key, u64>,
    /// Running maximum over the base store and the buffered tail, so
    /// [`TtkvBuilder::last_time`] is O(1) — it is polled under the fleet
    /// shard stripe locks by the retention sweeper.
    max_time: Option<Timestamp>,
    /// Conservative earliest-history index over the **base** store: every
    /// base record with a non-empty history has at least one entry at or
    /// below its earliest surviving mutation timestamp. Entries may be
    /// stale (a record's earliest moved and the old entry remains until
    /// the horizon passes it; [`TtkvBuilder::append`] unions both sides'
    /// entries verbatim); [`TtkvBuilder::prune_before`] re-checks each
    /// popped record, so staleness costs one lookup, never correctness —
    /// and the set representation makes re-registering an unchanged
    /// record a no-op, so a hot key swept every interval holds exactly
    /// one entry, not one per sweep. This is what lets a sweep find every
    /// record it can reclaim from *without scanning the live store* —
    /// the O(reclaimed) half of the incremental-prune contract.
    prune_index: BTreeSet<(Timestamp, Key)>,
}

impl TtkvBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TtkvBuilder::default()
    }

    /// Creates a builder with space for `mutations` mutations.
    pub fn with_capacity(mutations: usize) -> Self {
        TtkvBuilder {
            base: Ttkv::new(),
            mutations: Vec::with_capacity(mutations),
            reads: BTreeMap::new(),
            max_time: None,
            prune_index: BTreeSet::new(),
        }
    }

    /// Creates a builder whose output layers future accesses onto an
    /// already-built store.
    ///
    /// `builder.build()` then equals `store` extended by the buffered
    /// accesses in arrival order — exactly as if the store's own history
    /// had been buffered first. The fleet tier used this to prune a live
    /// shard by rebuilding it; [`TtkvBuilder::prune_before`] now prunes in
    /// place, and `from_store` is the setup path that seeds the earliest-
    /// history index with one O(live) scan so every later sweep can be
    /// O(reclaimed).
    pub fn from_store(store: Ttkv) -> Self {
        let mut prune_index: BTreeSet<(Timestamp, Key)> = BTreeSet::new();
        for (key, record) in store.iter() {
            if let Some(first) = record.history().first() {
                prune_index.insert((first.timestamp, key.clone()));
            }
        }
        TtkvBuilder {
            max_time: store.last_mutation_time(),
            base: store,
            mutations: Vec::new(),
            reads: BTreeMap::new(),
            prune_index,
        }
    }

    /// Buffers a write of `value` to `key` at time `t`.
    pub fn write(&mut self, t: Timestamp, key: impl Into<Key>, value: Value) {
        self.max_time = self.max_time.max(Some(t));
        self.mutations.push((key.into(), Version::write(t, value)));
    }

    /// Buffers a deletion of `key` at time `t`.
    pub fn delete(&mut self, t: Timestamp, key: impl Into<Key>) {
        self.max_time = self.max_time.max(Some(t));
        self.mutations.push((key.into(), Version::tombstone(t)));
    }

    /// The latest timestamp across the base store and the buffered tail —
    /// what a retention sweep measures "now" against. O(1): the maximum is
    /// maintained on every buffered mutation, because this is polled under
    /// the fleet shard stripe locks.
    pub fn last_time(&self) -> Option<Timestamp> {
        self.max_time
    }

    /// Buffers `count` read accesses to `key`.
    pub fn add_reads(&mut self, key: impl Into<Key>, count: u64) {
        *self.reads.entry(key.into()).or_insert(0) += count;
    }

    /// Applies `precision` to every buffered tail mutation's timestamp, so
    /// that a later [`TtkvBuilder::build`] equals buffering the same
    /// accesses with their timestamps already quantised.
    ///
    /// Exact because the tail keeps arrival order and the stable timestamp
    /// sort runs only at build time: a tie the quantisation creates ranks
    /// by arrival either way. The fleet WAL buffers its log's ops at full
    /// precision and quantises once per compaction. The base store is
    /// already built and is left as it is.
    pub fn apply_precision(&mut self, precision: TimePrecision) {
        let mut tail_max = None;
        for (_, version) in &mut self.mutations {
            version.timestamp = precision.apply(version.timestamp);
            tail_max = tail_max.max(Some(version.timestamp));
        }
        self.max_time = tail_max.max(self.base.last_mutation_time());
    }

    /// Number of buffered tail mutations (the base store's history is
    /// already built and not counted).
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// `true` if nothing has been buffered and the base store is empty.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty() && self.reads.is_empty() && self.base.is_empty()
    }

    /// Moves everything buffered in `other` into `self` (`other`'s arrivals
    /// order after `self`'s on timestamp ties). Base stores merge by
    /// absorption.
    pub fn append(&mut self, other: TtkvBuilder) {
        self.max_time = self.max_time.max(other.max_time);
        self.base.absorb(other.base);
        self.mutations.extend(other.mutations);
        for (key, count) in other.reads {
            *self.reads.entry(key).or_insert(0) += count;
        }
        // Union of the two conservative indexes stays conservative: any
        // history in the merged base came from one side, and that side's
        // entry sits at or below its earliest timestamp.
        self.prune_index.extend(other.prune_index);
    }

    /// Prunes the builder **in place** to `horizon`, so that a later
    /// [`TtkvBuilder::build`] equals `build().prune_before(horizon)` on
    /// the pre-prune builder — without ever rebuilding the store.
    ///
    /// Cost is O(tail since the last prune + records touched + versions
    /// reclaimed), not O(live state): the buffered tail (everything that
    /// arrived since the previous sweep) is folded into the base with one
    /// delta-sized sort, and then only the records the earliest-history
    /// index proves have pre-horizon versions are pruned, each via
    /// [`crate::KeyRecord::prune_in_place`]. This is the primitive behind
    /// `ocasta-fleet`'s `ShardedTtkv::prune_before`, which holds each
    /// stripe lock for exactly this long (`DESIGN.md §5.10`).
    ///
    /// Folding the tail preserves build equivalence exactly: `build()`
    /// applies reads first (they are timestamp-free counters and commute),
    /// then one stable timestamp sort of the whole tail — and a stable
    /// sort of "everything so far" followed later by a stable sort of
    /// "everything after" concatenates to the same order, because ties
    /// never cross a fold boundary (both sides of a tie are in the same
    /// fold). `PruneStats` equal the rebuild path's too: records the index
    /// skips would have returned zero stats.
    pub fn prune_before(&mut self, horizon: Timestamp) -> PruneStats {
        // Fold the whole buffered tail into the base (the delta since the
        // last fold), leaving the tail empty for the next inter-sweep
        // window.
        let mutations = std::mem::take(&mut self.mutations);
        let reads = std::mem::take(&mut self.reads);
        let mut touched: BTreeSet<Key> = mutations.iter().map(|(k, _)| k.clone()).collect();
        TtkvBuilder::apply_tail(&mut self.base, mutations, reads);

        // Every record with a version strictly before the horizon has an
        // index entry strictly before it (conservative invariant): the
        // split boundary (horizon, "") sits below every same-timestamp
        // key, so exactly the entries with timestamp < horizon expire.
        let mut expired = self.prune_index.split_off(&(horizon, Key::new("")));
        std::mem::swap(&mut self.prune_index, &mut expired);
        touched.extend(expired.into_iter().map(|(_, key)| key));

        let mut stats = PruneStats::default();
        for key in touched {
            let Some(record) = self.base.record_mut(key.as_str()) else {
                continue;
            };
            stats.absorb(record.prune_in_place(horizon));
            if let Some(first) = record.history().first() {
                self.prune_index.insert((first.timestamp, key));
            }
        }
        stats
    }

    /// Collects dead counter-only shells from the builder, so that a later
    /// [`TtkvBuilder::build`] equals `build().gc_dead_shells()` on the
    /// pre-GC builder — see [`Ttkv::gc_dead_shells`]. Returns how many
    /// keys were collected.
    ///
    /// The buffered tail is folded into the base first: a tail mutation can
    /// resurrect a would-be shell (the rewritten key keeps its counters),
    /// and folding makes that visible before the retain pass. Stale
    /// `prune_index` entries for collected keys are tolerated by
    /// construction — [`TtkvBuilder::prune_before`] re-checks every record
    /// it pops, and a missing record is skipped.
    pub fn gc_dead_shells(&mut self) -> u64 {
        let mutations = std::mem::take(&mut self.mutations);
        let reads = std::mem::take(&mut self.reads);
        TtkvBuilder::apply_tail(&mut self.base, mutations, reads);
        self.base.gc_dead_shells()
    }

    /// Builds the store: one stable timestamp sort of the tail, applied in
    /// order onto the base store.
    pub fn build(self) -> Ttkv {
        let TtkvBuilder {
            base,
            mutations,
            reads,
            max_time: _,
            prune_index: _,
        } = self;
        let mut store = base;
        TtkvBuilder::apply_tail(&mut store, mutations, reads);
        store
    }

    /// Applies the base store and the buffered accesses to an existing
    /// store.
    ///
    /// Equivalent to replaying the buffered accesses through
    /// [`Ttkv::write`]/[`Ttkv::delete`]/[`Ttkv::add_reads`] in timestamp
    /// order, but with the sort amortised over the whole batch.
    pub fn build_into(self, store: &mut Ttkv) {
        let TtkvBuilder {
            base,
            mutations,
            reads,
            max_time: _,
            prune_index: _,
        } = self;
        store.absorb(base);
        TtkvBuilder::apply_tail(store, mutations, reads);
    }

    /// The shared tail pass: reads, then one stable timestamp sort (ties
    /// keep arrival order, matching sequential ingestion), then in-order
    /// insertion.
    fn apply_tail(store: &mut Ttkv, mutations: Vec<(Key, Version)>, reads: BTreeMap<Key, u64>) {
        for (key, count) in reads {
            store.add_reads(key, count);
        }
        let mut mutations = mutations;
        mutations.sort_by_key(|(_, version)| version.timestamp);
        for (key, version) in mutations {
            store.apply_version(key, version);
        }
    }
}

impl Extend<(Timestamp, Key, Value)> for TtkvBuilder {
    fn extend<I: IntoIterator<Item = (Timestamp, Key, Value)>>(&mut self, iter: I) {
        for (t, key, value) in iter {
            self.write(t, key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn builder_matches_sequential_ingestion() {
        // Deliberately out of order, with a timestamp tie on one key.
        let ops: Vec<(u64, &str, i64)> = vec![
            (9, "a/x", 1),
            (3, "a/y", 2),
            (9, "a/x", 3),
            (1, "a/x", 4),
            (3, "b/z", 5),
        ];
        let mut sequential = Ttkv::new();
        let mut builder = TtkvBuilder::new();
        for &(t, key, v) in &ops {
            sequential.write(ts(t), key, Value::from(v));
            builder.write(ts(t), key, Value::from(v));
        }
        sequential.delete(ts(5), "a/y");
        builder.delete(ts(5), "a/y");
        sequential.add_reads("a/x", 7);
        builder.add_reads("a/x", 7);
        assert_eq!(builder.build(), sequential);
    }

    #[test]
    fn append_concatenates_arrival_order() {
        let mut first = TtkvBuilder::new();
        first.write(ts(1), "k", Value::from("first"));
        let mut second = TtkvBuilder::new();
        second.write(ts(1), "k", Value::from("second"));
        second.add_reads("k", 2);
        first.append(second);
        assert_eq!(first.len(), 2);
        let store = first.build();
        // Tie at t=1: the later arrival (from `second`) wins.
        assert_eq!(store.current("k"), Some(&Value::from("second")));
        assert_eq!(store.stats().reads, 2);
    }

    #[test]
    fn build_into_layers_onto_existing_store() {
        let mut store = Ttkv::new();
        store.write(ts(1), "k", Value::from(1));
        let mut builder = TtkvBuilder::new();
        builder.write(ts(2), "k", Value::from(2));
        builder.build_into(&mut store);
        assert_eq!(store.record("k").unwrap().writes, 2);
        assert_eq!(store.current("k"), Some(&Value::from(2)));
    }

    #[test]
    fn empty_builder_builds_empty_store() {
        assert!(TtkvBuilder::new().is_empty());
        assert!(TtkvBuilder::new().build().is_empty());
    }

    #[test]
    fn from_store_layers_the_tail_onto_the_base() {
        // Reference: everything buffered through one builder.
        let mut whole = TtkvBuilder::new();
        whole.write(ts(1), "k", Value::from(1));
        whole.write(ts(5), "k", Value::from(5));
        whole.add_reads("k", 3);

        // Same accesses split into a pre-built base plus a live tail.
        let mut head = TtkvBuilder::new();
        head.write(ts(1), "k", Value::from(1));
        let mut resumed = TtkvBuilder::from_store(head.build());
        assert!(!resumed.is_empty(), "base store counts");
        resumed.write(ts(5), "k", Value::from(5));
        resumed.add_reads("k", 3);
        assert_eq!(resumed.len(), 1, "len counts the tail only");
        assert_eq!(resumed.last_time(), Some(ts(5)));
        assert_eq!(resumed.build(), whole.build());
    }

    /// The old rebuild-based reclamation path, kept as the reference the
    /// incremental path must equal: build the whole store, prune it, wrap
    /// it back up.
    fn rebuild_prune(builder: TtkvBuilder, horizon: Timestamp) -> (TtkvBuilder, PruneStats) {
        let mut store = builder.build();
        let stats = store.prune_before(horizon);
        (TtkvBuilder::from_store(store), stats)
    }

    #[test]
    fn incremental_prune_equals_rebuild_prune() {
        // Base + out-of-order tail, pruned mid-stream, appended to, pruned
        // again: the in-place path must match the rebuild path in both the
        // final store and every sweep's stats.
        let mut base = Ttkv::new();
        base.write(ts(1), "k/a", Value::from(1));
        base.write(ts(4), "k/a", Value::from(4));
        base.write(ts(2), "k/b", Value::from(2));
        base.delete(ts(6), "k/b");
        let mut incremental = TtkvBuilder::from_store(base.clone());
        let mut rebuild = TtkvBuilder::from_store(base);
        for b in [&mut incremental, &mut rebuild] {
            b.write(ts(9), "k/a", Value::from(9));
            b.write(ts(3), "k/c", Value::from(3)); // straggler below h1
            b.add_reads("k/b", 5);
        }

        let stats1 = incremental.prune_before(ts(5));
        let (mut rebuild, rebuild_stats1) = rebuild_prune(rebuild, ts(5));
        assert_eq!(stats1, rebuild_stats1);

        for b in [&mut incremental, &mut rebuild] {
            b.write(ts(7), "k/b", Value::from(7));
            b.write(ts(0), "k/a", Value::from(0)); // straggler below both
        }
        let stats2 = incremental.prune_before(ts(8));
        let (rebuild, rebuild_stats2) = rebuild_prune(rebuild, ts(8));
        assert_eq!(stats2, rebuild_stats2);

        assert_eq!(incremental.last_time(), rebuild.last_time());
        assert_eq!(incremental.build(), rebuild.build());
    }

    #[test]
    fn incremental_prune_then_build_equals_build_then_prune() {
        let mut buffered = TtkvBuilder::new();
        buffered.write(ts(1), "k", Value::from(1));
        buffered.write(ts(5), "k", Value::from(5));
        buffered.delete(ts(2), "gone");
        buffered.add_reads("ro", 3);
        let mut direct = buffered.clone().build();
        let direct_stats = direct.prune_before(ts(4));
        let stats = buffered.prune_before(ts(4));
        assert_eq!(stats, direct_stats);
        assert_eq!(buffered.build(), direct);
    }

    #[test]
    fn prune_at_a_baseline_timestamp_is_exact() {
        // A second sweep landing exactly on the collapsed baseline's own
        // timestamp must neither drop the baseline nor double-count it.
        let mut builder = TtkvBuilder::new();
        builder.write(ts(2), "k", Value::from("old"));
        builder.write(ts(7), "k", Value::from("new"));
        builder.prune_before(ts(5)); // baseline now at ts(2)
        let reference = builder.clone().build();
        let stats = builder.prune_before(ts(2));
        assert!(stats.is_noop(), "nothing strictly before the baseline");
        assert_eq!(builder.clone().build(), reference);
        // One tick past the baseline is still a no-op on state: the
        // baseline is already the collapsed pre-horizon version.
        builder.prune_before(ts(3));
        assert_eq!(builder.build(), reference);
    }

    #[test]
    fn repeated_incremental_prunes_stay_cheap_and_exact() {
        // Staged sweeps through the in-place path equal one direct prune
        // of the full history at the final horizon — the prune/absorb
        // commutation, exercised entirely through the builder.
        let mut staged = TtkvBuilder::new();
        let mut all = TtkvBuilder::new();
        for round in 0u64..6 {
            for i in 0..10u64 {
                let t = ts(round * 10 + i);
                let key = format!("k/{}", i % 3);
                staged.write(t, key.clone(), Value::from(i as i64));
                all.write(t, key, Value::from(i as i64));
            }
            staged.prune_before(ts(round * 10));
        }
        staged.prune_before(ts(50));
        let mut direct = all.build();
        direct.prune_before(ts(50));
        assert_eq!(staged.build(), direct);
    }

    #[test]
    fn index_does_not_grow_with_sweep_count() {
        // Regression: a hot key re-registered identically on every sweep
        // used to push a duplicate index entry per sweep; the set
        // representation makes re-registration a no-op.
        let mut builder = TtkvBuilder::new();
        for round in 0u64..50 {
            builder.write(ts(round + 100), "hot", Value::from(round as i64));
            builder.write(ts(round + 100), "hot2", Value::from(round as i64));
            builder.prune_before(ts(round));
        }
        // Two live keys, each with at most its current entry plus stale
        // ones the advancing horizon keeps consuming — never O(sweeps).
        assert!(
            builder.prune_index.len() <= 4,
            "index accumulated {} entries",
            builder.prune_index.len()
        );
        let mut direct = builder.clone().build();
        let incremental = builder.build();
        direct.prune_before(ts(49));
        // (Equal already: the last sweep pruned at 49.)
        assert_eq!(incremental, direct);
    }

    #[test]
    fn from_store_keeps_prune_state_through_rebuilds() {
        let mut store = Ttkv::new();
        store.write(ts(1), "k", Value::from("old"));
        store.write(ts(9), "k", Value::from("new"));
        store.prune_before(ts(5));
        let mut builder = TtkvBuilder::from_store(store);
        assert_eq!(builder.last_time(), Some(ts(9)));
        builder.write(ts(12), "k", Value::from("newer"));
        let rebuilt = builder.build();
        assert_eq!(rebuilt.value_at("k", ts(6)), Some(&Value::from("old")));
        assert_eq!(rebuilt.current("k"), Some(&Value::from("newer")));
        assert_eq!(rebuilt.stats().writes, 3, "lifetime counters carried");
    }
}
