//! The time-travel key-value store.

use std::collections::BTreeMap;

use crate::record::{KeyRecord, Version};
use crate::snapshot::ConfigState;
use crate::stats::{PruneStats, TtkvStats};
use crate::time::Timestamp;
use crate::value::Value;
use crate::Key;

/// Time-travel key-value store (TTKV).
///
/// The TTKV records every access an application makes to its configuration
/// store: reads are counted, writes and deletions are kept as a full
/// timestamped history per key. On top of that history it answers the two
/// queries Ocasta needs:
///
/// * **clustering input** — the mutation timeline of every key
///   ([`Ttkv::iter`], [`KeyRecord::mutation_times`]);
/// * **rollback input** — point-in-time reconstruction of values
///   ([`Ttkv::value_at`], [`Ttkv::snapshot_at`]).
///
/// The paper implements the TTKV on Redis; this is a from-scratch native
/// equivalent with the same record shape (see `DESIGN.md` §5.1).
///
/// # Examples
///
/// ```
/// use ocasta_ttkv::{Ttkv, Timestamp, Value};
///
/// let mut store = Ttkv::new();
/// store.write(Timestamp::from_secs(1), "app/theme", Value::from("dark"));
/// store.write(Timestamp::from_secs(9), "app/theme", Value::from("light"));
///
/// assert_eq!(
///     store.value_at("app/theme", Timestamp::from_secs(5)),
///     Some(&Value::from("dark")),
/// );
/// assert_eq!(store.current("app/theme"), Some(&Value::from("light")));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ttkv {
    records: BTreeMap<Key, KeyRecord>,
    reads: u64,
    writes: u64,
    deletes: u64,
}

impl Ttkv {
    /// Creates an empty store.
    pub fn new() -> Self {
        Ttkv::default()
    }

    /// Number of distinct keys ever observed (Table I's `# Keys` column).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no key has ever been observed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records a read access to `key`.
    pub fn read(&mut self, key: impl Into<Key>) {
        self.add_reads(key, 1);
    }

    /// Records `count` read accesses to `key` at once (traces aggregate
    /// reads into per-key counters; the Windows traces contain tens of
    /// millions of reads).
    pub fn add_reads(&mut self, key: impl Into<Key>, count: u64) {
        self.reads += count;
        self.records.entry(key.into()).or_default().add_reads(count);
    }

    /// Records a write of `value` to `key` at time `t`.
    pub fn write(&mut self, t: Timestamp, key: impl Into<Key>, value: Value) {
        self.writes += 1;
        self.records
            .entry(key.into())
            .or_default()
            .record_mutation(Version::write(t, value));
    }

    /// Records a deletion of `key` at time `t`.
    ///
    /// Deletions are kept in the history as tombstones so that a rollback can
    /// *recreate* a deleted setting — the Microsoft Word `Item N` example in
    /// the paper's Figure 1a depends on exactly this.
    pub fn delete(&mut self, t: Timestamp, key: impl Into<Key>) {
        self.deletes += 1;
        self.records
            .entry(key.into())
            .or_default()
            .record_mutation(Version::tombstone(t));
    }

    /// The full record of one key, if it has ever been observed.
    pub fn record(&self, key: &str) -> Option<&KeyRecord> {
        self.records.get(key)
    }

    /// The live value of `key` as of time `t`.
    pub fn value_at(&self, key: &str, t: Timestamp) -> Option<&Value> {
        self.records.get(key).and_then(|r| r.value_at(t))
    }

    /// The current live value of `key`.
    pub fn current(&self, key: &str) -> Option<&Value> {
        self.records.get(key).and_then(KeyRecord::current)
    }

    /// Iterates over `(key, record)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &KeyRecord)> {
        self.records.iter()
    }

    /// Iterates over all key names in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.records.keys()
    }

    /// Keys that have been modified at least once *within the retained
    /// history* — the only keys eligible for clustering and repair ("any
    /// key that has not been modified from its initial value cannot cause a
    /// configuration error", §III-A).
    ///
    /// A key whose entire history was reclaimed by [`Ttkv::prune_before`]
    /// is excluded even though its lifetime counters survive: it has no
    /// mutation a clustering could correlate and no version a rollback
    /// could try. The invariant `modified_keys ⊆ keys with non-empty
    /// history` is regression-tested.
    pub fn modified_keys(&self) -> impl Iterator<Item = &Key> {
        self.records
            .iter()
            .filter(|(_, r)| r.modifications() > 0 && !r.history().is_empty())
            .map(|(k, _)| k)
    }

    /// Keys under a hierarchical prefix (an application's subtree).
    pub fn keys_under<'a>(&'a self, prefix: &'a Key) -> impl Iterator<Item = &'a Key> + 'a {
        self.records.keys().filter(move |k| k.starts_with(prefix))
    }

    /// The latest recorded-state timestamp across all keys (the trace's
    /// end). On a pruned store whose entire history collapsed, this falls
    /// back to the newest baseline's (original) timestamp — so
    /// [`Ttkv::snapshot_latest`] keeps serving the retained state.
    pub fn last_mutation_time(&self) -> Option<Timestamp> {
        self.records.values().filter_map(KeyRecord::last_time).max()
    }

    /// The earliest surviving mutation timestamp across all keys.
    pub fn first_mutation_time(&self) -> Option<Timestamp> {
        self.records
            .values()
            .filter_map(|r| r.history().first().map(|v| v.timestamp))
            .min()
    }

    /// Materialises the live configuration as of time `t` as a flat
    /// key → value map. Tombstoned and never-written keys are absent.
    pub fn snapshot_at(&self, t: Timestamp) -> ConfigState {
        let mut state = ConfigState::new();
        for (key, record) in &self.records {
            if let Some(value) = record.value_at(t) {
                state.set(key.clone(), value.clone());
            }
        }
        state
    }

    /// Materialises the current live configuration.
    pub fn snapshot_latest(&self) -> ConfigState {
        match self.last_mutation_time() {
            Some(t) => self.snapshot_at(t),
            None => ConfigState::new(),
        }
    }

    /// Aggregate access statistics (Table I's row shape).
    pub fn stats(&self) -> TtkvStats {
        TtkvStats {
            keys: self.records.len() as u64,
            reads: self.reads,
            writes: self.writes,
            deletes: self.deletes,
            approx_bytes: self.approx_bytes(),
        }
    }

    /// Approximate in-memory footprint of the whole store in bytes (Table I's
    /// `Size` column).
    pub fn approx_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|(k, r)| (k.as_str().len() + r.approx_bytes()) as u64)
            .sum()
    }

    /// Compacts history older than `horizon`: for every key, versions
    /// strictly before the horizon are collapsed into the record's
    /// *baseline* — the newest pre-horizon live value, kept with its
    /// original timestamp — or dropped entirely if the key was dead then.
    /// Every `value_at`/`snapshot_at` query at or after the horizon
    /// answers exactly as before the prune (property-tested); queries
    /// below the horizon are out of contract (in practice they stay
    /// correct down to each key's baseline timestamp). Prunes compose and
    /// commute with out-of-order appends: any sequence of sweeps
    /// interleaved with ingestion equals one direct prune at the final
    /// horizon (property-tested), which is what keeps concurrently swept
    /// ingestion deterministic.
    ///
    /// Read/write/delete counters are kept — they feed the repair tool's
    /// sort and Table I — but a key with no surviving mutation leaves
    /// [`Ttkv::modified_keys`]: it has nothing to cluster or roll back.
    ///
    /// This is the retention knob a long-running deployment needs: Table
    /// I's TTKVs grow to tens of megabytes over two months; pruning bounds
    /// that while preserving everything the repair window can use. The
    /// fleet tier drives it continuously (`ocasta-fleet`'s
    /// `RetentionPolicy`), clamped to live repair-session pins (see
    /// `DESIGN.md §5.9`).
    pub fn prune_before(&mut self, horizon: Timestamp) -> PruneStats {
        let mut stats = PruneStats::default();
        for record in self.records.values_mut() {
            stats.absorb(record.prune_in_place(horizon));
        }
        stats
    }

    /// Collects *dead shells*: records whose mutations were all reclaimed
    /// by pruning and whose baseline (if any) is a tombstone — see
    /// [`KeyRecord::is_dead_shell`]. Returns how many keys were removed.
    ///
    /// A shell answers `None`/absent to every query and is excluded from
    /// [`Ttkv::modified_keys`] already; only its lifetime counters remain.
    /// Those counters *are* dropped from the store aggregates — a GC'd key
    /// then rewritten behaves exactly like a fresh key (property-tested) —
    /// which is what keeps the persist/replay round-trip exact: the load
    /// path recomputes aggregates from the records actually present.
    ///
    /// When to call this is a policy decision that belongs to the caller:
    /// while ingestion can still deliver a straggler rewrite of a pruned
    /// key, the shell's counters are that key's only memory, so the fleet
    /// sweeper GCs **only on its final sweep**, never mid-run.
    pub fn gc_dead_shells(&mut self) -> u64 {
        let mut collected = 0u64;
        let (mut reads, mut writes, mut deletes) = (0u64, 0u64, 0u64);
        self.records.retain(|_, record| {
            if record.is_dead_shell() {
                collected += 1;
                reads += record.reads;
                writes += record.writes;
                deletes += record.deletes;
                false
            } else {
                true
            }
        });
        self.reads -= reads;
        self.writes -= writes;
        self.deletes -= deletes;
        collected
    }

    /// Demotes every record's prune baseline back into its mutation
    /// history as an ordinary version, without touching any counter.
    ///
    /// This is the layered-WAL fold primitive (`DESIGN.md §5.10`): when
    /// snapshot layers are folded oldest-to-newest, a newer layer's
    /// baseline must win timestamp ties against older layers' history —
    /// the opposite of the tie rule a baseline obeys *inside* its own
    /// store — so the fold first turns baselines back into versions (each
    /// inserted before its own layer's same-timestamp mutations, which it
    /// genuinely predates) and lets one final [`Ttkv::prune_before`] at
    /// the newest layer's horizon re-collapse them with every tie ranked
    /// by true arrival order. The demoted store *does* expose the demoted
    /// versions through [`KeyRecord::mutation_times`]; callers must
    /// re-prune before handing the store to clustering or repair, exactly
    /// as the WAL reader does.
    pub fn demote_baselines(&mut self) {
        for record in self.records.values_mut() {
            record.demote_baseline();
        }
    }

    /// Inserts a fully-built record under `key`, folding its counters into
    /// the store aggregates (persistence load path). Merges if the key
    /// already exists.
    pub(crate) fn insert_record(&mut self, key: Key, record: KeyRecord) {
        self.reads += record.reads;
        self.writes += record.writes;
        self.deletes += record.deletes;
        match self.records.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(record);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                slot.get_mut().absorb(record);
            }
        }
    }

    /// Applies one pre-built version (write or tombstone) to `key`,
    /// updating the aggregate counters. Shared by the public mutators and
    /// the bulk [`crate::TtkvBuilder`] path.
    pub(crate) fn apply_version(&mut self, key: Key, version: Version) {
        if version.is_tombstone() {
            self.deletes += 1;
        } else {
            self.writes += 1;
        }
        self.records
            .entry(key)
            .or_default()
            .record_mutation(version);
    }

    /// Merges another store into this one **by value**, moving records
    /// instead of cloning them (also how the same user's traces from
    /// several lab machines are aggregated, §V).
    ///
    /// Every record of `other` folds into this store's record of the same
    /// key: histories interleave by timestamp, `other`'s versions rank
    /// after this store's on a timestamp tie (as if ingested later), and
    /// prune baselines are carried across. When the two stores' key sets
    /// are disjoint (as they are for hash-sharded stores, see
    /// `ocasta-fleet`) every record moves in O(log n) with no history
    /// traversal at all.
    pub fn absorb(&mut self, other: Ttkv) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.deletes += other.deletes;
        for (key, record) in other.records {
            match self.records.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(record);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().absorb(record);
                }
            }
        }
    }

    /// Assembles one consistent store from a set of shards (or any other
    /// partition of the key space), consuming them.
    ///
    /// The usual caller is `ocasta-fleet`, which ingests a machine fleet's
    /// events into hash-striped shards concurrently and then hands the
    /// merged view to clustering and repair.
    pub fn from_shards(shards: impl IntoIterator<Item = Ttkv>) -> Ttkv {
        let mut merged = Ttkv::new();
        for shard in shards {
            merged.absorb(shard);
        }
        merged
    }

    /// Folds an **oldest→newest** chain of (possibly pruned) layers over
    /// one key space into a single store, exactly equal to ingesting every
    /// layer's accesses in arrival order and pruning once at `horizon`.
    ///
    /// This is the layered-fold recipe `DESIGN.md §5.10` proved for the
    /// WAL's base + delta chain, lifted to a reusable primitive (the
    /// fleet's sealed shard segments fold through it too, `§5.13`): each
    /// layer's baselines are demoted back into its history first — a newer
    /// layer's baseline must win timestamp ties against older layers'
    /// history, the opposite of the in-store tie rule — the layers absorb
    /// oldest-first (so [`Ttkv::absorb`]'s self-first tie rule reproduces
    /// true arrival order), and one final [`Ttkv::prune_before`] at
    /// `horizon` re-collapses every demoted version with ties ranked
    /// correctly. A `None` (or epoch) horizon skips the re-prune, which is
    /// only sound when no layer carries a baseline — unpruned layers, as
    /// the callers' invariants guarantee.
    pub fn fold_layers(layers: impl IntoIterator<Item = Ttkv>, horizon: Option<Timestamp>) -> Ttkv {
        let mut store = Ttkv::new();
        for mut layer in layers {
            layer.demote_baselines();
            store.absorb(layer);
        }
        if let Some(horizon) = horizon {
            if horizon > Timestamp::EPOCH {
                store.prune_before(horizon);
            }
        }
        store
    }
}

impl Extend<(Timestamp, Key, Value)> for Ttkv {
    fn extend<I: IntoIterator<Item = (Timestamp, Key, Value)>>(&mut self, iter: I) {
        for (t, key, value) in iter {
            self.write(t, key, value);
        }
    }
}

impl FromIterator<(Timestamp, Key, Value)> for Ttkv {
    fn from_iter<I: IntoIterator<Item = (Timestamp, Key, Value)>>(iter: I) -> Self {
        let mut store = Ttkv::new();
        store.extend(iter);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn write_then_query_roundtrip() {
        let mut store = Ttkv::new();
        store.write(ts(1), "a", Value::from(1));
        store.write(ts(2), "b", Value::from(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.current("a"), Some(&Value::from(1)));
        assert_eq!(store.value_at("b", ts(1)), None);
    }

    #[test]
    fn deleted_keys_are_absent_from_snapshots_but_recoverable() {
        let mut store = Ttkv::new();
        store.write(ts(1), "mru/item1", Value::from("report.doc"));
        store.delete(ts(5), "mru/item1");
        let snap_before = store.snapshot_at(ts(4));
        let snap_after = store.snapshot_at(ts(6));
        assert_eq!(
            snap_before.get("mru/item1"),
            Some(&Value::from("report.doc"))
        );
        assert_eq!(snap_after.get("mru/item1"), None);
        // Rollback semantics: the historical value survives deletion.
        assert_eq!(
            store.value_at("mru/item1", ts(2)),
            Some(&Value::from("report.doc"))
        );
    }

    #[test]
    fn modified_keys_excludes_read_only_keys() {
        let mut store = Ttkv::new();
        store.read("ro");
        store.write(ts(1), "rw", Value::from(1));
        let modified: Vec<_> = store
            .modified_keys()
            .map(|k| k.as_str().to_owned())
            .collect();
        assert_eq!(modified, vec!["rw"]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn stats_count_accesses() {
        let mut store = Ttkv::new();
        store.read("a");
        store.read("a");
        store.write(ts(1), "a", Value::from(1));
        store.delete(ts(2), "a");
        let stats = store.stats();
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.keys, 1);
        assert!(stats.approx_bytes > 0);
    }

    #[test]
    fn merge_combines_histories() {
        let mut lab1 = Ttkv::new();
        lab1.write(ts(10), "u/pref", Value::from("a"));
        let mut lab2 = Ttkv::new();
        lab2.write(ts(5), "u/pref", Value::from("b"));
        lab2.read("u/pref");
        lab1.absorb(lab2);
        assert_eq!(lab1.record("u/pref").unwrap().writes, 2);
        assert_eq!(lab1.record("u/pref").unwrap().reads, 1);
        // lab2's earlier write sorts before lab1's.
        assert_eq!(lab1.value_at("u/pref", ts(7)), Some(&Value::from("b")));
        assert_eq!(lab1.current("u/pref"), Some(&Value::from("a")));
    }

    #[test]
    fn trace_bounds() {
        let mut store = Ttkv::new();
        assert_eq!(store.first_mutation_time(), None);
        store.write(ts(3), "a", Value::from(1));
        store.write(ts(9), "b", Value::from(2));
        assert_eq!(store.first_mutation_time(), Some(ts(3)));
        assert_eq!(store.last_mutation_time(), Some(ts(9)));
    }

    #[test]
    fn keys_under_filters_subtree() {
        let mut store = Ttkv::new();
        store.write(ts(1), "word/mru/a", Value::from(1));
        store.write(ts(1), "word/view", Value::from(2));
        store.write(ts(1), "excel/mru/a", Value::from(3));
        let prefix = Key::new("word");
        assert_eq!(store.keys_under(&prefix).count(), 2);
    }

    #[test]
    fn absorb_ranks_timestamp_ties_by_arrival() {
        let mut absorbed = Ttkv::new();
        absorbed.write(ts(10), "u/tied", Value::from("first"));
        let mut later = Ttkv::new();
        later.write(ts(10), "u/tied", Value::from("second"));
        absorbed.absorb(later);
        // Tie at ts(10): the absorbed store's version wins, exactly as
        // sequential ingestion order would dictate.
        assert_eq!(absorbed.current("u/tied"), Some(&Value::from("second")));
    }

    #[test]
    fn from_shards_reassembles_partitions() {
        let mut whole = Ttkv::new();
        let mut shards = vec![Ttkv::new(), Ttkv::new(), Ttkv::new()];
        for i in 0..30u64 {
            let key = Key::new(format!("app/k{i}"));
            whole.write(ts(i), key.clone(), Value::from(i as i64));
            shards[(i % 3) as usize].write(ts(i), key, Value::from(i as i64));
        }
        whole.add_reads("app/k0", 4);
        shards[0].add_reads("app/k0", 4);
        assert_eq!(Ttkv::from_shards(shards), whole);
    }

    #[test]
    fn prune_reports_stats_and_keeps_post_horizon_queries() {
        let mut store = Ttkv::new();
        for i in 0..10u64 {
            store.write(ts(i), "app/hot", Value::from(i as i64));
        }
        store.write(ts(1), "app/cold", Value::from("old"));
        let before_bytes = store.approx_bytes();
        let stats = store.prune_before(ts(5));
        // app/hot: 5 pre-horizon versions collapsed; app/cold: 1.
        assert_eq!(stats.pruned_versions, 6);
        assert_eq!(stats.dead_keys, 0);
        assert!(stats.reclaimed_bytes > 0);
        assert!(store.approx_bytes() < before_bytes);
        assert_eq!(store.value_at("app/hot", ts(5)), Some(&Value::from(5)));
        assert_eq!(store.value_at("app/cold", ts(7)), Some(&Value::from("old")));
        // Lifetime counters are untouched.
        assert_eq!(store.stats().writes, 11);
    }

    #[test]
    fn modified_keys_is_a_subset_of_keys_with_history() {
        // Regression: a fully-pruned key that ended in a tombstone used to
        // keep reporting itself as cluster/repair-eligible through its
        // retained counters, despite having no mutation left to search.
        let mut store = Ttkv::new();
        store.write(ts(1), "app/dead", Value::from("x"));
        store.delete(ts(2), "app/dead");
        store.write(ts(3), "app/live", Value::from(1));
        store.write(ts(9), "app/live", Value::from(2));
        store.prune_before(ts(6));
        let modified: Vec<_> = store.modified_keys().map(|k| k.as_str()).collect();
        assert_eq!(modified, vec!["app/live"]);
        for key in store.modified_keys() {
            let record = store.record(key.as_str()).unwrap();
            assert!(!record.history().is_empty(), "{key}");
        }
        // The dead key's counters survive for Table I / the repair sort.
        let dead = store.record("app/dead").unwrap();
        assert_eq!(dead.modifications(), 2);
        assert!(dead.history().is_empty());
    }

    #[test]
    fn gc_collects_dead_shells_and_bounds_the_key_universe_under_churn() {
        // Regression (dead-shell leak): before `gc_dead_shells`, every
        // churned key — written, deleted, fully pruned — left a counter-
        // only shell in the record map forever, so the key universe grew
        // without bound under churn even though the store answered None
        // for every one of them.
        let mut store = Ttkv::new();
        for i in 0..100u64 {
            let key = Key::new(format!("churn/{i}"));
            store.write(ts(i * 2), key.clone(), Value::from(i as i64));
            store.read(key.clone());
            store.delete(ts(i * 2 + 1), key);
        }
        store.write(ts(1_000), "app/live", Value::from(1));
        store.read("app/readonly");
        store.prune_before(ts(500));
        // The shells linger until an explicit GC...
        assert_eq!(store.len(), 102);
        assert_eq!(store.modified_keys().count(), 1);
        let collected = store.gc_dead_shells();
        assert_eq!(collected, 100);
        assert_eq!(store.len(), 2, "live + read-only keys survive");
        assert!(store.record("app/live").is_some());
        assert!(
            store.record("app/readonly").is_some(),
            "read-only records are not shells: their read counters are live data"
        );
        assert_eq!(store.modified_keys().count(), 1, "semantics preserved");
        // Aggregates follow the collected records, so the persist load
        // path (which recomputes them) round-trips exactly.
        assert_eq!(store.stats().writes, 1);
        assert_eq!(store.stats().deletes, 0);
        assert_eq!(store.stats().reads, 1);
        // Idempotent: nothing left to collect.
        assert_eq!(store.gc_dead_shells(), 0);
    }

    #[test]
    fn fully_pruned_store_still_serves_snapshots() {
        let mut store = Ttkv::new();
        store.write(ts(1), "a", Value::from(1));
        store.write(ts(2), "b", Value::from(2));
        store.delete(ts(3), "b");
        store.prune_before(ts(10));
        // Baselines keep their true times (b's collapsed tombstone at
        // ts(3) is the newest recorded state).
        assert_eq!(store.last_mutation_time(), Some(ts(3)));
        let snap = store.snapshot_latest();
        assert_eq!(snap.get("a"), Some(&Value::from(1)));
        assert_eq!(snap.get("b"), None);
        assert_eq!(store.modified_keys().count(), 0);
    }

    #[test]
    fn merge_carries_prune_baselines() {
        let mut pruned = Ttkv::new();
        pruned.write(ts(1), "u/pref", Value::from("old"));
        pruned.prune_before(ts(5));
        let mut other = Ttkv::new();
        other.write(ts(9), "u/pref", Value::from("new"));
        other.absorb(pruned);
        assert_eq!(other.value_at("u/pref", ts(6)), Some(&Value::from("old")));
        assert_eq!(other.current("u/pref"), Some(&Value::from("new")));
    }

    #[test]
    fn fold_layers_equals_sequential_ingestion_with_one_prune() {
        // Three layers cut from one access sequence, the middle two pruned
        // the way a sweep would leave them — including a cross-layer
        // timestamp tie, where the newer layer's collapsed baseline must
        // beat the older layer's history.
        let mut layer0 = Ttkv::new();
        layer0.write(ts(10), "app/k", Value::from(1));
        layer0.write(ts(20), "app/k", Value::from(2));
        layer0.prune_before(ts(25));
        let mut layer1 = Ttkv::new();
        layer1.write(ts(20), "app/k", Value::from(3)); // ties layer0's 20s
        layer1.write(ts(40), "app/k", Value::from(4));
        layer1.write(ts(15), "app/doomed", Value::from(9));
        layer1.delete(ts(22), "app/doomed");
        layer1.prune_before(ts(25));
        let mut layer2 = Ttkv::new();
        layer2.write(ts(50), "app/k", Value::from(5));
        layer2.add_reads(Key::new("app/k"), 7);

        let folded = Ttkv::fold_layers([layer0, layer1, layer2], Some(ts(25)));

        let mut direct = Ttkv::new();
        direct.write(ts(10), "app/k", Value::from(1));
        direct.write(ts(20), "app/k", Value::from(2));
        direct.write(ts(20), "app/k", Value::from(3));
        direct.write(ts(40), "app/k", Value::from(4));
        direct.write(ts(15), "app/doomed", Value::from(9));
        direct.delete(ts(22), "app/doomed");
        direct.write(ts(50), "app/k", Value::from(5));
        direct.add_reads(Key::new("app/k"), 7);
        direct.prune_before(ts(25));
        assert_eq!(folded, direct);
        // The tie went to the later arrival: the baseline carries value 3.
        assert_eq!(folded.value_at("app/k", ts(21)), Some(&Value::from(3)));
    }

    #[test]
    fn fold_layers_without_horizon_is_plain_ordered_absorb() {
        let mut a = Ttkv::new();
        a.write(ts(1), "k", Value::from(1));
        let mut b = Ttkv::new();
        b.write(ts(1), "k", Value::from(2)); // tie: b arrived later
        let folded = Ttkv::fold_layers([a, b], None);
        assert_eq!(folded.current("k"), Some(&Value::from(2)));
        assert_eq!(folded.stats().writes, 2);
    }

    #[test]
    fn store_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The fleet ingestion engine shares these across threads.
        assert_send_sync::<Ttkv>();
        assert_send_sync::<Key>();
        assert_send_sync::<Value>();
        assert_send_sync::<KeyRecord>();
        assert_send_sync::<crate::TtkvBuilder>();
        assert_send_sync::<ConfigState>();
    }

    #[test]
    fn from_iterator_builds_store() {
        let store: Ttkv = vec![
            (ts(1), Key::new("a"), Value::from(1)),
            (ts(2), Key::new("b"), Value::from(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().writes, 2);
    }
}
