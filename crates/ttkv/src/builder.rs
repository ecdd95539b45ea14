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

use std::collections::BTreeMap;

use crate::record::Version;
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
    mutations: Vec<(Key, Version)>,
    reads: BTreeMap<Key, u64>,
    /// Running maximum over the buffered mutations, so
    /// [`TtkvBuilder::last_time`] is O(1) — it is polled under the fleet
    /// shard stripe locks by the retention sweeper.
    max_time: Option<Timestamp>,
}

impl TtkvBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TtkvBuilder::default()
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

    /// The latest buffered mutation timestamp — what a retention sweep
    /// measures "now" against. O(1): the maximum is maintained on every
    /// buffered mutation, because this is polled under the fleet shard
    /// stripe locks.
    pub fn last_time(&self) -> Option<Timestamp> {
        self.max_time
    }

    /// Buffers `count` read accesses to `key`.
    pub fn add_reads(&mut self, key: impl Into<Key>, count: u64) {
        *self.reads.entry(key.into()).or_insert(0) += count;
    }

    /// Applies `precision` to every buffered mutation's timestamp, so that
    /// a later [`TtkvBuilder::build`] equals buffering the same accesses
    /// with their timestamps already quantised.
    ///
    /// Exact because the buffer keeps arrival order and the stable
    /// timestamp sort runs only at build time: a tie the quantisation
    /// creates ranks by arrival either way. The fleet WAL buffers its log's
    /// ops at full precision and quantises once per compaction.
    pub fn apply_precision(&mut self, precision: TimePrecision) {
        let mut max_time = None;
        for (_, version) in &mut self.mutations {
            version.timestamp = precision.apply(version.timestamp);
            max_time = max_time.max(Some(version.timestamp));
        }
        self.max_time = max_time;
    }

    /// Number of buffered mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// `true` if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty() && self.reads.is_empty()
    }

    /// Builds the buffered accesses into a new store (see
    /// [`TtkvBuilder::build_into`]).
    pub fn build(self) -> Ttkv {
        let mut store = Ttkv::new();
        self.build_into(&mut store);
        store
    }

    /// Applies the buffered accesses to an existing store: reads, then one
    /// stable timestamp sort (ties keep arrival order, matching sequential
    /// ingestion), then in-order insertion.
    ///
    /// Equivalent to replaying the buffered accesses through
    /// [`Ttkv::write`]/[`Ttkv::delete`]/[`Ttkv::add_reads`] in timestamp
    /// order, but with the sort amortised over the whole batch.
    pub fn build_into(self, store: &mut Ttkv) {
        let TtkvBuilder {
            mut mutations,
            reads,
            ..
        } = self;
        for (key, count) in reads {
            store.add_reads(key, count);
        }
        mutations.sort_by_key(|(_, version)| version.timestamp);
        for (key, version) in mutations {
            store.apply_version(key, version);
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
}
