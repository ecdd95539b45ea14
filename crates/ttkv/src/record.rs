//! Per-key history records.

use crate::stats::PruneStats;
use crate::time::Timestamp;
use crate::value::Value;

/// One recorded mutation of a key: either a write of a new value or a
/// deletion (tombstone).
///
/// The paper's Redis schema stores "a list of historical values of the key
/// including timestamps" with "a special type of value ... to represent
/// deletions"; `Version` is that list's element type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Version {
    /// When the mutation was recorded.
    pub timestamp: Timestamp,
    /// The value written, or `None` for a deletion tombstone.
    pub value: Option<Value>,
}

impl Version {
    /// Creates a write version.
    pub fn write(timestamp: Timestamp, value: Value) -> Self {
        Version {
            timestamp,
            value: Some(value),
        }
    }

    /// Creates a deletion tombstone.
    pub fn tombstone(timestamp: Timestamp) -> Self {
        Version {
            timestamp,
            value: None,
        }
    }

    /// `true` if this version is a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }
}

/// The complete recorded history of one key.
///
/// Mirrors the paper's TTKV record: "the number of writes and deletions, as
/// well as a list of historical values of the key including timestamps".
/// Read accesses are counted but not stored individually (only Table I's
/// aggregate read statistics need them).
///
/// After a [`KeyRecord::prune_in_place`], the collapsed pre-horizon state is
/// kept as a separate *baseline* — the newest pre-horizon version, write
/// or tombstone, with its original timestamp — **outside** the mutation
/// history. The baseline participates in point-in-time queries
/// ([`KeyRecord::value_at`]) but is invisible to
/// [`KeyRecord::mutation_times`] and [`KeyRecord::history`]: it is
/// recorded state, not a recorded mutation, so pruning can never inject a
/// phantom co-modification at the horizon into clustering or repair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRecord {
    /// Number of read accesses observed.
    pub reads: u64,
    /// Number of write accesses observed (excluding deletions).
    pub writes: u64,
    /// Number of deletions observed.
    pub deletes: u64,
    /// Timestamp-ordered mutation history (writes and tombstones).
    history: Vec<Version>,
    /// Collapsed pre-horizon state from the last prune: the newest
    /// pre-horizon version — a live write *or a tombstone* — kept **with
    /// its original timestamp** (not the horizon's). `None` only for
    /// never-pruned records or prunes that found nothing to collapse.
    /// Keeping the true timestamp and the tombstone case is what makes
    /// staged sweeps exact: a later prune can still rank the baseline
    /// against stragglers that arrived after the earlier sweep (including
    /// a late write that predates a collapsed deletion), so any sequence
    /// of prunes interleaved with appends equals one direct prune at the
    /// final horizon (property-tested).
    baseline: Option<Version>,
}

impl KeyRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        KeyRecord::default()
    }

    /// Total mutations (writes + deletions); the quantity Ocasta's repair
    /// search sorts clusters by.
    pub fn modifications(&self) -> u64 {
        self.writes + self.deletes
    }

    /// The ordered mutation history, oldest first.
    pub fn history(&self) -> &[Version] {
        &self.history
    }

    /// The most recent mutation, if any.
    pub fn latest(&self) -> Option<&Version> {
        self.history.last()
    }

    /// The key's live value as of `t` (inclusive): the value of the last
    /// write at or before `t`, or `None` if the key did not exist (never
    /// written, or deleted) at that time. A prune baseline answers for any
    /// `t` at or after its timestamp that no younger real mutation covers.
    pub fn value_at(&self, t: Timestamp) -> Option<&Value> {
        let idx = self.history.partition_point(|v| v.timestamp <= t);
        let newest = idx.checked_sub(1).map(|i| &self.history[i]);
        match (&self.baseline, newest) {
            // The baseline wins only over strictly older history: on a
            // timestamp tie a real mutation was recorded after the state
            // the baseline collapsed, so the mutation is newer — the same
            // last-arrival-wins rule unpruned histories follow.
            (Some(b), Some(v)) if b.timestamp <= t && v.timestamp < b.timestamp => b.value.as_ref(),
            (Some(b), None) if b.timestamp <= t => b.value.as_ref(),
            (_, Some(v)) => v.value.as_ref(),
            (_, None) => None,
        }
    }

    /// The key's current live value: the newest recorded state, whether
    /// that is the last history entry or the prune baseline. The baseline
    /// can be the newer of the two when a straggler mutation older than it
    /// arrives after a sweep — a tombstone baseline must keep the key dead
    /// against such a late write, exactly as [`KeyRecord::value_at`] at
    /// the end of time would.
    pub fn current(&self) -> Option<&Value> {
        match (&self.baseline, self.latest()) {
            (Some(b), Some(v)) if v.timestamp < b.timestamp => b.value.as_ref(),
            (_, Some(v)) => v.value.as_ref(),
            (Some(b), None) => b.value.as_ref(),
            (None, None) => None,
        }
    }

    /// `true` if the key existed (had a live, non-tombstoned value) at `t`.
    pub fn existed_at(&self, t: Timestamp) -> bool {
        self.value_at(t).is_some()
    }

    /// Timestamps of every mutation (write or deletion), oldest first.
    ///
    /// A prune baseline is deliberately **not** reported here: it is not a
    /// mutation the application performed, and surfacing it would fabricate
    /// a co-modification at the horizon across every pruned key (skewing
    /// clustering correlations and transaction grouping).
    pub fn mutation_times(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.history.iter().map(|v| v.timestamp)
    }

    /// The prune baseline, if this record has been pruned: the newest
    /// pre-horizon version (write or tombstone) with its original
    /// timestamp.
    pub fn baseline(&self) -> Option<&Version> {
        self.baseline.as_ref()
    }

    /// The timestamp of the most recent recorded *state*: the newer of
    /// the latest real mutation and the prune baseline (a straggler
    /// arriving after a sweep can leave the baseline as the newest state).
    /// This is what keeps [`crate::Ttkv::last_mutation_time`] (and
    /// therefore [`crate::Ttkv::snapshot_latest`]) meaningful on
    /// aggressively pruned stores.
    pub fn last_time(&self) -> Option<Timestamp> {
        self.latest()
            .map(|v| v.timestamp)
            .max(self.baseline.as_ref().map(|b| b.timestamp))
    }

    /// The *last-mutation watermark*: the timestamp of the newest mutation
    /// ever recorded against this key — **prune-invariant**, unlike
    /// [`KeyRecord::mutation_times`], whose tail a prune can swallow.
    ///
    /// No extra bookkeeping is needed: the prune baseline keeps the newest
    /// collapsed mutation *with its original timestamp*, and every other
    /// collapsed mutation was older, so `max(latest history entry,
    /// baseline)` equals the maximum over the full unpruned history at any
    /// prune depth (property-tested). This is what keeps rank-stable sorts
    /// stable on pruned stores: `ocasta-repair` breaks modification-count
    /// ties on this watermark, so `fix.cluster_rank` cannot renumber when
    /// a sweep reclaims the mutation that used to be the tie-break.
    pub fn last_mutation_watermark(&self) -> Option<Timestamp> {
        self.last_time()
    }

    /// Records `count` read accesses at once.
    pub(crate) fn add_reads(&mut self, count: u64) {
        self.reads += count;
    }

    /// Appends a mutation, keeping the history sorted. Out-of-order arrivals
    /// (possible when traces from several machines are merged per user, as
    /// the paper does for the Linux labs) are inserted at the right position.
    pub(crate) fn record_mutation(&mut self, version: Version) {
        if version.is_tombstone() {
            self.deletes += 1;
        } else {
            self.writes += 1;
        }
        match self.history.last() {
            Some(last) if last.timestamp > version.timestamp => {
                let idx = self
                    .history
                    .partition_point(|v| v.timestamp <= version.timestamp);
                self.history.insert(idx, version);
            }
            _ => self.history.push(version),
        }
    }

    /// Merges another record's history and counters into this one by value.
    ///
    /// Histories are merge-sorted on timestamps; on ties, `self`'s versions
    /// order before `other`'s — the same rule sequential
    /// [`KeyRecord::record_mutation`] insertion applies. When the incoming
    /// history strictly follows (or either side is empty) this is a plain
    /// append/move with no traversal.
    pub(crate) fn absorb(&mut self, other: KeyRecord) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.deletes += other.deletes;
        // Baselines only arise from pruning; when both sides carry one the
        // truly newer state subsumes the other (ties keep self's, the same
        // self-first rule the history merge applies).
        self.baseline = match (self.baseline.take(), other.baseline) {
            (Some(a), Some(b)) => Some(if b.timestamp > a.timestamp { b } else { a }),
            (a, b) => a.or(b),
        };
        if other.history.is_empty() {
            return;
        }
        if self.history.is_empty() {
            self.history = other.history;
            return;
        }
        let self_last = self.history.last().expect("non-empty").timestamp;
        let other_first = other.history.first().expect("non-empty").timestamp;
        if self_last <= other_first {
            self.history.extend(other.history);
            return;
        }
        let mut merged = Vec::with_capacity(self.history.len() + other.history.len());
        let mut left = std::mem::take(&mut self.history).into_iter().peekable();
        let mut right = other.history.into_iter().peekable();
        loop {
            match (left.peek(), right.peek()) {
                (Some(l), Some(r)) => {
                    // `<=` keeps self's versions first on ties.
                    if l.timestamp <= r.timestamp {
                        merged.push(left.next().expect("peeked"));
                    } else {
                        merged.push(right.next().expect("peeked"));
                    }
                }
                (Some(_), None) => merged.push(left.next().expect("peeked")),
                (None, Some(_)) => merged.push(right.next().expect("peeked")),
                (None, None) => break,
            }
        }
        self.history = merged;
    }

    /// Collapses versions strictly before `horizon` into the record's
    /// *baseline* — the newest pre-horizon version, write or tombstone,
    /// with its original timestamp, folded into the existing baseline slot
    /// without rebuilding or cloning anything. Access counters are
    /// unchanged: they feed the repair tool's sort and Table I, not the
    /// rollback search. Returns what the prune reclaimed.
    ///
    /// This is the per-record primitive every reclamation path in the
    /// workspace bottoms out in: [`crate::Ttkv::prune_before`] applies it
    /// to every record, and a fleet shard sweep calls that on each sealed
    /// segment it rewrites.
    ///
    /// The baseline lives outside [`KeyRecord::history`], so pruning never
    /// synthesises a mutation (see the type-level docs), and it keeps both
    /// its true timestamp and its tombstone-ness, so re-pruning after
    /// out-of-order arrivals (a lagging fleet machine applying pre-horizon
    /// events after a sweep) ranks the baseline against the stragglers
    /// correctly — staged sweeps equal one direct prune at the final
    /// horizon. A record whose whole history is reclaimed behind a
    /// tombstone baseline is *dead*: its counters remain but it no longer
    /// contributes to [`crate::Ttkv::modified_keys`].
    pub fn prune_in_place(&mut self, horizon: Timestamp) -> PruneStats {
        let cut = self.history.partition_point(|v| v.timestamp < horizon);
        if cut == 0 {
            return PruneStats::default();
        }
        let before_bytes = self.approx_bytes() as u64;
        // The truly newest pre-horizon state wins: the cut's last version,
        // unless a previously collapsed baseline is younger still (on a
        // tie, the recorded version arrived after the collapsed state).
        let newest = self.history.drain(..cut).next_back().expect("cut > 0");
        self.baseline = Some(match self.baseline.take() {
            Some(b) if newest.timestamp < b.timestamp => b,
            _ => newest,
        });
        let after_bytes = self.approx_bytes() as u64;
        PruneStats {
            pruned_versions: cut as u64,
            dead_keys: u64::from(
                self.history.is_empty() && self.baseline.as_ref().is_none_or(Version::is_tombstone),
            ),
            reclaimed_bytes: before_bytes.saturating_sub(after_bytes),
        }
    }

    /// `true` if this record is a *dead shell*: it was mutated at some
    /// point, but pruning reclaimed its whole history and left no live
    /// baseline (either none at all, or a tombstone — the key was dead at
    /// the horizon). Such a record answers `None`/absent to every query
    /// ([`KeyRecord::value_at`], [`KeyRecord::current`],
    /// [`crate::Ttkv::modified_keys`], snapshots) — only its lifetime
    /// counters remain, and under key churn those shells accumulate without
    /// bound. [`crate::Ttkv::gc_dead_shells`] collects them.
    ///
    /// Read-only records (`modifications() == 0`) are *not* shells: they
    /// were never mutated, carry no history to reclaim, and their read
    /// counters are live Table I data.
    pub fn is_dead_shell(&self) -> bool {
        self.modifications() > 0
            && self.history.is_empty()
            && self.baseline.as_ref().is_none_or(Version::is_tombstone)
    }

    /// Demotes the prune baseline (if any) back into the mutation history
    /// as an ordinary version, **without touching the counters** — the
    /// collapsed mutation it stands for was already counted when it was
    /// recorded.
    ///
    /// The demoted version is inserted *before* any real mutation sharing
    /// its timestamp, matching [`KeyRecord::value_at`]'s tie rule (a
    /// same-timestamp recorded mutation arrived after the state the
    /// baseline collapsed, so it stays the winner). This is the layered-WAL
    /// fold primitive: a delta snapshot's baseline becomes a plain version
    /// so the reader's single final prune can re-rank it against *older*
    /// layers — where the baseline, being the newer arrival, must win ties
    /// instead of losing them (see `ocasta-fleet`'s layered compaction and
    /// `DESIGN.md §5.10`).
    pub(crate) fn demote_baseline(&mut self) {
        if let Some(b) = self.baseline.take() {
            let idx = self.history.partition_point(|v| v.timestamp < b.timestamp);
            self.history.insert(idx, b);
        }
    }

    /// Restores a prune baseline (persistence load path; see
    /// `crate::persist`).
    pub(crate) fn set_baseline(&mut self, baseline: Version) {
        self.baseline = Some(baseline);
    }

    /// Overrides the access counters (persistence load path: a pruned
    /// record's counters exceed what its surviving history implies).
    pub(crate) fn set_counters(&mut self, reads: u64, writes: u64, deletes: u64) {
        self.reads = reads;
        self.writes = writes;
        self.deletes = deletes;
    }

    /// Approximate in-memory footprint of the record in bytes.
    pub fn approx_bytes(&self) -> usize {
        let version_bytes = |v: &Version| 16 + v.value.as_ref().map_or(1, Value::approx_bytes);
        24 + self.baseline.as_ref().map_or(0, version_bytes)
            + self.history.iter().map(version_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn value_at_walks_history() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(10), Value::from(1)));
        r.record_mutation(Version::write(ts(20), Value::from(2)));
        assert_eq!(r.value_at(ts(5)), None);
        assert_eq!(r.value_at(ts(10)), Some(&Value::from(1)));
        assert_eq!(r.value_at(ts(15)), Some(&Value::from(1)));
        assert_eq!(r.value_at(ts(20)), Some(&Value::from(2)));
        assert_eq!(r.value_at(ts(999)), Some(&Value::from(2)));
    }

    #[test]
    fn tombstones_hide_values() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("x")));
        r.record_mutation(Version::tombstone(ts(2)));
        r.record_mutation(Version::write(ts(3), Value::from("y")));
        assert!(r.existed_at(ts(1)));
        assert!(!r.existed_at(ts(2)));
        assert_eq!(r.value_at(ts(3)), Some(&Value::from("y")));
        assert_eq!(r.writes, 2);
        assert_eq!(r.deletes, 1);
        assert_eq!(r.modifications(), 3);
    }

    #[test]
    fn out_of_order_mutations_are_sorted_in() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(10), Value::from(10)));
        r.record_mutation(Version::write(ts(5), Value::from(5)));
        r.record_mutation(Version::write(ts(7), Value::from(7)));
        let times: Vec<_> = r.mutation_times().collect();
        assert_eq!(times, vec![ts(5), ts(7), ts(10)]);
        assert_eq!(r.value_at(ts(6)), Some(&Value::from(5)));
    }

    #[test]
    fn equal_timestamps_keep_insertion_order_last_wins() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("a")));
        r.record_mutation(Version::write(ts(1), Value::from("b")));
        assert_eq!(r.value_at(ts(1)), Some(&Value::from("b")));
    }

    #[test]
    fn prune_collapses_old_history_into_a_baseline() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from(1)));
        r.record_mutation(Version::write(ts(5), Value::from(5)));
        r.record_mutation(Version::write(ts(9), Value::from(9)));
        let stats = r.prune_in_place(ts(6));
        // Pre-horizon versions collapse into the baseline, not the history;
        // the baseline keeps the newest pre-horizon value's own timestamp.
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.baseline(), Some(&Version::write(ts(5), Value::from(5))));
        assert_eq!(r.value_at(ts(6)), Some(&Value::from(5)));
        assert_eq!(r.value_at(ts(7)), Some(&Value::from(5)));
        assert_eq!(r.value_at(ts(9)), Some(&Value::from(9)));
        // Counters survive (the sort depends on them).
        assert_eq!(r.writes, 3);
        assert_eq!(stats.pruned_versions, 2);
        assert_eq!(stats.dead_keys, 0);
        assert!(stats.reclaimed_bytes > 0);
    }

    #[test]
    fn prune_baseline_is_not_a_mutation() {
        // Regression: the baseline used to be synthesised as a real
        // `Version::write(horizon, ..)`, so `mutation_times` reported a
        // phantom co-modification at the horizon on every pruned key.
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from(1)));
        r.record_mutation(Version::write(ts(9), Value::from(9)));
        r.prune_in_place(ts(6));
        let times: Vec<_> = r.mutation_times().collect();
        assert_eq!(times, vec![ts(9)], "no phantom mutation at the horizon");
        assert_eq!(r.history().len(), 1);
    }

    #[test]
    fn prune_drops_keys_dead_at_horizon() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("x")));
        r.record_mutation(Version::tombstone(ts(2)));
        r.record_mutation(Version::write(ts(8), Value::from("y")));
        let stats = r.prune_in_place(ts(5));
        // Dead at the horizon: the baseline is the collapsed tombstone, so
        // a later straggler write older than it cannot resurrect the key.
        assert_eq!(r.history().len(), 1);
        assert_eq!(r.baseline(), Some(&Version::tombstone(ts(2))));
        assert_eq!(r.value_at(ts(5)), None);
        assert_eq!(r.value_at(ts(8)), Some(&Value::from("y")));
        assert_eq!(stats.pruned_versions, 2);
        assert_eq!(stats.dead_keys, 0, "post-horizon history survives");
    }

    #[test]
    fn prune_of_entire_dead_history_marks_the_record_dead() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("x")));
        r.record_mutation(Version::tombstone(ts(2)));
        let stats = r.prune_in_place(ts(5));
        assert!(r.history().is_empty());
        assert_eq!(r.baseline(), Some(&Version::tombstone(ts(2))));
        assert_eq!(r.current(), None);
        assert_eq!(r.last_time(), Some(ts(2)), "the death is the last state");
        assert_eq!(stats.dead_keys, 1);
        // Counters are the durable trace of the key's activity.
        assert_eq!(r.modifications(), 2);
    }

    #[test]
    fn fully_pruned_live_key_serves_from_the_baseline() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("x")));
        r.record_mutation(Version::write(ts(3), Value::from("y")));
        r.prune_in_place(ts(5));
        assert!(r.history().is_empty());
        assert_eq!(r.current(), Some(&Value::from("y")));
        assert_eq!(r.value_at(ts(5)), Some(&Value::from("y")));
        // The baseline keeps its true time, so even this below-horizon
        // probe still matches the unpruned history.
        assert_eq!(r.value_at(ts(4)), Some(&Value::from("y")));
        assert_eq!(r.value_at(ts(2)), None, "before the baseline is gone");
        assert_eq!(r.last_time(), Some(ts(3)));
        assert_eq!(r.mutation_times().count(), 0);
    }

    #[test]
    fn repeated_prunes_keep_the_newest_pre_horizon_state() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from(1)));
        r.record_mutation(Version::write(ts(8), Value::from(8)));
        r.prune_in_place(ts(4));
        assert_eq!(r.baseline(), Some(&Version::write(ts(1), Value::from(1))));
        // A sweep landing exactly on the baseline's own timestamp neither
        // drops the baseline nor counts it again.
        let pruned = r.clone();
        assert!(r.prune_in_place(ts(1)).is_noop());
        assert_eq!(r, pruned);
        // Second sweep with nothing new to collapse: a no-op.
        r.prune_in_place(ts(6));
        assert_eq!(r.baseline(), Some(&Version::write(ts(1), Value::from(1))));
        // A straggler *older than the baseline* arrives late (a lagging
        // machine), then a deeper sweep: the baseline must win, because it
        // is the truly newer pre-horizon state.
        r.record_mutation(Version::write(ts(0), Value::from(0)));
        r.prune_in_place(ts(6));
        assert_eq!(r.baseline(), Some(&Version::write(ts(1), Value::from(1))));
        // Third sweep past the last real write: the write subsumes it.
        r.prune_in_place(ts(9));
        assert_eq!(r.baseline(), Some(&Version::write(ts(8), Value::from(8))));
        assert!(r.history().is_empty());
        assert_eq!(r.writes, 3);
    }

    #[test]
    fn straggler_older_than_a_tombstone_baseline_cannot_resurrect_the_key() {
        // Regression: `current()`/`last_time()` used to consult the
        // baseline only when the history was empty, so a late write older
        // than a collapsed deletion brought the key back from the dead
        // (while `value_at` correctly kept it dead).
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("x")));
        r.record_mutation(Version::tombstone(ts(5)));
        r.prune_in_place(ts(6));
        assert_eq!(r.baseline(), Some(&Version::tombstone(ts(5))));
        // The straggler predates the collapsed deletion.
        r.record_mutation(Version::write(ts(0), Value::from("zombie")));
        assert_eq!(r.current(), None, "the tombstone is the newest state");
        assert_eq!(r.value_at(Timestamp::from_millis(u64::MAX)), None);
        assert_eq!(r.last_time(), Some(ts(5)));
        // A genuinely newer write does revive it.
        r.record_mutation(Version::write(ts(9), Value::from("alive")));
        assert_eq!(r.current(), Some(&Value::from("alive")));
        assert_eq!(r.last_time(), Some(ts(9)));
    }

    #[test]
    fn version_exactly_at_horizon_beats_the_baseline() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(1), Value::from("old")));
        r.record_mutation(Version::write(ts(5), Value::from("at-horizon")));
        r.prune_in_place(ts(5));
        // ts(5) is not strictly before the horizon: it survives as real
        // history and is newer than the collapsed baseline.
        assert_eq!(r.history().len(), 1);
        assert_eq!(
            r.baseline(),
            Some(&Version::write(ts(1), Value::from("old")))
        );
        assert_eq!(r.value_at(ts(5)), Some(&Value::from("at-horizon")));
        assert_eq!(r.value_at(ts(9)), Some(&Value::from("at-horizon")));
    }

    #[test]
    fn prune_before_everything_is_a_noop() {
        let mut r = KeyRecord::new();
        r.record_mutation(Version::write(ts(5), Value::from(5)));
        let before = r.clone();
        let stats = r.prune_in_place(ts(1));
        assert_eq!(r, before);
        assert!(stats.is_noop());
    }

    #[test]
    fn reads_only_touch_counters() {
        let mut r = KeyRecord::new();
        r.add_reads(2);
        assert_eq!(r.reads, 2);
        assert!(r.history().is_empty());
        assert_eq!(r.current(), None);
    }
}
