//! Cluster version history: the rollback candidates the search walks.

use ocasta_cluster::{TransactionWindow, WriteEvent};
use ocasta_ttkv::{ConfigState, Key, TimeDelta, Timestamp, Ttkv, Value};

/// One cluster's searchable state: its keys, modification statistics and
/// rollback candidates.
///
/// A *version* is a co-modification transaction of the cluster's keys
/// (writes grouped by the sliding window); rolling back to a version means
/// restoring every member key to its value just **before** that transaction
/// — undoing it. The paper's repair tool enumerates exactly these candidates
/// between the user's optional start and end bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Member keys.
    pub keys: Vec<Key>,
    /// Total modifications over the whole recorded history (the repair
    /// tool's sort key: rarely-modified clusters are likely configuration).
    pub modifications: u64,
    /// Most recent modification ever recorded, if any — taken from the
    /// per-record last-mutation watermark
    /// ([`ocasta_ttkv::KeyRecord::last_mutation_watermark`]), not from the
    /// surviving mutation times, so it is identical at every prune depth.
    /// This is the sort tie-break (see [`sorted_cluster_infos`]); deriving
    /// it from surviving times used to let equally-modified clusters
    /// renumber ranks once a sweep reclaimed the newest mutation
    /// (regression-tested in `ranks_are_stable_across_prune_depths`).
    pub last_modified: Option<Timestamp>,
    /// Transaction start times within the search bounds, newest first.
    pub versions: Vec<Timestamp>,
}

impl ClusterInfo {
    /// Builds the version history of a cluster from the TTKV.
    ///
    /// `window` is the co-modification window used to group member-key
    /// mutations into transactions; `start`/`end` bound which transactions
    /// are searchable (both inclusive; `None` means unbounded).
    ///
    /// Only each key's mutations inside the bounds are read, plus its last
    /// mutation before `start`. That is exact because the window is a gap
    /// rule: whether a mutation opens a transaction depends only on the
    /// cluster's previous mutation, which is either inside the bounds too
    /// or the newest of the per-key predecessors kept here.
    pub fn build(
        ttkv: &Ttkv,
        keys: Vec<Key>,
        window: TimeDelta,
        start: Option<Timestamp>,
        end: Option<Timestamp>,
    ) -> Self {
        let mut times: Vec<Timestamp> = Vec::new();
        let mut modifications = 0;
        let mut last_modified = None;
        for record in keys.iter().filter_map(|k| ttkv.record(k.as_str())) {
            modifications += record.modifications();
            // The watermark, not the newest surviving time: surviving
            // mutation times shrink as retention sweeps deepen, and the
            // sort tie-break must not move with them.
            last_modified = last_modified.max(record.last_mutation_watermark());
            let history = record.history();
            let from = start.map_or(0, |s| {
                history
                    .partition_point(|v| v.timestamp < s)
                    .saturating_sub(1)
            });
            let to = end.map_or(history.len(), |e| {
                history.partition_point(|v| v.timestamp <= e)
            });
            times.extend(history[from..to.max(from)].iter().map(|v| v.timestamp));
        }
        times.sort_unstable();

        // Group into transactions through the workspace's one windowing
        // rule (`ocasta_cluster::TransactionWindow`) — the same core the
        // batch and streaming clusterings run on, so a catalog pinned from
        // a live stream and the rollback candidates enumerated here agree
        // on what a transaction *is*.
        let mut grouper = TransactionWindow::new(window.as_millis());
        let mut txn_starts: Vec<Timestamp> = Vec::new();
        for &t in &times {
            if !grouper.is_open() || grouper.would_close(t.as_millis()) {
                txn_starts.push(t);
            }
            grouper.push(WriteEvent::new(0, t.as_millis()));
            debug_assert_eq!(
                grouper.open_since(),
                txn_starts.last().map(|s| s.as_millis()),
            );
        }
        let mut versions: Vec<Timestamp> = txn_starts
            .into_iter()
            .filter(|&t| start.is_none_or(|s| t >= s) && end.is_none_or(|e| t <= e))
            .collect();
        versions.reverse(); // newest first

        ClusterInfo {
            keys,
            modifications,
            last_modified,
            versions,
        }
    }

    /// Number of member keys.
    pub fn size(&self) -> usize {
        self.keys.len()
    }

    /// The rollback patch for version `at`: every member key's value just
    /// before that transaction started (`None` = the key did not exist and
    /// must be removed). Nothing precedes [`Timestamp::EPOCH`], so undoing a
    /// transaction there removes every member key.
    pub fn rollback_patch(&self, ttkv: &Ttkv, at: Timestamp) -> Vec<(Key, Option<Value>)> {
        self.keys
            .iter()
            .map(|k| (k.clone(), value_before(ttkv, k, at).cloned()))
            .collect()
    }

    /// Runs `run` against `sandbox` with the rollback for version `at`
    /// applied, then restores `sandbox` exactly — the trial isolation of
    /// §III-B without copying the configuration.
    ///
    /// The patch is applied in place with [`ConfigState::set`] /
    /// [`ConfigState::remove`], whose returned previous values form an undo
    /// log that is replayed in reverse once `run` returns, so a call costs
    /// O(member keys · log(sandbox keys)) however large the configuration
    /// is. If `run` panics the sandbox is left patched.
    ///
    /// # Examples
    ///
    /// ```
    /// use ocasta_repair::ClusterInfo;
    /// use ocasta_ttkv::{Key, TimeDelta, Timestamp, Ttkv, Value};
    ///
    /// let mut ttkv = Ttkv::new();
    /// ttkv.write(Timestamp::from_secs(1), "app/toolbar", Value::from(true));
    /// ttkv.write(Timestamp::from_secs(90), "app/toolbar", Value::from(false));
    /// let info = ClusterInfo::build(
    ///     &ttkv,
    ///     vec![Key::new("app/toolbar")],
    ///     TimeDelta::from_secs(1),
    ///     None,
    ///     None,
    /// );
    /// let base = ttkv.snapshot_latest();
    /// let mut sandbox = base.clone();
    /// let shown = info.with_rollback(&ttkv, Timestamp::from_secs(90), &mut sandbox, |config| {
    ///     config.get_bool("app/toolbar")
    /// });
    /// assert_eq!(shown, Some(true)); // the t=90 change is undone
    /// assert_eq!(sandbox, base); // and the sandbox is back as it was
    /// ```
    pub fn with_rollback<R>(
        &self,
        ttkv: &Ttkv,
        at: Timestamp,
        sandbox: &mut ConfigState,
        run: impl FnOnce(&ConfigState) -> R,
    ) -> R {
        let undo: Vec<(&Key, Option<Value>)> = self
            .keys
            .iter()
            .map(|k| (k, put(sandbox, k, value_before(ttkv, k, at).cloned())))
            .collect();
        let result = run(sandbox);
        for (k, previous) in undo.into_iter().rev() {
            put(sandbox, k, previous);
        }
        result
    }
}

/// The live value of `key` just before a transaction at `at`.
fn value_before<'a>(ttkv: &'a Ttkv, key: &Key, at: Timestamp) -> Option<&'a Value> {
    let before = at.as_millis().checked_sub(1)?;
    ttkv.value_at(key.as_str(), Timestamp::from_millis(before))
}

/// Sets (`Some`) or removes (`None`) `key`, returning what it held before.
fn put(sandbox: &mut ConfigState, key: &Key, value: Option<Value>) -> Option<Value> {
    match value {
        Some(v) => sandbox.set(key.clone(), v),
        None => sandbox.remove(key.as_str()),
    }
}

/// Builds [`ClusterInfo`]s for every cluster and sorts them the way Ocasta's
/// repair tool does: ascending by modification count (configuration settings
/// change rarely), breaking ties toward the most recently modified cluster.
pub fn sorted_cluster_infos(
    ttkv: &Ttkv,
    clusters: &[Vec<Key>],
    window: TimeDelta,
    start: Option<Timestamp>,
    end: Option<Timestamp>,
) -> Vec<ClusterInfo> {
    let mut infos: Vec<ClusterInfo> = clusters
        .iter()
        .map(|keys| ClusterInfo::build(ttkv, keys.clone(), window, start, end))
        .filter(|info| info.modifications > 0)
        .collect();
    infos.sort_by(|a, b| {
        a.modifications
            .cmp(&b.modifications)
            .then_with(|| b.last_modified.cmp(&a.last_modified))
            .then_with(|| a.keys.cmp(&b.keys))
    });
    infos
}

/// The NoClust baseline's "clustering": every modified key by itself.
pub fn singleton_clusters(ttkv: &Ttkv) -> Vec<Vec<Key>> {
    ttkv.modified_keys().map(|k| vec![k.clone()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_ttkv::Value;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn store() -> Ttkv {
        let mut ttkv = Ttkv::new();
        // Cluster {a, b}: changed together at t=100 and t=5000.
        ttkv.write(ts(100), "app/a", Value::from(1));
        ttkv.write(ts(100), "app/b", Value::from(10));
        ttkv.write(ts(5000), "app/a", Value::from(2));
        ttkv.write(ts(5000), "app/b", Value::from(20));
        // Unrelated key.
        ttkv.write(ts(3000), "app/c", Value::from(true));
        ttkv
    }

    #[test]
    fn versions_group_by_window_newest_first() {
        let info = ClusterInfo::build(
            &store(),
            vec![Key::new("app/a"), Key::new("app/b")],
            TimeDelta::from_secs(1),
            None,
            None,
        );
        assert_eq!(info.versions, vec![ts(5000), ts(100)]);
        assert_eq!(info.modifications, 4);
        assert_eq!(info.size(), 2);
        assert_eq!(info.last_modified, Some(ts(5000)));
    }

    #[test]
    fn bounds_filter_versions() {
        let keys = vec![Key::new("app/a"), Key::new("app/b")];
        let info = ClusterInfo::build(
            &store(),
            keys.clone(),
            TimeDelta::from_secs(1),
            Some(ts(1000)),
            None,
        );
        assert_eq!(info.versions, vec![ts(5000)]);
        let info = ClusterInfo::build(
            &store(),
            keys,
            TimeDelta::from_secs(1),
            None,
            Some(ts(1000)),
        );
        assert_eq!(info.versions, vec![ts(100)]);
    }

    /// Applies the rollback for `at` to a sandbox over `base`, returning
    /// the rolled-back configuration the trial saw — and checking that the
    /// undo left the sandbox exactly equal to `base` again.
    fn rolled_back(info: &ClusterInfo, ttkv: &Ttkv, at: Timestamp) -> ConfigState {
        let base = ttkv.snapshot_latest();
        let mut sandbox = base.clone();
        let seen = info.with_rollback(ttkv, at, &mut sandbox, ConfigState::clone);
        assert_eq!(sandbox, base, "the undo restores the sandbox");
        seen
    }

    #[test]
    fn rollback_restores_pre_transaction_values() {
        let ttkv = store();
        let info = ClusterInfo::build(
            &ttkv,
            vec![Key::new("app/a"), Key::new("app/b")],
            TimeDelta::from_secs(1),
            None,
            None,
        );
        assert_eq!(ttkv.snapshot_latest().get_int("app/a"), Some(2));
        // Undo the t=5000 transaction.
        let rolled = rolled_back(&info, &ttkv, ts(5000));
        assert_eq!(rolled.get_int("app/a"), Some(1));
        assert_eq!(rolled.get_int("app/b"), Some(10));
        assert_eq!(rolled.get_bool("app/c"), Some(true), "other keys untouched");
        // Undo the t=100 transaction: keys did not exist before it.
        let rolled = rolled_back(&info, &ttkv, ts(100));
        assert_eq!(rolled.get("app/a"), None);
        assert_eq!(rolled.get("app/b"), None);
        assert_eq!(rolled.get_bool("app/c"), Some(true));
    }

    #[test]
    fn rollback_recreates_deleted_keys() {
        let mut ttkv = store();
        ttkv.delete(ts(9000), "app/a");
        let info = ClusterInfo::build(
            &ttkv,
            vec![Key::new("app/a")],
            TimeDelta::from_secs(1),
            None,
            None,
        );
        assert_eq!(ttkv.snapshot_latest().get("app/a"), None);
        // Undo the deletion transaction (t=9000): the key comes back, and
        // the undo deletes it from the sandbox again.
        let rolled = rolled_back(&info, &ttkv, ts(9000));
        assert_eq!(rolled.get_int("app/a"), Some(2));
    }

    #[test]
    fn undoing_an_epoch_transaction_removes_every_member_key() {
        // Regression: the pre-transaction read used to saturate at the
        // epoch, so undoing a version at EPOCH read the version itself
        // and left `app/a = 1` in place.
        let mut ttkv = Ttkv::new();
        ttkv.write(Timestamp::EPOCH, "app/a", Value::from(1));
        ttkv.write(ts(100), "app/a", Value::from(2));
        let info = ClusterInfo::build(
            &ttkv,
            vec![Key::new("app/a")],
            TimeDelta::from_secs(1),
            None,
            None,
        );
        assert_eq!(info.versions, vec![ts(100), Timestamp::EPOCH]);
        assert_eq!(
            info.rollback_patch(&ttkv, Timestamp::EPOCH),
            vec![(Key::new("app/a"), None)]
        );
        let rolled = rolled_back(&info, &ttkv, Timestamp::EPOCH);
        assert_eq!(rolled.get("app/a"), None);
        assert!(rolled.is_empty());
        // The later version still undoes to the epoch write.
        assert_eq!(rolled_back(&info, &ttkv, ts(100)).get_int("app/a"), Some(1));
    }

    #[test]
    fn repeated_member_keys_undo_in_reverse() {
        // A key listed twice is patched twice; replaying the undo log in
        // reverse still restores its original value.
        let ttkv = store();
        let info = ClusterInfo::build(
            &ttkv,
            vec![Key::new("app/a"), Key::new("app/a")],
            TimeDelta::from_secs(1),
            None,
            None,
        );
        assert_eq!(
            rolled_back(&info, &ttkv, ts(5000)).get_int("app/a"),
            Some(1)
        );
        assert_eq!(rolled_back(&info, &ttkv, ts(100)).get("app/a"), None);
    }

    #[test]
    fn sort_prefers_rarely_modified_then_recent() {
        let ttkv = store();
        let clusters = vec![
            vec![Key::new("app/a"), Key::new("app/b")], // 4 modifications
            vec![Key::new("app/c")],                    // 1 modification
        ];
        let infos = sorted_cluster_infos(&ttkv, &clusters, TimeDelta::from_secs(1), None, None);
        assert_eq!(infos[0].keys, vec![Key::new("app/c")]);
        assert_eq!(infos[1].size(), 2);
    }

    #[test]
    fn unmodified_clusters_are_dropped() {
        let ttkv = store();
        let clusters = vec![vec![Key::new("app/never_written")]];
        let infos = sorted_cluster_infos(&ttkv, &clusters, TimeDelta::from_secs(1), None, None);
        assert!(infos.is_empty());
    }

    #[test]
    fn singleton_clusters_cover_modified_keys() {
        let singles = singleton_clusters(&store());
        assert_eq!(singles.len(), 3);
        assert!(singles.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn ranks_are_stable_across_prune_depths() {
        // Regression (ROADMAP "rank-stable sorts on pruned stores"): two
        // equally-modified clusters are tie-broken on last_modified; when
        // that was derived from *surviving* mutation times, pruning both
        // clusters to zero versions erased the tie-break and the pair
        // renumbered on the key-order fallback. The per-record watermark
        // keeps `fix.cluster_rank` identical at every horizon.
        let mut ttkv = Ttkv::new();
        ttkv.write(ts(1), "app/a", Value::from(1));
        ttkv.write(ts(2), "app/a", Value::from(2));
        ttkv.write(ts(3), "app/b", Value::from(3));
        ttkv.write(ts(4), "app/b", Value::from(4));
        let clusters = vec![vec![Key::new("app/a")], vec![Key::new("app/b")]];

        let rank_keys = |store: &Ttkv| -> Vec<Vec<Key>> {
            sorted_cluster_infos(store, &clusters, TimeDelta::from_millis(1), None, None)
                .into_iter()
                .map(|info| info.keys)
                .collect()
        };
        let reference = rank_keys(&ttkv);
        // Both modified twice; app/b modified later, so it ranks first.
        assert_eq!(
            reference,
            vec![vec![Key::new("app/b")], vec![Key::new("app/a")]]
        );
        // Horizons that prune one cluster partially, one fully, and both
        // fully (at ts(5) both histories are gone entirely).
        for horizon in [0u64, 2, 3, 5, 100] {
            let mut pruned = ttkv.clone();
            pruned.prune_before(ts(horizon));
            assert_eq!(rank_keys(&pruned), reference, "horizon {horizon}");
            let infos =
                sorted_cluster_infos(&pruned, &clusters, TimeDelta::from_millis(1), None, None);
            assert_eq!(infos[0].last_modified, Some(ts(4)), "horizon {horizon}");
            assert_eq!(infos[1].last_modified, Some(ts(2)), "horizon {horizon}");
        }
    }
}
