//! The end-to-end Ocasta pipeline: TTKV history → co-modification events →
//! clusters of related settings.

use std::collections::BTreeMap;

use ocasta_cluster::{cluster_events, ClusterParams, PartitionStats, WriteEvent};
use ocasta_ttkv::{Key, TimePrecision, Ttkv};

/// The Ocasta engine: clustering configuration from black-box observations.
///
/// Wraps the paper's tunable knobs — the sliding co-modification window, the
/// correlation threshold, the linkage criterion and the timestamp precision
/// of the trace infrastructure — and turns a recorded [`Ttkv`] history into
/// named clusters of related settings.
///
/// # Examples
///
/// ```
/// use ocasta::{Ocasta, Timestamp, Ttkv, Value};
///
/// let mut store = Ttkv::new();
/// for burst in 0..3u64 {
///     let t = Timestamp::from_secs(burst * 1000);
///     store.write(t, "mail/mark_seen", Value::from(true));
///     store.write(t, "mail/mark_seen_timeout", Value::from(1500));
/// }
/// store.write(Timestamp::from_secs(77), "mail/window_width", Value::from(800));
///
/// let clustering = Ocasta::default().cluster_store(&store);
/// assert_eq!(clustering.multi_clusters().count(), 1);
/// assert_eq!(clustering.cluster_of("mail/mark_seen").unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ocasta {
    params: ClusterParams,
    precision: TimePrecision,
}

impl Ocasta {
    /// Creates an engine with explicit clustering parameters.
    pub fn new(params: ClusterParams) -> Self {
        Ocasta {
            params,
            precision: TimePrecision::default(),
        }
    }

    /// Sets the timestamp precision applied to mutation times before
    /// windowing (the deployed loggers recorded whole seconds; millisecond
    /// precision is the paper's suggested improvement).
    pub fn with_precision(mut self, precision: TimePrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The clustering parameters in use.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// The timestamp precision applied before windowing.
    pub fn precision(&self) -> TimePrecision {
        self.precision
    }

    /// Extracts the per-key write events the clustering consumes: every
    /// mutation (write or deletion) of every modified key.
    pub fn write_events(&self, store: &Ttkv) -> (Vec<Key>, Vec<WriteEvent>) {
        self.events_of(store, store.modified_keys())
    }

    /// Clusters every modified key in the store.
    pub fn cluster_store(&self, store: &Ttkv) -> Clustering {
        self.cluster_keys(store, store.modified_keys())
    }

    /// Clusters only the modified keys under an application prefix (how the
    /// paper evaluates per-application accuracy): the same keys, events and
    /// partition [`Self::cluster_store`] gives a store holding only that
    /// application.
    pub fn cluster_app(&self, store: &Ttkv, app_prefix: &Key) -> Clustering {
        self.cluster_keys(
            store,
            store.modified_keys().filter(|k| k.starts_with(app_prefix)),
        )
    }

    fn cluster_keys<'a>(&self, store: &Ttkv, keys: impl Iterator<Item = &'a Key>) -> Clustering {
        let (keys, events) = self.events_of(store, keys);
        let partition = cluster_events(keys.len(), &events, &self.params);
        Clustering::new(keys, partition)
    }

    /// Numbers `keys` in iteration order and lists every mutation of each.
    fn events_of<'a>(
        &self,
        store: &Ttkv,
        keys: impl Iterator<Item = &'a Key>,
    ) -> (Vec<Key>, Vec<WriteEvent>) {
        let keys: Vec<Key> = keys.cloned().collect();
        let mut events = Vec::new();
        for (idx, key) in keys.iter().enumerate() {
            if let Some(record) = store.record(key.as_str()) {
                for t in record.mutation_times() {
                    events.push(WriteEvent::new(idx, self.precision.apply(t).as_millis()));
                }
            }
        }
        (keys, events)
    }
}

/// The result of clustering a store: a partition of its modified keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    clusters: Vec<Vec<Key>>,
    membership: BTreeMap<Key, usize>,
}

impl Clustering {
    pub(crate) fn new(keys: Vec<Key>, partition: Vec<Vec<usize>>) -> Self {
        let clusters: Vec<Vec<Key>> = partition
            .into_iter()
            .map(|cluster| cluster.into_iter().map(|i| keys[i].clone()).collect())
            .collect();
        let mut membership = BTreeMap::new();
        for (idx, cluster) in clusters.iter().enumerate() {
            for key in cluster {
                membership.insert(key.clone(), idx);
            }
        }
        Clustering {
            clusters,
            membership,
        }
    }

    /// All clusters (singletons included), ordered by smallest member.
    pub fn clusters(&self) -> &[Vec<Key>] {
        &self.clusters
    }

    /// Clusters with more than one setting (Table II's focus).
    pub fn multi_clusters(&self) -> impl Iterator<Item = &Vec<Key>> {
        self.clusters.iter().filter(|c| c.len() > 1)
    }

    /// The cluster containing `key`, if the key was modified.
    pub fn cluster_of(&self, key: &str) -> Option<&[Key]> {
        self.membership
            .get(key)
            .map(|&idx| self.clusters[idx].as_slice())
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` if no keys were clustered.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Partition statistics (Figure 3's cluster-size metrics).
    pub fn stats(&self) -> PartitionStats {
        let mut stats = PartitionStats::default();
        for cluster in &self.clusters {
            stats.clusters += 1;
            stats.items += cluster.len();
            stats.max_cluster_size = stats.max_cluster_size.max(cluster.len());
            if cluster.len() > 1 {
                stats.multi_clusters += 1;
                stats.items_in_multi += cluster.len();
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocasta_ttkv::{Timestamp, Value};

    fn store_with_pair_and_noise() -> Ttkv {
        let mut store = Ttkv::new();
        for burst in 0..4u64 {
            let t = Timestamp::from_secs(burst * 500);
            store.write(t, "app/a", Value::from(burst as i64));
            store.write(t, "app/b", Value::from(burst as i64 * 10));
        }
        store.write(Timestamp::from_secs(123), "app/noise", Value::from(1));
        store.write(Timestamp::from_secs(456), "app/noise", Value::from(2));
        store.write(Timestamp::from_secs(789), "other/key", Value::from(true));
        store.read("app/readonly");
        store
    }

    #[test]
    fn clusters_pair_and_leaves_noise_alone() {
        let clustering = Ocasta::default().cluster_store(&store_with_pair_and_noise());
        assert_eq!(clustering.len(), 3);
        assert_eq!(clustering.multi_clusters().count(), 1);
        assert_eq!(clustering.cluster_of("app/a").unwrap().len(), 2);
        assert_eq!(clustering.cluster_of("app/noise").unwrap().len(), 1);
        assert!(
            clustering.cluster_of("app/readonly").is_none(),
            "read-only keys excluded"
        );
    }

    #[test]
    fn cluster_app_scopes_to_prefix() {
        let clustering =
            Ocasta::default().cluster_app(&store_with_pair_and_noise(), &Key::new("app"));
        assert!(clustering.cluster_of("other/key").is_none());
        assert_eq!(clustering.len(), 2);
    }

    #[test]
    fn precision_affects_windowing() {
        let mut store = Ttkv::new();
        // 1.2 s apart: same window at second precision (1s quantised ⇒ gap
        // 1s ≤ 1s), different at millisecond precision (1.2s > 1s).
        for burst in 0..3u64 {
            let t = Timestamp::from_millis(burst * 100_000);
            store.write(t, "a/x", Value::from(1));
            store.write(
                t + ocasta_ttkv::TimeDelta::from_millis(1_200),
                "a/y",
                Value::from(2),
            );
        }
        let coarse = Ocasta::default().cluster_store(&store);
        assert_eq!(coarse.multi_clusters().count(), 1);
        let fine = Ocasta::default()
            .with_precision(TimePrecision::Milliseconds)
            .cluster_store(&store);
        assert_eq!(fine.multi_clusters().count(), 0);
    }

    #[test]
    fn clustering_a_pruned_store_invents_no_mutations() {
        // Regression: pruning used to synthesise a baseline version at the
        // horizon that `mutation_times` reported as a real write — so
        // *every* pruned key appeared co-modified at the horizon and the
        // clustering glued unrelated keys together.
        let mut store = Ttkv::new();
        // Two unrelated keys, never modified together.
        store.write(Timestamp::from_secs(100), "app/a", Value::from(1));
        store.write(Timestamp::from_secs(5_000), "app/a", Value::from(2));
        store.write(Timestamp::from_secs(900), "app/b", Value::from(1));
        store.write(Timestamp::from_secs(7_000), "app/b", Value::from(2));
        let engine = Ocasta::default();
        let before = engine.cluster_store(&store);
        assert_eq!(before.multi_clusters().count(), 0);

        let mut pruned = store.clone();
        pruned.prune_before(Timestamp::from_secs(2_000));

        // No event time exists in the pruned store that the original
        // history did not contain.
        let (_, original_events) = engine.write_events(&store);
        let original_times: std::collections::BTreeSet<u64> =
            original_events.iter().map(|e| e.time_ms).collect();
        let (_, pruned_events) = engine.write_events(&pruned);
        for event in &pruned_events {
            assert!(
                original_times.contains(&event.time_ms),
                "phantom event at {}ms",
                event.time_ms
            );
        }
        // And the partition is unchanged: still no multi-setting cluster,
        // where the phantom horizon write used to merge app/a with app/b.
        let after = engine.cluster_store(&pruned);
        assert_eq!(after.multi_clusters().count(), 0);
    }

    #[test]
    fn stats_summarise_partition() {
        let clustering = Ocasta::default().cluster_store(&store_with_pair_and_noise());
        let stats = clustering.stats();
        assert_eq!(stats.clusters, 3);
        assert_eq!(stats.multi_clusters, 1);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.mean_multi_cluster_size(), 2.0);
    }
}
