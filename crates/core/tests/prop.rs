//! Property-based tests over the facade pipeline.

use proptest::prelude::*;

use ocasta::{ClusterParams, Key, Ocasta, OcastaStream, TimePrecision, Timestamp, Ttkv, Value};

/// A random mutation log over a small key space.
fn mutations() -> impl Strategy<Value = Vec<(u8, u64, i64, bool)>> {
    prop::collection::vec(
        (
            0u8..10,
            0u64..2_000_000,
            any::<i64>(),
            prop::bool::weighted(0.1),
        ),
        1..120,
    )
}

fn build(entries: &[(u8, u64, i64, bool)]) -> Ttkv {
    let mut store = Ttkv::new();
    for &(k, t, v, delete) in entries {
        let key = Key::new(format!("app/k{k}"));
        let t = Timestamp::from_millis(t);
        if delete {
            store.delete(t, key);
        } else {
            store.write(t, key, Value::from(v));
        }
    }
    store
}

proptest! {
    /// Clustering always partitions exactly the modified keys.
    #[test]
    fn clustering_partitions_modified_keys(entries in mutations()) {
        let store = build(&entries);
        let clustering = Ocasta::default().cluster_store(&store);
        let mut clustered: Vec<&str> = clustering
            .clusters()
            .iter()
            .flatten()
            .map(Key::as_str)
            .collect();
        clustered.sort_unstable();
        let mut modified: Vec<&str> = store.modified_keys().map(Key::as_str).collect();
        modified.sort_unstable();
        prop_assert_eq!(clustered, modified);
    }

    /// `cluster_of` is consistent with the cluster list.
    #[test]
    fn membership_is_consistent(entries in mutations()) {
        let store = build(&entries);
        let clustering = Ocasta::default().cluster_store(&store);
        for cluster in clustering.clusters() {
            for key in cluster {
                prop_assert_eq!(
                    clustering.cluster_of(key.as_str()).expect("member resolves"),
                    cluster.as_slice()
                );
            }
        }
        prop_assert!(clustering.cluster_of("app/never-written").is_none());
    }

    /// Loosening the correlation threshold never increases the cluster
    /// count (the dendrogram-cut monotonicity, observed end to end).
    #[test]
    fn threshold_monotonicity_end_to_end(entries in mutations()) {
        let store = build(&entries);
        let mut last = usize::MAX;
        for threshold in [2.0, 1.5, 1.0, 0.5] {
            let params = ClusterParams {
                correlation_threshold: threshold,
                ..ClusterParams::default()
            };
            let count = Ocasta::new(params).cluster_store(&store).len();
            prop_assert!(count <= last, "threshold {}: {} > {}", threshold, count, last);
            last = count;
        }
    }

    /// Second-quantised clustering is invariant under sub-second timestamp
    /// jitter: shifting every mutation within its own second cannot change
    /// the result when the engine quantises to seconds anyway.
    #[test]
    fn quantised_clustering_ignores_subsecond_jitter(
        entries in mutations(),
        jitter in 0u64..999,
    ) {
        let base = build(&entries);
        let shifted = build(
            &entries
                .iter()
                .map(|&(k, t, v, d)| (k, t / 1000 * 1000 + jitter.min(999), v, d))
                .collect::<Vec<_>>(),
        );
        let engine = Ocasta::default(); // quantises to seconds
        let a = engine.cluster_store(&base);
        let b = engine.cluster_store(&shifted);
        prop_assert_eq!(a.clusters().len(), b.clusters().len());
    }

    /// The tentpole invariant at the facade level: a stream fed the same
    /// mutations — in any batch split, with live queries and watermark
    /// seals along the way — serves *exactly* the clustering that
    /// `Ocasta::cluster_store` computes over the recorded store. Same
    /// keys, same clusters, same order.
    #[test]
    fn streaming_clustering_equals_batch_clustering(
        entries in mutations(),
        batch_size in 1usize..20,
        threshold in 0.5f64..2.0,
        precision_ms in any::<bool>(),
    ) {
        let precision = if precision_ms {
            TimePrecision::Milliseconds
        } else {
            TimePrecision::Seconds
        };
        let params = ClusterParams {
            correlation_threshold: threshold,
            ..ClusterParams::default()
        };
        let engine = Ocasta::new(params).with_precision(precision);

        let store = build(&entries);
        let batch = engine.cluster_store(&store);

        // Stream the same mutations in time order (the live feed), split
        // into arbitrary batches, sealing after each batch and serving a
        // throwaway query mid-stream.
        let mut ordered = entries.clone();
        ordered.sort_by_key(|&(_, t, _, _)| t);
        let mut stream = OcastaStream::new(&engine);
        for chunk in ordered.chunks(batch_size) {
            for &(k, t, _, _) in chunk {
                stream.absorb_write(
                    &Key::new(format!("app/k{k}")),
                    Timestamp::from_millis(t),
                );
            }
            stream.seal();
            let _ = stream.clustering();
        }
        let live = stream.clustering();
        prop_assert_eq!(&live.clustering, &batch);
        prop_assert_eq!(live.horizon.events as usize, entries.len());

        // A second stream fed fully out of order (no seals) agrees too.
        let mut unordered = OcastaStream::new(&engine);
        for &(k, t, _, _) in &entries {
            unordered.absorb_write(
                &Key::new(format!("app/k{k}")),
                Timestamp::from_millis(t),
            );
        }
        prop_assert_eq!(&unordered.clustering().clustering, &batch);
    }

    /// Replay → persist → load → recluster: persistence is transparent to
    /// the pipeline.
    #[test]
    fn persistence_is_transparent_to_clustering(entries in mutations()) {
        let store = build(&entries);
        let mut bytes = Vec::new();
        store.save(&mut bytes).unwrap();
        let reloaded = Ttkv::load(bytes.as_slice()).unwrap();
        let engine = Ocasta::default().with_precision(TimePrecision::Milliseconds);
        let a = engine.cluster_store(&store);
        let b = engine.cluster_store(&reloaded);
        prop_assert_eq!(a.clusters(), b.clusters());
    }
}
