//! Property-based tests for the clustering engine.

use proptest::prelude::*;

use ocasta_cluster::{
    cluster_correlations, cluster_events, hac, transactions, ClusterParams, Correlations,
    IncrementalCorrelations, Linkage, WriteEvent,
};

/// Every pair `i < j` of `n` items, in row order, at the next distance.
fn all_pairs(n: usize, dists: Vec<f64>) -> Vec<(usize, usize, f64)> {
    let mut it = dists.into_iter();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j, it.next().unwrap()));
        }
    }
    pairs
}

fn events(n_items: usize, max_events: usize) -> impl Strategy<Value = Vec<WriteEvent>> {
    prop::collection::vec(
        (0..n_items, 0u64..200_000u64).prop_map(|(item, t)| WriteEvent::new(item, t)),
        0..max_events,
    )
}

proptest! {
    /// Transactions partition the set of written items: every written item
    /// appears in at least one transaction, and transactions are sorted and
    /// deduplicated.
    #[test]
    fn transactions_cover_written_items(
        evs in events(10, 80),
        window in 0u64..5_000,
    ) {
        let txns = transactions(&evs, window);
        let written: std::collections::BTreeSet<usize> =
            evs.iter().map(|e| e.item).collect();
        let in_txns: std::collections::BTreeSet<usize> =
            txns.iter().flatten().copied().collect();
        prop_assert_eq!(written, in_txns);
        for txn in &txns {
            prop_assert!(!txn.is_empty());
            prop_assert!(txn.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        }
    }

    /// Widening the window can only reduce (or keep) the number of
    /// transactions: windows merge, never split.
    #[test]
    fn wider_window_never_splits_transactions(
        evs in events(10, 80),
        w1 in 0u64..2_000,
        extra in 0u64..5_000,
    ) {
        let narrow = transactions(&evs, w1).len();
        let wide = transactions(&evs, w1 + extra).len();
        prop_assert!(wide <= narrow);
    }

    /// Correlation is symmetric and bounded by [0, 2].
    #[test]
    fn correlation_symmetric_and_bounded(evs in events(8, 80), window in 0u64..3_000) {
        let txns = transactions(&evs, window);
        let corr = Correlations::from_transactions(8, &txns);
        for a in 0..8 {
            for b in 0..8 {
                let c = corr.correlation(a, b);
                prop_assert!((0.0..=2.0).contains(&c), "corr({a},{b}) = {c}");
                prop_assert_eq!(c, corr.correlation(b, a));
            }
        }
    }

    /// An item's correlation with itself is 2 whenever it has any writes.
    #[test]
    fn self_correlation_is_two(evs in events(8, 80)) {
        let txns = transactions(&evs, 1_000);
        let corr = Correlations::from_transactions(8, &txns);
        for a in 0..8 {
            if corr.txn_count(a) > 0 {
                prop_assert_eq!(corr.correlation(a, a), 2.0);
            }
        }
    }

    /// HAC dendrograms are monotone for every linkage, and every cut is a
    /// partition of the items.
    #[test]
    fn dendrogram_monotone_and_cuts_partition(
        dists in prop::collection::vec(0.01f64..100.0, 45), // 10 items condensed
        threshold in 0.01f64..100.0,
    ) {
        let n = 10;
        let m = all_pairs(n, dists);
        for linkage in Linkage::ALL {
            let d = hac(n, m.iter().copied(), linkage);
            prop_assert!(d.is_monotone(), "{:?}", linkage);
            let cut = d.cut(threshold);
            let mut seen: Vec<usize> = cut.iter().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    /// Cut granularity is monotone in the threshold: raising the threshold
    /// never increases the number of clusters.
    #[test]
    fn cut_count_monotone_in_threshold(
        dists in prop::collection::vec(0.01f64..100.0, 45),
        t1 in 0.01f64..100.0,
        extra in 0.0f64..50.0,
    ) {
        let n = 10;
        let d = hac(n, all_pairs(n, dists), Linkage::Complete);
        prop_assert!(d.cut(t1 + extra).len() <= d.cut(t1).len());
    }

    /// With the paper's strictest threshold (correlation 2), every pair in a
    /// multi-item cluster must be perfectly correlated under complete
    /// linkage.
    #[test]
    fn strict_threshold_only_groups_perfect_pairs(evs in events(8, 100)) {
        let params = ClusterParams::default();
        let clusters = cluster_events(8, &evs, &params);
        let txns = transactions(&evs, params.window_ms);
        let corr = Correlations::from_transactions(8, &txns);
        for cluster in clusters.iter().filter(|c| c.len() > 1) {
            for (i, &a) in cluster.iter().enumerate() {
                for &b in &cluster[i + 1..] {
                    prop_assert_eq!(corr.correlation(a, b), 2.0);
                }
            }
        }
    }

    /// Streaming equivalence: feeding a time-ordered event stream into
    /// `IncrementalCorrelations` in *any* batch split — advancing the
    /// watermark after every batch, taking throwaway snapshots along the
    /// way — produces exactly the batch correlations and exactly the batch
    /// clustering.
    #[test]
    fn incremental_feed_in_any_batch_split_equals_batch(
        evs in events(10, 120),
        window in 0u64..3_000,
        batch_size in 1usize..12,
        threshold in 0.2f64..2.0,
    ) {
        let batch_corr =
            Correlations::from_transactions(10, &transactions(&evs, window));

        let mut sorted = evs.clone();
        sorted.sort_unstable();
        let mut incr = IncrementalCorrelations::with_items(10, window);
        for chunk in sorted.chunks(batch_size) {
            incr.observe_batch(chunk.iter().copied());
            // Sorted feed: everything up to the chunk's last event is final.
            incr.advance_watermark(chunk.last().unwrap().time_ms);
            // Mid-stream queries must not perturb the live state.
            let _ = incr.snapshot();
        }
        let stream_corr = incr.snapshot();
        prop_assert_eq!(&stream_corr, &batch_corr);
        prop_assert_eq!(incr.finalize(), batch_corr.clone());

        let params = ClusterParams {
            window_ms: window,
            correlation_threshold: threshold,
            ..ClusterParams::default()
        };
        prop_assert_eq!(
            cluster_correlations(&stream_corr, &params),
            cluster_events(10, &evs, &params)
        );
    }

    /// Streaming equivalence under disorder: events arriving in arbitrary
    /// order (no watermark until the end) still finalize to the batch
    /// result.
    #[test]
    fn incremental_out_of_order_feed_equals_batch(
        evs in events(10, 120),
        window in 0u64..3_000,
    ) {
        let mut incr = IncrementalCorrelations::with_items(10, window);
        incr.observe_batch(evs.iter().copied());
        prop_assert_eq!(
            incr.finalize(),
            Correlations::from_transactions(10, &transactions(&evs, window))
        );
    }

    /// The O(window)-state guarantee, made falsifiable: a time-ordered
    /// feed sealed with a lagged watermark (`newest - lag`) keeps exactly
    /// the unsealed suffix buffered — sealing at the newest time drains
    /// the buffer to zero, any lag keeps at most the events above the
    /// lagged watermark, and neither regime changes the final answer.
    #[test]
    fn incremental_buffer_holds_exactly_the_unsealed_suffix(
        evs in events(10, 120),
        window in 0u64..3_000,
        lag in 0u64..5_000,
    ) {
        let mut sorted = evs.clone();
        sorted.sort_unstable();
        let mut incr = IncrementalCorrelations::with_items(10, window);
        for (fed, &e) in sorted.iter().enumerate() {
            incr.observe(e);
            let watermark = e.time_ms.saturating_sub(lag);
            incr.advance_watermark(watermark);
            if lag == 0 {
                prop_assert_eq!(
                    incr.pending_len(), 0,
                    "sealing at the newest time must drain everything"
                );
            } else {
                // Distinct (time, item) pairs above the watermark among
                // events fed so far: the only thing allowed to remain.
                let unsealed: std::collections::BTreeSet<(u64, usize)> = sorted[..=fed]
                    .iter()
                    .filter(|o| o.time_ms > watermark)
                    .map(|o| (o.time_ms, o.item))
                    .collect();
                prop_assert_eq!(
                    incr.pending_len(), unsealed.len(),
                    "pending vs unsealed after {}ms (lag {})", e.time_ms, lag
                );
            }
        }
        prop_assert_eq!(
            incr.finalize(),
            Correlations::from_transactions(10, &transactions(&evs, window))
        );
    }

    /// The pipeline's output is always a partition of the item space.
    #[test]
    fn pipeline_output_is_partition(
        evs in events(12, 120),
        window in 0u64..3_000,
        threshold in 0.2f64..2.0,
    ) {
        let params = ClusterParams {
            window_ms: window,
            correlation_threshold: threshold,
            ..ClusterParams::default()
        };
        let clusters = cluster_events(12, &evs, &params);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..12).collect::<Vec<_>>());
    }
}
