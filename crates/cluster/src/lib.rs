//! # ocasta-cluster — clustering configuration settings
//!
//! The core algorithm of the [Ocasta](https://arxiv.org/abs/1711.04030)
//! reproduction: statistical clustering of configuration settings from
//! black-box write observations.
//!
//! The pipeline has three stages, each usable on its own:
//!
//! 1. [`transactions`] groups timestamped [`WriteEvent`]s into
//!    *co-modification transactions* with a sliding time window (paper
//!    default: 1 second).
//! 2. [`Correlations`] computes the paper's correlation metric
//!    `|A∩B|/|A| + |A∩B|/|B|` per key pair and converts it into distances
//!    (`distance = 1/correlation`).
//! 3. [`hac`] runs hierarchical agglomerative clustering (nearest-neighbor
//!    chain) with the *maximum linkage criterion* by default over the
//!    co-modified pairs alone — a pair never written together is at
//!    distance `∞` and takes no memory, so no `n × n` matrix is built —
//!    producing a [`Dendrogram`] that [`Dendrogram::cut`] prunes at a
//!    distance threshold (paper default: correlation 2 ⇔ distance 0.5).
//!
//! [`cluster_events`] wires the three stages together.
//!
//! ```
//! use ocasta_cluster::{cluster_events, ClusterParams, WriteEvent};
//!
//! // Keys 0 and 1 always change together; key 2 changes alone.
//! let events = vec![
//!     WriteEvent::new(0, 1_000), WriteEvent::new(1, 1_200),
//!     WriteEvent::new(2, 50_000),
//!     WriteEvent::new(0, 90_000), WriteEvent::new(1, 90_400),
//! ];
//! let clusters = cluster_events(3, &events, &ClusterParams::default());
//! assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
//! ```
//!
//! This crate is deliberately free of key names, values and clocks: items are
//! dense indices and times are `u64` milliseconds, so the algorithm is
//! reusable for any co-occurrence clustering problem.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod correlation;
mod dendrogram;
mod event;
mod hac;
mod incremental;
mod linkage;
mod window;

pub use correlation::Correlations;
pub use dendrogram::{Dendrogram, Merge, PartitionStats};
pub use event::{transactions, WriteEvent};
pub use hac::hac;
pub use incremental::IncrementalCorrelations;
pub use linkage::Linkage;
pub use window::TransactionWindow;

/// Tunable parameters for the end-to-end clustering pipeline.
///
/// The defaults are the paper's: a 1-second sliding window and a correlation
/// threshold of 2 (cluster only keys that are *always* modified together),
/// with complete linkage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Sliding co-modification window, in milliseconds.
    pub window_ms: u64,
    /// Minimum pairwise correlation (in `(0, 2]`) for keys to cluster.
    pub correlation_threshold: f64,
    /// Cluster-distance criterion.
    pub linkage: Linkage,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            window_ms: 1_000,
            correlation_threshold: 2.0,
            linkage: Linkage::Complete,
        }
    }
}

impl ClusterParams {
    /// The distance threshold equivalent to the correlation threshold.
    pub fn distance_threshold(&self) -> f64 {
        1.0 / self.correlation_threshold
    }
}

/// Runs the full clustering pipeline: transactions → correlations → HAC →
/// threshold cut.
///
/// Returns a partition of `0..n_items`: sorted clusters of item indices,
/// ordered by smallest member, singletons included.
///
/// # Panics
///
/// Panics if an event references an item `>= n_items`, or if
/// `params.correlation_threshold` is not positive.
pub fn cluster_events(
    n_items: usize,
    events: &[WriteEvent],
    params: &ClusterParams,
) -> Vec<Vec<usize>> {
    let txns = transactions(events, params.window_ms);
    let correlations = Correlations::from_transactions(n_items, &txns);
    cluster_correlations(&correlations, params)
}

/// The clustering tail shared by the batch and streaming pipelines: HAC over
/// the co-modified pairs' distances ([`Correlations::distances`]), cut at the
/// correlation threshold.
///
/// Batch ([`cluster_events`]) and streaming
/// ([`IncrementalCorrelations::snapshot`]) both exit through this function,
/// so identical correlations are guaranteed identical partitions.
///
/// # Panics
///
/// Panics if `params.correlation_threshold` is not positive.
pub fn cluster_correlations(
    correlations: &Correlations,
    params: &ClusterParams,
) -> Vec<Vec<usize>> {
    let dendrogram = hac(correlations.len(), correlations.distances(), params.linkage);
    dendrogram.cut_correlation(params.correlation_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = ClusterParams::default();
        assert_eq!(p.window_ms, 1_000);
        assert_eq!(p.correlation_threshold, 2.0);
        assert_eq!(p.distance_threshold(), 0.5);
        assert_eq!(p.linkage, Linkage::Complete);
    }

    #[test]
    fn pipeline_clusters_always_together_keys() {
        // Three related keys written together 4 times, one noisy key that
        // once lands in the same window but also changes alone.
        let mut events = Vec::new();
        for burst in 0..4u64 {
            let t = burst * 100_000;
            events.push(WriteEvent::new(0, t));
            events.push(WriteEvent::new(1, t + 300));
            events.push(WriteEvent::new(2, t + 600));
        }
        events.push(WriteEvent::new(3, 300));
        events.push(WriteEvent::new(3, 40_000));
        events.push(WriteEvent::new(3, 50_000));

        let clusters = cluster_events(4, &events, &ClusterParams::default());
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn lowering_threshold_merges_mostly_together_keys() {
        // Key 1 joins key 0 in 2 of 3 of key 0's transactions.
        let events = vec![
            WriteEvent::new(0, 0),
            WriteEvent::new(1, 100),
            WriteEvent::new(0, 10_000),
            WriteEvent::new(1, 10_100),
            WriteEvent::new(0, 20_000),
        ];
        // corr = 2/3 + 2/2 ≈ 1.67 < 2: default threshold keeps them apart...
        let strict = cluster_events(2, &events, &ClusterParams::default());
        assert_eq!(strict, vec![vec![0], vec![1]]);
        // ...threshold 1 clusters them (the paper's error #2/#4 tuning).
        let relaxed = ClusterParams {
            correlation_threshold: 1.0,
            ..ClusterParams::default()
        };
        assert_eq!(cluster_events(2, &events, &relaxed), vec![vec![0, 1]]);
    }

    #[test]
    fn widening_window_merges_slow_bursts() {
        // Related keys written 5 seconds apart (like error #2's Word MRU
        // rewrite): invisible at 1 s, clustered at 30 s.
        let events = vec![
            WriteEvent::new(0, 0),
            WriteEvent::new(1, 5_000),
            WriteEvent::new(0, 100_000),
            WriteEvent::new(1, 105_000),
        ];
        let narrow = cluster_events(2, &events, &ClusterParams::default());
        assert_eq!(narrow, vec![vec![0], vec![1]]);
        let wide = ClusterParams {
            window_ms: 30_000,
            ..ClusterParams::default()
        };
        assert_eq!(cluster_events(2, &events, &wide), vec![vec![0, 1]]);
    }

    #[test]
    fn items_with_no_events_stay_singletons() {
        let events = vec![WriteEvent::new(0, 0), WriteEvent::new(1, 10)];
        let clusters = cluster_events(4, &events, &ClusterParams::default());
        assert_eq!(clusters, vec![vec![0, 1], vec![2], vec![3]]);
    }
}
