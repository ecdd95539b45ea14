//! The paper's correlation metric over co-modification transactions.

use std::collections::HashMap;

/// Pairwise co-modification statistics for a set of items.
///
/// For items `A` and `B`, with `|A|` the number of transactions in which `A`
/// was written and `|A∩B|` the number of transactions in which both were
/// written, the paper defines (§III-A):
///
/// ```text
/// correlation(A, B) = |A∩B| / |A|  +  |A∩B| / |B|
/// ```
///
/// The metric is 2 when both keys are always modified together and 0 when
/// they never are. The clustering distance is its inverse, so the paper's
/// default correlation threshold of 2 is a distance threshold of 0.5.
///
/// `Correlations` stores only pairs that co-occur at least once, so it stays
/// sparse even for large key populations; those pairs are exactly the
/// finite distances ([`Self::distances`]) that [`crate::hac`] clusters.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::{transactions, Correlations, WriteEvent};
///
/// let events = vec![
///     WriteEvent::new(0, 0), WriteEvent::new(1, 10),      // txn 1: {0, 1}
///     WriteEvent::new(0, 60_000), WriteEvent::new(1, 60_010), // txn 2: {0, 1}
///     WriteEvent::new(2, 120_000),                        // txn 3: {2}
/// ];
/// let corr = Correlations::from_transactions(3, &transactions(&events, 1_000));
/// assert_eq!(corr.correlation(0, 1), 2.0);  // always together
/// assert_eq!(corr.correlation(0, 2), 0.0);  // never together
/// assert_eq!(corr.distance(0, 1), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Correlations {
    n_items: usize,
    /// Per-item transaction membership count (`|A|`).
    txn_counts: Vec<u32>,
    /// Per-pair joint count (`|A∩B|`), keyed by `(min, max)` item index.
    pair_counts: HashMap<(u32, u32), u32>,
}

impl Correlations {
    /// Builds correlation statistics from co-modification transactions (as
    /// produced by [`crate::transactions`]).
    ///
    /// # Panics
    ///
    /// Panics if a transaction mentions an item index `>= n_items`.
    pub fn from_transactions(n_items: usize, txns: &[Vec<usize>]) -> Self {
        let mut txn_counts = vec![0u32; n_items];
        let mut pair_counts: HashMap<(u32, u32), u32> = HashMap::new();
        for txn in txns {
            for (pos, &a) in txn.iter().enumerate() {
                assert!(a < n_items, "item {a} out of range ({n_items} items)");
                txn_counts[a] += 1;
                for &b in &txn[pos + 1..] {
                    let pair = (a.min(b) as u32, a.max(b) as u32);
                    *pair_counts.entry(pair).or_insert(0) += 1;
                }
            }
        }
        Correlations {
            n_items,
            txn_counts,
            pair_counts,
        }
    }

    /// Builds correlation statistics directly from maintained counts (the
    /// streaming path's exit point).
    pub(crate) fn from_counts(
        n_items: usize,
        txn_counts: Vec<u32>,
        pair_counts: HashMap<(u32, u32), u32>,
    ) -> Self {
        debug_assert_eq!(txn_counts.len(), n_items);
        Correlations {
            n_items,
            txn_counts,
            pair_counts,
        }
    }

    /// Relabels items through a permutation: item `i` becomes `perm[i]`.
    ///
    /// Streaming discovers items in arrival order while the batch pipeline
    /// numbers keys in sorted-name order; relabeling lets the two paths meet
    /// on one canonical index space before clustering (index order matters
    /// for HAC tie-breaking, so equality of the final partitions requires
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len()`.
    pub fn relabeled(&self, perm: &[usize]) -> Correlations {
        assert_eq!(perm.len(), self.n_items, "permutation covers every item");
        let mut txn_counts = vec![0u32; self.n_items];
        let mut seen = vec![false; self.n_items];
        for (old, &new) in perm.iter().enumerate() {
            assert!(
                new < self.n_items && !seen[new],
                "perm is a bijection onto 0..{}",
                self.n_items
            );
            seen[new] = true;
            txn_counts[new] = self.txn_counts[old];
        }
        let pair_counts = self
            .pair_counts
            .iter()
            .map(|(&(a, b), &count)| {
                let (pa, pb) = (perm[a as usize] as u32, perm[b as usize] as u32);
                ((pa.min(pb), pa.max(pb)), count)
            })
            .collect();
        Correlations {
            n_items: self.n_items,
            txn_counts,
            pair_counts,
        }
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.n_items
    }

    /// `true` if no items are covered.
    pub fn is_empty(&self) -> bool {
        self.n_items == 0
    }

    /// `|A|`: the number of transactions that wrote item `a`.
    pub fn txn_count(&self, a: usize) -> u32 {
        self.txn_counts[a]
    }

    /// `|A∩B|`: the number of transactions that wrote both items.
    pub fn joint_count(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return self.txn_counts[a];
        }
        let pair = (a.min(b) as u32, a.max(b) as u32);
        self.pair_counts.get(&pair).copied().unwrap_or(0)
    }

    /// The paper's correlation metric, in `[0, 2]`.
    ///
    /// Returns 0 when either item has no writes (the paper's metric is
    /// undefined there; such items never cluster).
    pub fn correlation(&self, a: usize, b: usize) -> f64 {
        self.correlation_with(a, b, self.joint_count(a, b))
    }

    /// [`Self::correlation`] given the joint count `|A∩B|`.
    fn correlation_with(&self, a: usize, b: usize, joint: u32) -> f64 {
        let (ca, cb) = (self.txn_counts[a], self.txn_counts[b]);
        if ca == 0 || cb == 0 {
            return 0.0;
        }
        let joint = f64::from(joint);
        joint / f64::from(ca) + joint / f64::from(cb)
    }

    /// The clustering distance: the inverse of [`Self::correlation`]
    /// (`f64::INFINITY` for correlation 0).
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        inverse(self.correlation(a, b))
    }

    /// Pairs with non-zero correlation, as `(a, b, correlation)` with
    /// `a < b`, in unspecified order.
    pub fn correlated_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.pair_counts.iter().map(|(&(a, b), &joint)| {
            let (a, b) = (a as usize, b as usize);
            (a, b, self.correlation_with(a, b, joint))
        })
    }

    /// The finite distances: every co-modified pair as `(a, b, distance)`
    /// with `a < b`, in unspecified order. Every pair left out is at
    /// distance `f64::INFINITY`, so this is the whole input [`crate::hac`]
    /// needs, in `O(pairs)` rather than `n(n-1)/2` entries.
    pub fn distances(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.correlated_pairs().map(|(a, b, c)| (a, b, inverse(c)))
    }
}

/// Correlation to distance: `1/c`, and `f64::INFINITY` for `c = 0`.
fn inverse(correlation: f64) -> f64 {
    if correlation == 0.0 {
        f64::INFINITY
    } else {
        1.0 / correlation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// txns: {0,1}, {0,1}, {0,2}, {0}
    fn sample() -> Correlations {
        let txns = vec![vec![0, 1], vec![0, 1], vec![0, 2], vec![0]];
        Correlations::from_transactions(3, &txns)
    }

    #[test]
    fn counts_match_definition() {
        let c = sample();
        assert_eq!(c.txn_count(0), 4);
        assert_eq!(c.txn_count(1), 2);
        assert_eq!(c.txn_count(2), 1);
        assert_eq!(c.joint_count(0, 1), 2);
        assert_eq!(c.joint_count(1, 2), 0);
        assert_eq!(c.joint_count(1, 1), 2);
    }

    #[test]
    fn correlation_matches_formula() {
        let c = sample();
        // |0∩1|/|0| + |0∩1|/|1| = 2/4 + 2/2 = 1.5
        assert_eq!(c.correlation(0, 1), 1.5);
        assert_eq!(c.correlation(1, 0), 1.5);
        assert_eq!(c.correlation(1, 2), 0.0);
        // 1/4 + 1/1 = 1.25
        assert_eq!(c.correlation(0, 2), 1.25);
    }

    #[test]
    fn distance_is_inverse_correlation() {
        let c = sample();
        assert_eq!(c.distance(0, 1), 1.0 / 1.5);
        assert!(c.distance(1, 2).is_infinite());
    }

    #[test]
    fn always_together_is_correlation_two() {
        let txns = vec![vec![0, 1]; 5];
        let c = Correlations::from_transactions(2, &txns);
        assert_eq!(c.correlation(0, 1), 2.0);
        assert_eq!(c.distance(0, 1), 0.5);
    }

    #[test]
    fn unwritten_items_have_zero_correlation() {
        let txns = vec![vec![0]];
        let c = Correlations::from_transactions(2, &txns);
        assert_eq!(c.correlation(0, 1), 0.0);
        assert!(c.distance(0, 1).is_infinite());
    }

    #[test]
    fn matrix_agrees_with_pointwise_distance() {
        let c = sample();
        // The sparse pairs, read as a matrix with ∞ in every missing cell.
        let listed: HashMap<(usize, usize), f64> =
            c.distances().map(|(a, b, d)| ((a, b), d)).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                let d = listed.get(&(i, j)).copied().unwrap_or(f64::INFINITY);
                assert_eq!(d, c.distance(i, j));
            }
        }
    }

    #[test]
    fn relabeling_permutes_counts_and_pairs() {
        let c = sample();
        // Reverse the items: 0→2, 1→1, 2→0.
        let r = c.relabeled(&[2, 1, 0]);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(r.correlation(2 - a, 2 - b), c.correlation(a, b));
            }
        }
        // The identity relabeling is a no-op.
        assert_eq!(c.relabeled(&[0, 1, 2]), c);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn relabeling_rejects_non_permutations() {
        sample().relabeled(&[0, 0, 1]);
    }

    #[test]
    fn correlated_pairs_lists_cooccurring_only() {
        let c = sample();
        let mut pairs: Vec<_> = c.correlated_pairs().map(|(a, b, _)| (a, b)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 1), (0, 2)]);
    }
}
