//! The production `hac` — a nearest-neighbour chain over the finite pairs
//! only — against the dense reference it replaced: the same chain over a
//! full condensed distance matrix with `∞` in every missing cell. The two
//! must return the same `Dendrogram`, merge for merge and bit for bit,
//! `∞` merges included, for every linkage.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ocasta_cluster::{
    cluster_correlations, hac, transactions, ClusterParams, Correlations, Dendrogram, Linkage,
    WriteEvent,
};

/// The dense `O(n²)` nearest-neighbour-chain HAC, kept as the reference.
mod dense {
    use ocasta_cluster::{Dendrogram, Linkage, Merge};

    /// A symmetric pairwise distance matrix over `n` items, stored in
    /// condensed (upper-triangle) form: `n * (n - 1) / 2` entries.
    #[derive(Clone)]
    pub struct DistanceMatrix {
        n: usize,
        data: Vec<f64>,
    }

    impl DistanceMatrix {
        /// An `n × n` matrix with every off-diagonal distance set to `fill`.
        pub fn new_filled(n: usize, fill: f64) -> Self {
            DistanceMatrix {
                n,
                data: vec![fill; n * n.saturating_sub(1) / 2],
            }
        }

        /// `∞` everywhere except the listed pairs.
        pub fn from_pairs(n: usize, pairs: &[(usize, usize, f64)]) -> Self {
            let mut m = DistanceMatrix::new_filled(n, f64::INFINITY);
            for &(i, j, d) in pairs {
                m.set(i, j, d);
            }
            m
        }

        pub fn len(&self) -> usize {
            self.n
        }

        fn index(&self, i: usize, j: usize) -> usize {
            assert!(i != j && i < self.n && j < self.n);
            let (i, j) = if i < j { (i, j) } else { (j, i) };
            i * self.n - i * (i + 1) / 2 + (j - i - 1)
        }

        pub fn get(&self, i: usize, j: usize) -> f64 {
            self.data[self.index(i, j)]
        }

        pub fn set(&mut self, i: usize, j: usize, value: f64) {
            let idx = self.index(i, j);
            self.data[idx] = value;
        }
    }

    /// Nearest-neighbour-chain HAC scanning every active slot of a dense
    /// matrix; ties go to the previous chain element, else the lowest slot.
    #[allow(clippy::needless_range_loop)] // slot indices are compared and reused across arrays
    pub fn hac(matrix: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let n = matrix.len();
        if n < 2 {
            return Dendrogram::new(n, Vec::new());
        }

        let mut dist = matrix.clone();
        let mut active = vec![true; n];
        let mut size = vec![1usize; n];
        let mut label: Vec<usize> = (0..n).collect();
        let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
        let mut chain: Vec<usize> = Vec::with_capacity(n);
        let mut next_id = n;

        for _ in 0..(n - 1) {
            if chain.len() < 2 {
                let start = (0..n).find(|&i| active[i]).expect("an active slot remains");
                chain.clear();
                chain.push(start);
            }
            loop {
                let a = *chain.last().expect("chain is non-empty");
                let prev = chain.len().checked_sub(2).map(|i| chain[i]);
                let mut best: Option<usize> = None;
                let mut best_d = f64::INFINITY;
                for j in 0..n {
                    if j == a || !active[j] {
                        continue;
                    }
                    let d = dist.get(a, j);
                    let better = match best {
                        None => true,
                        Some(b) => {
                            d < best_d || (d == best_d && Some(j) == prev && Some(b) != prev)
                        }
                    };
                    if better {
                        best = Some(j);
                        best_d = d;
                    }
                }
                let b = best.expect("at least two active slots remain");
                if Some(b) == prev {
                    chain.pop();
                    chain.pop();
                    let keep = a.min(b);
                    let drop = a.max(b);
                    let merged_size = size[a] + size[b];
                    merges.push(Merge {
                        left: label[keep],
                        right: label[drop],
                        distance: best_d,
                        size: merged_size,
                    });
                    for k in 0..n {
                        if k == keep || k == drop || !active[k] {
                            continue;
                        }
                        let d = linkage.merge_distance(
                            dist.get(keep, k),
                            dist.get(drop, k),
                            size[keep],
                            size[drop],
                        );
                        dist.set(keep, k, d);
                    }
                    active[drop] = false;
                    size[keep] = merged_size;
                    label[keep] = next_id;
                    next_id += 1;
                    break;
                }
                chain.push(b);
            }
        }

        // Stable sort by distance, remapping internal node ids.
        let m = merges.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            merges[a]
                .distance
                .partial_cmp(&merges[b].distance)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut remap = vec![0usize; m];
        for (new_pos, &old_pos) in order.iter().enumerate() {
            remap[old_pos] = n + new_pos;
        }
        let relabel = |id: usize| if id < n { id } else { remap[id - n] };
        let sorted = order
            .iter()
            .map(|&old_pos| {
                let merge = merges[old_pos];
                Merge {
                    left: relabel(merge.left),
                    right: relabel(merge.right),
                    ..merge
                }
            })
            .collect();
        Dendrogram::new(n, sorted)
    }
}

/// Distances drawn from a few tied values, so most nearest-neighbour
/// choices are ties.
const PALETTE: [f64; 7] = [0.5, 2.0 / 3.0, 0.75, 1.0, 1.5, 2.0, 3.0];

/// Asserts the sparse and dense dendrograms are identical for every
/// linkage; `Dendrogram`'s `PartialEq` compares every merge's children,
/// size and distance.
fn assert_matches_dense(n: usize, pairs: &[(usize, usize, f64)]) {
    let matrix = dense::DistanceMatrix::from_pairs(n, pairs);
    for linkage in Linkage::ALL {
        let sparse = hac(n, pairs.iter().copied(), linkage);
        let reference = dense::hac(&matrix, linkage);
        assert_eq!(sparse, reference, "{linkage:?}, n={n}, pairs={pairs:?}");
        // Bit for bit: `==` would let -0.0 pass for 0.0.
        let bits = |d: &Dendrogram| -> Vec<u64> {
            d.merges().iter().map(|m| m.distance.to_bits()).collect()
        };
        assert_eq!(bits(&sparse), bits(&reference), "{linkage:?}, n={n}");
    }
}

/// A random tie-heavy pair list: each pair present with probability
/// `density_pct`%, at a palette distance, listed in random order and
/// orientation.
fn palette_pairs(n: usize, density_pct: u32, rng: &mut StdRng) -> Vec<(usize, usize, f64)> {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_range(0..100) < density_pct {
                let d = PALETTE[rng.random_range(0..PALETTE.len())];
                pairs.push(if rng.random_bool(0.5) {
                    (i, j, d)
                } else {
                    (j, i, d)
                });
            }
        }
    }
    for k in (1..pairs.len()).rev() {
        pairs.swap(k, rng.random_range(0..=k));
    }
    pairs
}

fn events(n_items: usize, max_events: usize) -> impl Strategy<Value = Vec<WriteEvent>> {
    prop::collection::vec(
        (0..n_items, 0u64..30_000u64).prop_map(|(item, t)| WriteEvent::new(item, t)),
        0..max_events,
    )
}

#[test]
fn condensed_indexing_is_symmetric() {
    let mut m = dense::DistanceMatrix::new_filled(4, 0.0);
    let mut v = 1.0;
    for i in 0..4 {
        for j in (i + 1)..4 {
            m.set(i, j, v);
            v += 1.0;
        }
    }
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert_eq!(m.get(i, j), m.get(j, i));
        }
    }
    assert_eq!(m.get(0, 1), 1.0);
    assert_eq!(m.get(2, 3), 6.0);
}

#[test]
fn degenerate_inputs_match_the_dense_reference() {
    // No items, one item, and all-∞ matrices: every merge is at ∞.
    for n in 0..=12 {
        assert_matches_dense(n, &[]);
    }
    for &d in &PALETTE {
        assert_matches_dense(2, &[(0, 1, d)]);
        assert_matches_dense(3, &[(2, 0, d)]);
    }
    // Fully tied complete graphs.
    for n in 2..=12 {
        let all: Vec<_> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j, 1.0)))
            .collect();
        assert_matches_dense(n, &all);
    }
}

proptest! {
    /// Random sparse matrices over a tied palette, from 2% to 100% dense,
    /// up to 40 items.
    #[test]
    fn sparse_hac_equals_dense_reference_on_tied_palettes(
        n in 0usize..=40,
        density_pct in prop_oneof![2u32..=100, Just(100u32)],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            assert_matches_dense(n, &palette_pairs(n, density_pct, &mut rng));
        }
    }

    /// Random `Correlations` from random events: the pipeline's own input
    /// (`Correlations::distances`) against a dense matrix filled from the
    /// pointwise `Correlations::distance` of every pair, and the cut the
    /// pipeline serves against the dense dendrogram's cut.
    #[test]
    fn sparse_hac_equals_dense_reference_on_random_correlations(
        evs in events(24, 240),
        window in 0u64..5_000,
        threshold in prop_oneof![0.2f64..2.0, Just(2.0)],
    ) {
        let corr = Correlations::from_transactions(24, &transactions(&evs, window));
        let mut matrix = dense::DistanceMatrix::new_filled(corr.len(), f64::INFINITY);
        for a in 0..corr.len() {
            for b in (a + 1)..corr.len() {
                matrix.set(a, b, corr.distance(a, b));
            }
        }
        for linkage in Linkage::ALL {
            let reference = dense::hac(&matrix, linkage);
            prop_assert_eq!(hac(corr.len(), corr.distances(), linkage), reference.clone());
            let params = ClusterParams {
                window_ms: window,
                correlation_threshold: threshold,
                linkage,
            };
            prop_assert_eq!(
                cluster_correlations(&corr, &params),
                reference.cut_correlation(threshold)
            );
        }
    }
}
