//! Hierarchical agglomerative clustering (nearest-neighbor-chain algorithm)
//! over a sparse distance graph.

use std::collections::BTreeSet;

use crate::dendrogram::{Dendrogram, Merge};
use crate::linkage::Linkage;

/// One slot's neighbour row: `(slot, distance)` for every active slot at a
/// finite distance, sorted by slot.
type Row = Vec<(usize, f64)>;

/// Runs hierarchical agglomerative clustering over a sparse distance graph.
///
/// `pairs` lists the finite distances as `(a, b, distance)`, each unordered
/// pair at most once; every pair of items it leaves out is at distance `∞`
/// (for correlation clustering: never co-modified). Listing a pair at
/// `f64::INFINITY` is the same as leaving it out.
///
/// Uses the nearest-neighbor-chain algorithm, which is exact for the
/// *reducible* linkage criteria this crate offers (complete, single,
/// average). Each slot keeps a row of its finite-distance neighbours only,
/// so no `n × n` matrix is ever built: time is `O(n log n)` plus the rows
/// the chain scans and the merges rewrite, and memory is `O(n + pairs)`.
/// That suits sparse graphs such as co-modification correlations; when
/// most pairs are finite, every merge edits most rows and the cost grows
/// towards `O(n³)`, well above a dense scan's `O(n²)`.
/// Pairs at infinite distance still merge — at distance `∞` — so the
/// result is always a full hierarchy, merge for merge the one a dense
/// distance matrix with `∞` in the missing cells produces;
/// [`Dendrogram::cut`] at any finite threshold keeps unrelated items apart.
///
/// # Panics
///
/// Panics if a pair names an item `>= n_items`, pairs an item with itself,
/// is listed twice, or has a distance that is negative or NaN.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::{hac, Linkage};
///
/// // Two tight pairs, loosely related to each other.
/// let pairs = [
///     (0, 1, 0.5), (2, 3, 0.6),
///     (0, 2, 10.0), (0, 3, 10.0), (1, 2, 10.0), (1, 3, 10.0),
/// ];
/// let dendro = hac(4, pairs, Linkage::Complete);
/// assert_eq!(dendro.cut(1.0), vec![vec![0, 1], vec![2, 3]]);
/// assert_eq!(dendro.cut(10.0).len(), 1);
///
/// // Without the loose links the two pairs only join at infinity.
/// let dendro = hac(4, [(0, 1, 0.5), (2, 3, 0.6)], Linkage::Complete);
/// assert_eq!(dendro.cut(1e9).len(), 2);
/// assert!(dendro.merges()[2].distance.is_infinite());
/// ```
pub fn hac<I>(n_items: usize, pairs: I, linkage: Linkage) -> Dendrogram
where
    I: IntoIterator<Item = (usize, usize, f64)>,
{
    let n = n_items;
    let mut rows: Vec<Row> = vec![Vec::new(); n];
    for (a, b, d) in pairs {
        assert!(a < n && b < n, "pair ({a}, {b}) out of range ({n} items)");
        assert!(a != b, "item {a} paired with itself");
        assert!(
            d >= 0.0,
            "distance of ({a}, {b}) must be non-negative, got {d}"
        );
        if d != f64::INFINITY {
            rows[a].push((b, d));
            rows[b].push((a, d));
        }
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|&(slot, _)| slot);
        assert!(
            row.windows(2).all(|w| w[0].0 != w[1].0),
            "a pair is listed twice"
        );
    }
    if n < 2 {
        return Dendrogram::new(n, Vec::new());
    }

    let mut active: BTreeSet<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    // `label[slot]` is the dendrogram node id currently living in `slot`.
    let mut label: Vec<usize> = (0..n).collect();
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut next_id = n;

    for _ in 0..(n - 1) {
        if chain.len() < 2 {
            let start = *active.first().expect("an active slot remains");
            chain.clear();
            chain.push(start);
        }
        loop {
            debug_assert!(chain.len() <= active.len(), "the chain revisited a slot");
            let a = *chain.last().expect("chain is non-empty");
            let prev = chain.len().checked_sub(2).map(|i| chain[i]);
            let (b, d) = nearest(&rows[a], prev).unwrap_or_else(|| {
                // No finite neighbour: every active slot is at ∞, so the
                // tie goes to the previous chain element, else to the
                // lowest active slot. (A previous element reached a over
                // ∞, so it had no previous element of its own: it is the
                // chain's start, itself the lowest active slot.)
                let fallback = prev.or_else(|| active.iter().copied().find(|&j| j != a));
                (
                    fallback.expect("at least two active slots remain"),
                    f64::INFINITY,
                )
            });
            if Some(b) == prev {
                // Reciprocal nearest neighbours: merge slots a and b.
                chain.pop();
                chain.pop();
                let keep = a.min(b);
                let drop = a.max(b);
                let merged_size = size[keep] + size[drop];
                merges.push(Merge {
                    left: label[keep],
                    right: label[drop],
                    distance: d,
                    size: merged_size,
                });
                merge_rows(&mut rows, keep, drop, linkage, size[keep], size[drop]);
                active.remove(&drop);
                size[keep] = merged_size;
                label[keep] = next_id;
                next_id += 1;
                break;
            }
            chain.push(b);
        }
    }

    // NN-chain can emit merges out of global distance order while still
    // producing the correct hierarchy; sort stably so the dendrogram is
    // monotone, remapping node ids to the new merge order.
    sort_merges(n, &mut merges);
    Dendrogram::new(n, merges)
}

/// The nearest finite neighbour in `row`, or `None` if the row is empty.
///
/// Ties go to `prev` (the previous chain element, which the algorithm needs
/// to terminate), else to the lowest slot.
fn nearest(row: &[(usize, f64)], prev: Option<usize>) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &(j, d) in row {
        let better = match best {
            None => true,
            Some((b, best_d)) => {
                d < best_d || (d == best_d && Some(b) != prev && (Some(j) == prev || j < b))
            }
        };
        if better {
            best = Some((j, d));
        }
    }
    best
}

/// Folds slot `drop` into slot `keep`: every slot `k` in either row gets
/// the linkage distance to the merged cluster — `∞` standing in for a
/// missing entry — which is stored only when finite, and loses its entry
/// for `drop`.
fn merge_rows(
    rows: &mut [Row],
    keep: usize,
    drop: usize,
    linkage: Linkage,
    size_keep: usize,
    size_drop: usize,
) {
    let keep_row = std::mem::take(&mut rows[keep]);
    let drop_row = std::mem::take(&mut rows[drop]);
    let mut merged: Row = Vec::with_capacity(keep_row.len().max(drop_row.len()));
    let (mut i, mut j) = (0, 0);
    loop {
        let (k, d_keep, d_drop) = match (keep_row.get(i), drop_row.get(j)) {
            (Some(&(ki, di)), Some(&(kj, dj))) if ki == kj => {
                i += 1;
                j += 1;
                (ki, di, dj)
            }
            (Some(&(ki, di)), Some(&(kj, _))) if ki < kj => {
                i += 1;
                (ki, di, f64::INFINITY)
            }
            (Some(&(ki, di)), None) => {
                i += 1;
                (ki, di, f64::INFINITY)
            }
            (_, Some(&(kj, dj))) => {
                j += 1;
                (kj, f64::INFINITY, dj)
            }
            (None, None) => break,
        };
        if k == keep || k == drop {
            continue;
        }
        let d = linkage.merge_distance(d_keep, d_drop, size_keep, size_drop);
        let row = &mut rows[k];
        if let Ok(pos) = row.binary_search_by_key(&drop, |&(slot, _)| slot) {
            row.remove(pos);
        }
        match row.binary_search_by_key(&keep, |&(slot, _)| slot) {
            Ok(pos) if d == f64::INFINITY => {
                row.remove(pos);
            }
            Ok(pos) => row[pos].1 = d,
            Err(pos) if d != f64::INFINITY => row.insert(pos, (keep, d)),
            Err(_) => {}
        }
        if d != f64::INFINITY {
            merged.push((k, d));
        }
    }
    rows[keep] = merged;
}

/// Stable-sorts merges by distance and rewrites internal node ids to match
/// the new order.
fn sort_merges(n_items: usize, merges: &mut Vec<Merge>) {
    let m = merges.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| {
        merges[a]
            .distance
            .partial_cmp(&merges[b].distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // old merge index -> new node id
    let mut remap = vec![0usize; m];
    for (new_pos, &old_pos) in order.iter().enumerate() {
        remap[old_pos] = n_items + new_pos;
    }
    let relabel = |id: usize| {
        if id < n_items {
            id
        } else {
            remap[id - n_items]
        }
    };
    let mut sorted = Vec::with_capacity(m);
    for &old_pos in &order {
        let merge = merges[old_pos];
        sorted.push(Merge {
            left: relabel(merge.left),
            right: relabel(merge.right),
            distance: merge.distance,
            size: merge.size,
        });
    }
    *merges = sorted;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sizes() {
        assert_eq!(hac(0, [], Linkage::Complete).merges().len(), 0);
        assert_eq!(hac(1, [], Linkage::Complete).merges().len(), 0);
        let d = hac(2, [(0, 1, 0.4)], Linkage::Complete);
        assert_eq!(d.merges().len(), 1);
        assert_eq!(d.cut(0.4), vec![vec![0, 1]]);
    }

    #[test]
    fn complete_linkage_separates_loose_chains() {
        // 0-1 close, 1-2 close, but 0-2 far: complete linkage must not put
        // all three together below 0.9.
        let m = [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.9)];
        let dendro = hac(3, m, Linkage::Complete);
        assert_eq!(dendro.cut(0.5), vec![vec![0, 1], vec![2]]);
        // Single linkage chains them.
        let dendro_single = hac(3, m, Linkage::Single);
        assert_eq!(dendro_single.cut(0.5), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dendrogram_is_monotone_for_all_linkages() {
        let m = [
            (0, 1, 0.3),
            (0, 2, 0.7),
            (1, 2, 0.4),
            (2, 3, 0.2),
            (3, 4, 0.9),
            (0, 4, 1.5),
        ];
        for linkage in Linkage::ALL {
            let d = hac(5, m, linkage);
            assert!(d.is_monotone(), "{linkage:?} produced non-monotone merges");
            assert_eq!(d.merges().len(), 4);
        }
    }

    #[test]
    fn infinite_distances_never_cluster_below_finite_threshold() {
        let m = [(0, 1, 0.5), (2, 3, 0.5)];
        let dendro = hac(4, m, Linkage::Complete);
        let clusters = dendro.cut(1_000.0);
        assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
        // The full hierarchy still exists (merged at infinity).
        assert_eq!(dendro.merges().len(), 3);
        assert!(dendro.merges()[2].distance.is_infinite());
    }

    #[test]
    fn matches_bruteforce_on_small_inputs() {
        // Exhaustive check against a naive O(n³) implementation.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let n = 2 + (trial % 7);
            let mut m = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    // Distinct distances avoid tie ambiguity between the two
                    // algorithms.
                    m.push((i, j, rng.random_range(1..100_000) as f64 / 100.0));
                }
            }
            let fast = hac(n, m.iter().copied(), Linkage::Complete);
            let slow = naive_hac(n, &m, Linkage::Complete);
            let cuts = [0.5, 5.0, 50.0, 500.0];
            for &t in &cuts {
                assert_eq!(fast.cut(t), slow.cut(t), "n={n} threshold={t}");
            }
        }
    }

    #[test]
    fn infinite_pairs_are_pairs_left_out() {
        let infinite = hac(3, [(0, 1, 0.5), (1, 2, f64::INFINITY)], Linkage::Complete);
        assert_eq!(infinite, hac(3, [(0, 1, 0.5)], Linkage::Complete));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn pairs_must_not_repeat() {
        hac(3, [(0, 1, 0.5), (1, 0, 0.5)], Linkage::Complete);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pairs_must_name_items_in_range() {
        hac(2, [(0, 2, 0.5)], Linkage::Complete);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_distances_are_rejected() {
        hac(2, [(0, 1, f64::NAN)], Linkage::Complete);
    }

    /// Naive HAC: repeatedly merge the globally closest pair.
    #[allow(clippy::needless_range_loop)]
    fn naive_hac(n: usize, pairs: &[(usize, usize, f64)], linkage: Linkage) -> Dendrogram {
        let mut dist = vec![vec![f64::INFINITY; n]; n];
        for &(i, j, d) in pairs {
            dist[i][j] = d;
            dist[j][i] = d;
        }
        let mut active: Vec<bool> = vec![true; n];
        let mut size = vec![1usize; n];
        let mut label: Vec<usize> = (0..n).collect();
        let mut merges = Vec::new();
        let mut next_id = n;
        for _ in 0..n.saturating_sub(1) {
            let mut best = (0, 0, f64::INFINITY);
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !active[j] {
                        continue;
                    }
                    if dist[i][j] < best.2 {
                        best = (i, j, dist[i][j]);
                    }
                }
            }
            let (a, b, d) = best;
            merges.push(Merge {
                left: label[a],
                right: label[b],
                distance: d,
                size: size[a] + size[b],
            });
            for k in 0..n {
                if k == a || k == b || !active[k] {
                    continue;
                }
                let nd = linkage.merge_distance(dist[a][k], dist[b][k], size[a], size[b]);
                dist[a][k] = nd;
                dist[k][a] = nd;
            }
            active[b] = false;
            size[a] += size[b];
            label[a] = next_id;
            next_id += 1;
        }
        Dendrogram::new(n, merges)
    }
}
