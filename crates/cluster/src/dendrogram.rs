//! Cluster-merge hierarchies and threshold cuts.
//!
//! The open-source clustering library the paper builds on returns a full
//! hierarchy; the authors "added functionality to prune the results ...
//! according to a specified threshold" (§IV-C). [`Dendrogram::cut`] is that
//! pruning step.

/// One agglomerative merge in a dendrogram.
///
/// Node ids: `0..n` are the original items (leaves); the `k`-th recorded
/// merge creates node `n + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Node id of one merged child.
    pub left: usize,
    /// Node id of the other merged child.
    pub right: usize,
    /// Cluster distance at which the merge happened (by the chosen linkage).
    pub distance: f64,
    /// Number of leaves under the new node.
    pub size: usize,
}

/// The full merge hierarchy produced by agglomerative clustering over `n`
/// items.
///
/// Merges are recorded in the order the algorithm performed them; for the
/// monotone linkages this crate implements (complete, single, average), every
/// merge's distance is at least that of both its children, so cutting at a
/// threshold yields a well-defined flat partition.
///
/// # Examples
///
/// ```
/// use ocasta_cluster::{hac, Linkage};
///
/// // Items 0 and 1 at distance 0.5; item 2 unrelated (distance ∞).
/// let dendro = hac(3, [(0, 1, 0.5)], Linkage::Complete);
/// let clusters = dendro.cut(0.5);
/// assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_items: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Creates a dendrogram from recorded merges.
    ///
    /// # Panics
    ///
    /// Panics if more than `n_items - 1` merges are supplied.
    pub fn new(n_items: usize, merges: Vec<Merge>) -> Self {
        assert!(
            merges.len() < n_items.max(1),
            "a dendrogram over {n_items} items admits at most {} merges",
            n_items.saturating_sub(1),
        );
        Dendrogram { n_items, merges }
    }

    /// Number of original items (leaves).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The recorded merges, in execution order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the hierarchy at `max_distance`: applies every merge whose
    /// distance is `<= max_distance` and returns the resulting flat
    /// partition.
    ///
    /// Each cluster is a sorted list of item indices; clusters are ordered by
    /// their smallest member. Items that never merged below the threshold
    /// appear as singletons, so the result is always a partition of
    /// `0..n_items`.
    pub fn cut(&self, max_distance: f64) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.n_items + self.merges.len());
        for (k, merge) in self.merges.iter().enumerate() {
            let node = self.n_items + k;
            // Always link the tree structure so later merges can reference
            // this node; only *accepted* merges link their leaf sets.
            if merge.distance <= max_distance {
                uf.union(merge.left, merge.right);
                uf.union(merge.left, node);
            } else {
                // Point the internal node at one child so ancestors that
                // somehow pass the threshold (impossible for monotone
                // linkages, but kept safe) don't panic.
                uf.attach(node, merge.left);
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for item in 0..self.n_items {
            groups.entry(uf.find(item)).or_default().push(item);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// Cuts at a *correlation* threshold (the paper's user-facing knob):
    /// correlation `c` corresponds to distance `1/c`.
    ///
    /// The paper's default threshold of 2 (only keys always modified
    /// together) is `cut_correlation(2.0)`; lowering it to 1 merges keys
    /// modified together at least "most of the time".
    ///
    /// # Panics
    ///
    /// Panics if `min_correlation` is not positive.
    pub fn cut_correlation(&self, min_correlation: f64) -> Vec<Vec<usize>> {
        assert!(
            min_correlation > 0.0,
            "correlation threshold must be positive, got {min_correlation}"
        );
        self.cut(1.0 / min_correlation)
    }

    /// Serialises the hierarchy in Newick tree format (with merge distances
    /// as branch annotations), for inspection in standard dendrogram
    /// viewers. Leaf `i` is labelled with `labels[i]` when provided, else
    /// its index.
    ///
    /// # Examples
    ///
    /// ```
    /// use ocasta_cluster::{hac, Linkage};
    ///
    /// let dendro = hac(3, [(0, 1, 0.5), (0, 2, 2.0), (1, 2, 2.0)], Linkage::Complete);
    /// let newick = dendro.to_newick(Some(&["a", "b", "c"]));
    /// assert!(newick.starts_with('(') && newick.ends_with(';'));
    /// assert!(newick.contains("a") && newick.contains("c"));
    /// ```
    pub fn to_newick(&self, labels: Option<&[&str]>) -> String {
        fn node(id: usize, n: usize, merges: &[Merge], labels: Option<&[&str]>, out: &mut String) {
            if id < n {
                match labels.and_then(|ls| ls.get(id)) {
                    Some(label) => out.push_str(&label.replace([',', '(', ')', ';', ':'], "_")),
                    None => out.push_str(&id.to_string()),
                }
            } else {
                let merge = &merges[id - n];
                out.push('(');
                node(merge.left, n, merges, labels, out);
                out.push(',');
                node(merge.right, n, merges, labels, out);
                out.push(')');
                if merge.distance.is_finite() {
                    out.push_str(&format!(":{:.4}", merge.distance));
                }
            }
        }
        let mut out = String::new();
        match self.merges.len() {
            0 => {
                // A forest of leaves (or nothing): emit a flat tree.
                out.push('(');
                for i in 0..self.n_items {
                    if i > 0 {
                        out.push(',');
                    }
                    node(i, self.n_items, &self.merges, labels, &mut out);
                }
                out.push(')');
            }
            m => node(
                self.n_items + m - 1,
                self.n_items,
                &self.merges,
                labels,
                &mut out,
            ),
        }
        out.push(';');
        out
    }

    /// `true` if merge distances never decrease from child to parent
    /// (the monotonicity property threshold cutting relies on).
    pub fn is_monotone(&self) -> bool {
        let mut node_distance = vec![0.0f64; self.n_items + self.merges.len()];
        for (k, merge) in self.merges.iter().enumerate() {
            let child_max = node_distance[merge.left].max(node_distance[merge.right]);
            // NaN-safe: any NaN fails monotonicity.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(merge.distance >= child_max) {
                return false;
            }
            node_distance[self.n_items + k] = merge.distance;
        }
        true
    }
}

/// Minimal union-find with path halving.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Makes `node`'s root point at `target`'s root without merging any
    /// other set into it (used for rejected merges' internal nodes).
    fn attach(&mut self, node: usize, target: usize) {
        let rn = self.find(node);
        let rt = self.find(target);
        if rn != rt {
            self.parent[rn] = rt;
        }
    }
}

/// Summary statistics over a flat partition (used by Figure 3's sweeps).
///
/// # Examples
///
/// ```
/// use ocasta_cluster::PartitionStats;
///
/// let clusters = vec![vec![0, 1, 2], vec![3], vec![4, 5]];
/// let stats = PartitionStats::from_partition(&clusters);
/// assert_eq!(stats.clusters, 3);
/// assert_eq!(stats.multi_clusters, 2);
/// assert_eq!(stats.mean_multi_cluster_size(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PartitionStats {
    /// Total clusters, including singletons.
    pub clusters: usize,
    /// Clusters with more than one item (the paper's `#Clusters` numerator
    /// population in Table II).
    pub multi_clusters: usize,
    /// Total items covered.
    pub items: usize,
    /// Items inside multi-item clusters.
    pub items_in_multi: usize,
    /// Size of the largest cluster.
    pub max_cluster_size: usize,
}

impl PartitionStats {
    /// Computes statistics for a partition.
    pub fn from_partition(partition: &[Vec<usize>]) -> Self {
        let mut stats = PartitionStats::default();
        for cluster in partition {
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

    /// Mean size of multi-item clusters (Figure 3's y-axis), or 0 if there
    /// are none.
    pub fn mean_multi_cluster_size(&self) -> f64 {
        if self.multi_clusters == 0 {
            0.0
        } else {
            self.items_in_multi as f64 / self.multi_clusters as f64
        }
    }

    /// Mean size over all clusters, singletons included.
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters == 0 {
            0.0
        } else {
            self.items as f64 / self.clusters as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_dendrogram() -> Dendrogram {
        // Items 0..4; merge (0,1)@0.2 -> node 4; (4,2)@0.5 -> node 5;
        // (5,3)@1.0 -> node 6.
        Dendrogram::new(
            4,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 0.2,
                    size: 2,
                },
                Merge {
                    left: 4,
                    right: 2,
                    distance: 0.5,
                    size: 3,
                },
                Merge {
                    left: 5,
                    right: 3,
                    distance: 1.0,
                    size: 4,
                },
            ],
        )
    }

    #[test]
    fn cut_produces_partitions_at_each_level() {
        let d = chain_dendrogram();
        assert_eq!(d.cut(0.1), vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(d.cut(0.2), vec![vec![0, 1], vec![2], vec![3]]);
        assert_eq!(d.cut(0.5), vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(d.cut(2.0), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn cut_correlation_inverts_threshold() {
        let d = chain_dendrogram();
        // correlation 2 ⇒ distance 0.5
        assert_eq!(d.cut_correlation(2.0), d.cut(0.5));
        assert_eq!(d.cut_correlation(1.0), d.cut(1.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn cut_correlation_rejects_zero() {
        chain_dendrogram().cut_correlation(0.0);
    }

    #[test]
    fn monotonicity_detection() {
        assert!(chain_dendrogram().is_monotone());
        let bad = Dendrogram::new(
            3,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    left: 3,
                    right: 2,
                    distance: 0.5,
                    size: 3,
                },
            ],
        );
        assert!(!bad.is_monotone());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_merges_rejected() {
        Dendrogram::new(
            2,
            vec![
                Merge {
                    left: 0,
                    right: 1,
                    distance: 0.1,
                    size: 2,
                },
                Merge {
                    left: 2,
                    right: 0,
                    distance: 0.2,
                    size: 2,
                },
            ],
        );
    }

    #[test]
    fn newick_export_shape() {
        let d = chain_dendrogram();
        let newick = d.to_newick(None);
        assert_eq!(newick, "(((0,1):0.2000,2):0.5000,3):1.0000;");
        let labelled = d.to_newick(Some(&["max", "item,1", "item2", "noise"]));
        assert!(
            labelled.contains("item_1"),
            "separators sanitised: {labelled}"
        );
        // No merges: flat forest form.
        let flat = Dendrogram::new(3, vec![]);
        assert_eq!(flat.to_newick(None), "(0,1,2);");
    }

    #[test]
    fn partition_stats() {
        let stats = PartitionStats::from_partition(&[vec![0, 1], vec![2], vec![3, 4, 5]]);
        assert_eq!(stats.clusters, 3);
        assert_eq!(stats.multi_clusters, 2);
        assert_eq!(stats.items, 6);
        assert_eq!(stats.items_in_multi, 5);
        assert_eq!(stats.max_cluster_size, 3);
        assert_eq!(stats.mean_multi_cluster_size(), 2.5);
        assert_eq!(stats.mean_cluster_size(), 2.0);
        assert_eq!(PartitionStats::default().mean_multi_cluster_size(), 0.0);
    }
}
