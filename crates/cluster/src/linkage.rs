//! Linkage criteria for hierarchical agglomerative clustering.

/// How the distance between two clusters is derived from item distances.
///
/// Ocasta uses [`Linkage::Complete`] (the paper's "maximum linkage
/// criterion", which prior work found to outperform the alternatives for
/// software clustering). [`Linkage::Single`] and [`Linkage::Average`] are
/// the textbook alternatives; [`crate::hac`] and its reference tests
/// cover all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Maximum distance between any two items across the clusters
    /// (the paper's default).
    #[default]
    Complete,
    /// Minimum distance between any two items across the clusters.
    Single,
    /// Unweighted average of pairwise distances (UPGMA).
    Average,
}

impl Linkage {
    /// Lance–Williams update: the distance from cluster `k` to the merge of
    /// clusters `i` and `j`, given `d(i,k)`, `d(j,k)` and the cluster sizes.
    #[inline]
    pub fn merge_distance(self, d_ik: f64, d_jk: f64, size_i: usize, size_j: usize) -> f64 {
        match self {
            Linkage::Complete => d_ik.max(d_jk),
            Linkage::Single => d_ik.min(d_jk),
            Linkage::Average => {
                let (ni, nj) = (size_i as f64, size_j as f64);
                // Both arms infinite ⇒ infinite; one infinite arm keeps the
                // average infinite, which is the correct "still unrelated to
                // that side" semantics for sparse correlation graphs.
                (ni * d_ik + nj * d_jk) / (ni + nj)
            }
        }
    }

    /// All supported criteria (for sweeps).
    pub const ALL: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_takes_max() {
        assert_eq!(Linkage::Complete.merge_distance(1.0, 3.0, 1, 1), 3.0);
        assert!(Linkage::Complete
            .merge_distance(1.0, f64::INFINITY, 1, 1)
            .is_infinite());
    }

    #[test]
    fn single_takes_min() {
        assert_eq!(Linkage::Single.merge_distance(1.0, 3.0, 1, 1), 1.0);
        assert_eq!(
            Linkage::Single.merge_distance(1.0, f64::INFINITY, 1, 1),
            1.0
        );
    }

    #[test]
    fn average_weights_by_size() {
        // sizes 1 and 3: (1*2 + 3*6) / 4 = 5
        assert_eq!(Linkage::Average.merge_distance(2.0, 6.0, 1, 3), 5.0);
        assert!(Linkage::Average
            .merge_distance(2.0, f64::INFINITY, 1, 1)
            .is_infinite());
    }

    #[test]
    fn default_is_complete() {
        assert_eq!(Linkage::default(), Linkage::Complete);
    }
}
