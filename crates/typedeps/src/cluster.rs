//! The cluster partition produced by the type-dependence analysis.

use crate::UnionFind;
use mixp_float::{Precision, PrecisionConfig, VarId};
use std::fmt;

/// Identifier of one cluster (a set of variables that must share a type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub(crate) u32);

impl ClusterId {
    /// Dense index of this cluster.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `ClusterId` from a raw dense index.
    pub fn from_index(index: usize) -> Self {
        ClusterId(u32::try_from(index).expect("more than u32::MAX clusters"))
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Partition of the *tunable* variables into must-share-type clusters.
///
/// Untunable variables (literals) are not part of any cluster; they stay
/// double in every configuration, which is how Typeforge's inability to
/// transform literals manifests in the paper's Hotspot analysis.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// `cluster_of[var.index()]` — `None` for untunable variables.
    cluster_of: Vec<Option<ClusterId>>,
    /// Member variables per cluster, each sorted by id.
    members: Vec<Vec<VarId>>,
}

impl Clustering {
    /// Builds the partition from the dependence graph.
    ///
    /// `tunable[i]` says whether variable `i` may change type at all; edges
    /// merge the sets of the variables they connect.
    pub(crate) fn from_edges(tunable: &[bool], edges: &[(VarId, VarId)]) -> Self {
        let n = tunable.len();
        let mut uf = UnionFind::new(n);
        for &(a, b) in edges {
            uf.union(a.index(), b.index());
        }
        // Assign dense cluster ids to tunable roots in first-seen order.
        let mut cluster_of = vec![None; n];
        let mut members: Vec<Vec<VarId>> = Vec::new();
        let mut root_to_cluster = vec![usize::MAX; n];
        for i in 0..n {
            if !tunable[i] {
                continue;
            }
            let root = uf.find(i);
            let c = if root_to_cluster[root] == usize::MAX {
                let c = members.len();
                root_to_cluster[root] = c;
                members.push(Vec::new());
                c
            } else {
                root_to_cluster[root]
            };
            cluster_of[i] = Some(ClusterId::from_index(c));
            members[c].push(VarId::from_index(i));
        }
        Clustering {
            cluster_of,
            members,
        }
    }

    /// Number of clusters (the paper's *TC* metric).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the program has no tunable variables at all.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cluster containing `var`, or `None` if `var` is untunable.
    pub fn cluster_of(&self, var: VarId) -> Option<ClusterId> {
        self.cluster_of[var.index()]
    }

    /// The member variables of `cluster`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn members(&self, cluster: ClusterId) -> &[VarId] {
        &self.members[cluster.index()]
    }

    /// Iterates over all cluster ids.
    pub fn ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.members.len()).map(ClusterId::from_index)
    }

    /// Expands a cluster-level selection into a variable-level
    /// [`PrecisionConfig`]: every member of a selected cluster is lowered to
    /// single precision.
    ///
    /// `total_vars` is the full variable count of the program (tunable and
    /// untunable alike).
    pub fn expand(
        &self,
        total_vars: usize,
        lowered: impl IntoIterator<Item = ClusterId>,
    ) -> PrecisionConfig {
        let mut cfg = PrecisionConfig::all_double(total_vars);
        for c in lowered {
            for &v in self.members(c) {
                cfg.set(v, Precision::Single);
            }
        }
        cfg
    }

    /// Expands a full per-cluster precision assignment (`levels[i]` is the
    /// precision of cluster `i`) into a variable-level configuration.
    /// Supports the paper's `p = 3` search spaces (half/single/double).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from the cluster count.
    pub fn expand_levels(&self, total_vars: usize, levels: &[Precision]) -> PrecisionConfig {
        assert_eq!(levels.len(), self.members.len(), "one level per cluster");
        let mut cfg = PrecisionConfig::all_double(total_vars);
        for (ms, &prec) in self.members.iter().zip(levels) {
            for &v in ms {
                cfg.set(v, prec);
            }
        }
        cfg
    }

    /// Whether `cfg` assigns a uniform precision within every cluster (i.e.
    /// would compile after Typeforge's transformation).
    pub fn is_valid(&self, cfg: &PrecisionConfig) -> bool {
        self.members
            .iter()
            .all(|ms| ms.windows(2).all(|w| cfg.get(w[0]) == cfg.get(w[1])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::prop::{bools, usizes, vecs};
    use mixp_core::{prop_assert, prop_assert_eq, prop_check};

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn no_edges_yields_singletons() {
        let c = Clustering::from_edges(&[true, true, true], &[]);
        assert_eq!(c.len(), 3);
        for i in 0..3 {
            assert_eq!(c.members(c.cluster_of(v(i)).unwrap()), &[v(i)]);
        }
    }

    #[test]
    fn edges_merge_clusters() {
        let c = Clustering::from_edges(&[true, true, true, true], &[(v(0), v(2)), (v(2), v(3))]);
        assert_eq!(c.len(), 2);
        let c0 = c.cluster_of(v(0)).unwrap();
        assert_eq!(c.members(c0), &[v(0), v(2), v(3)]);
        assert_ne!(c.cluster_of(v(1)), Some(c0));
    }

    #[test]
    fn untunable_vars_have_no_cluster() {
        let c = Clustering::from_edges(&[true, false, true], &[]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.cluster_of(v(1)), None);
    }

    #[test]
    fn expand_lowers_whole_cluster() {
        let c = Clustering::from_edges(&[true, true, true], &[(v(0), v(1))]);
        let c0 = c.cluster_of(v(0)).unwrap();
        let cfg = c.expand(3, [c0]);
        assert_eq!(cfg.get(v(0)), Precision::Single);
        assert_eq!(cfg.get(v(1)), Precision::Single);
        assert_eq!(cfg.get(v(2)), Precision::Double);
    }

    #[test]
    fn expand_levels_supports_three_precisions() {
        let c = Clustering::from_edges(&[true, true, true], &[(v(0), v(1))]);
        let cfg = c.expand_levels(3, &[Precision::Half, Precision::Single]);
        assert_eq!(cfg.get(v(0)), Precision::Half);
        assert_eq!(cfg.get(v(1)), Precision::Half);
        assert_eq!(cfg.get(v(2)), Precision::Single);
        assert!(c.is_valid(&cfg));
    }

    #[test]
    #[should_panic]
    fn expand_levels_rejects_wrong_arity() {
        let c = Clustering::from_edges(&[true, true], &[]);
        c.expand_levels(2, &[Precision::Half]);
    }

    #[test]
    fn is_valid_detects_split_cluster() {
        let c = Clustering::from_edges(&[true, true], &[(v(0), v(1))]);
        let mut cfg = PrecisionConfig::all_double(2);
        assert!(c.is_valid(&cfg));
        cfg.set(v(0), Precision::Single);
        assert!(!c.is_valid(&cfg), "half-lowered cluster must not compile");
        cfg.set(v(1), Precision::Single);
        assert!(c.is_valid(&cfg));
    }

    /// expand() always produces a valid configuration, and every cluster
    /// is either fully lowered or fully double.
    #[test]
    fn expand_is_always_valid() {
        prop_check!((
            n in usizes(1..20),
            edges in vecs((usizes(0..20), usizes(0..20)), 0..15),
            selector in vecs(bools(), 20..21),
        ) => {
            let tunable = vec![true; n];
            let edges: Vec<(VarId, VarId)> =
                edges.into_iter().map(|(a, b)| (v(a % n), v(b % n))).collect();
            let c = Clustering::from_edges(&tunable, &edges);
            let lowered: Vec<ClusterId> = c
                .ids()
                .filter(|cid| selector[cid.index() % selector.len()])
                .collect();
            let cfg = c.expand(n, lowered.iter().copied());
            prop_assert!(c.is_valid(&cfg));
            for cid in c.ids() {
                let selected = lowered.contains(&cid);
                for &m in c.members(cid) {
                    prop_assert_eq!(
                        cfg.get(m) == Precision::Single,
                        selected
                    );
                }
            }
        });
    }

    /// Every tunable variable lands in exactly one cluster and the
    /// clusters partition the tunable set.
    #[test]
    fn clusters_partition_tunables() {
        prop_check!((
            n in usizes(1..20),
            untunable_mask in vecs(bools(), 20..21),
            edges in vecs((usizes(0..20), usizes(0..20)), 0..15),
        ) => {
            let tunable: Vec<bool> = (0..n).map(|i| !untunable_mask[i]).collect();
            let edges: Vec<(VarId, VarId)> =
                edges.into_iter().map(|(a, b)| (v(a % n), v(b % n))).collect();
            let c = Clustering::from_edges(&tunable, &edges);
            let mut seen = std::collections::HashSet::new();
            for cid in c.ids() {
                for &m in c.members(cid) {
                    prop_assert!(tunable[m.index()]);
                    prop_assert!(seen.insert(m), "variable in two clusters");
                    prop_assert_eq!(c.cluster_of(m), Some(cid));
                }
            }
            let tunable_count = tunable.iter().filter(|t| **t).count();
            prop_assert_eq!(seen.len(), tunable_count);
        });
    }
}
