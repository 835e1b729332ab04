//! Search spaces: the units a search algorithm toggles.

use mixp_float::PrecisionConfig;
use mixp_float::VarId;
use mixp_typedeps::{ClusterId, ProgramModel};
use std::fmt;

/// The granularity a search algorithm operates at.
///
/// Per the paper (§IV-A), combinational, delta-debugging and the genetic
/// algorithm operate on Typeforge *clusters*, while compositional and the
/// two hierarchical strategies operate on individual *variables* (and may
/// therefore generate configurations that do not compile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One unit per tunable variable.
    Variables,
    /// One unit per type-dependence cluster.
    Clusters,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Granularity::Variables => "variables",
            Granularity::Clusters => "clusters",
        })
    }
}

/// Index of one toggleable unit within a [`SearchSpace`].
pub type UnitId = usize;

/// The set of units a search algorithm manipulates for one benchmark, and
/// the mapping from unit selections to variable-level configurations.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    granularity: Granularity,
    /// For `Variables`: the tunable vars. For `Clusters`: unused.
    vars: Vec<VarId>,
    /// For `Clusters`: the cluster ids.
    clusters: Vec<ClusterId>,
    total_vars: usize,
}

impl SearchSpace {
    /// Builds the search space of `program` at the given granularity.
    pub fn new(program: &ProgramModel, granularity: Granularity) -> Self {
        SearchSpace {
            granularity,
            vars: program.tunable_vars(),
            clusters: program.clustering().ids().collect(),
            total_vars: program.var_count(),
        }
    }

    /// The granularity of this space.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of toggleable units (the paper's TV or TC, depending on
    /// granularity).
    pub fn len(&self) -> usize {
        match self.granularity {
            Granularity::Variables => self.vars.len(),
            Granularity::Clusters => self.clusters.len(),
        }
    }

    /// Whether the space has no units at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands a unit selection into a variable-level configuration.
    ///
    /// `lowered` lists the units to lower to single precision; all other
    /// units (and untunable locations) stay double.
    ///
    /// # Panics
    ///
    /// Panics if any unit id is out of range.
    pub fn config(
        &self,
        program: &ProgramModel,
        lowered: impl IntoIterator<Item = UnitId>,
    ) -> PrecisionConfig {
        match self.granularity {
            Granularity::Variables => PrecisionConfig::from_lowered(
                self.total_vars,
                lowered.into_iter().map(|u| self.vars[u]),
            ),
            Granularity::Clusters => {
                program.config_from_clusters(lowered.into_iter().map(|u| self.clusters[u]))
            }
        }
    }

    /// Expands a boolean mask (one entry per unit) into a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.len()`.
    pub fn config_from_mask(&self, program: &ProgramModel, mask: &[bool]) -> PrecisionConfig {
        assert_eq!(mask.len(), self.len(), "mask must cover every unit");
        self.config(
            program,
            mask.iter()
                .enumerate()
                .filter(|(_, on)| **on)
                .map(|(i, _)| i),
        )
    }

    /// The variable ids behind unit `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn unit_vars(&self, program: &ProgramModel, u: UnitId) -> Vec<VarId> {
        match self.granularity {
            Granularity::Variables => vec![self.vars[u]],
            Granularity::Clusters => program.clustering().members(self.clusters[u]).to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_float::Precision;
    use mixp_typedeps::ProgramBuilder;

    fn model() -> ProgramModel {
        let mut b = ProgramBuilder::new("t");
        let m = b.module("main");
        let f = b.function("f", m);
        let a = b.array(f, "a");
        let bb = b.array(f, "b");
        let _c = b.scalar(f, "c");
        b.literal(f, "1.0");
        b.bind(a, bb);
        b.build()
    }

    #[test]
    fn variable_space_counts_tunables() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Variables);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn cluster_space_counts_clusters() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        assert_eq!(s.len(), 2); // {a, b} and {c}
    }

    #[test]
    fn cluster_config_is_always_valid() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        for mask in [[true, false], [false, true], [true, true]] {
            let cfg = s.config_from_mask(&pm, &mask);
            assert!(pm.validate(&cfg).is_ok());
        }
    }

    #[test]
    fn variable_config_can_split_clusters() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Variables);
        // Lower only "a" — its cluster partner "b" stays double.
        let cfg = s.config(&pm, [0]);
        assert!(pm.validate(&cfg).is_err());
    }

    #[test]
    fn unit_vars_expands_clusters() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        let a = pm.registry().find("a").unwrap();
        let b = pm.registry().find("b").unwrap();
        assert_eq!(s.unit_vars(&pm, 0), vec![a, b]);
    }

    #[test]
    fn empty_selection_is_all_double() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        let cfg = s.config(&pm, []);
        assert!(cfg.is_all_double());
    }

    #[test]
    fn full_mask_lowers_all_tunables() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        let cfg = s.config_from_mask(&pm, &[true, true]);
        let lit = pm.registry().find("1.0").unwrap();
        assert_eq!(cfg.get(lit), Precision::Double);
        assert_eq!(cfg.lowered_count(), 3);
    }

    #[test]
    #[should_panic]
    fn mask_length_mismatch_panics() {
        let pm = model();
        let s = SearchSpace::new(&pm, Granularity::Clusters);
        s.config_from_mask(&pm, &[true]);
    }
}
