//! Compositional search.

use crate::{batch_passes, finish, SearchAlgorithm, SearchResult};
use mixp_core::{Evaluator, Granularity, PrecisionConfig, Value};
use std::collections::BTreeSet;

/// Compositional search (CM): replace each cluster individually, then
/// repeatedly combine passing configurations until no compositions are left
/// (§II-B).
///
/// The closure over compositions makes this strategy "as slow as the
/// combinational strategy when many variables can be replaced" — on
/// cluster-rich applications (Blackscholes has 50) it exhausts its budget
/// and reports DNF, reproducing the grey boxes of Table V.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compositional;

impl Compositional {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Compositional
    }
}

impl SearchAlgorithm for Compositional {
    fn name(&self) -> &str {
        "CM"
    }

    fn full_name(&self) -> &str {
        "compositional"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let space = ev.space(Granularity::Clusters);
        let program = ev.program().clone();
        let n = space.len();
        if n == 0 {
            return finish(ev, false);
        }

        let obs = ev.obs();

        // Phase 1: every unit individually — one independent batch, since
        // no trial depends on another's outcome.
        let units = obs.span("cm.units", &[("units", Value::U64(n as u64))]);
        let unit_cfgs: Vec<PrecisionConfig> = (0..n).map(|u| space.config(&program, [u])).collect();
        let mut passing: Vec<BTreeSet<usize>> = Vec::new();
        match batch_passes(ev, &unit_cfgs) {
            Ok(flags) => {
                for (u, passed) in flags.into_iter().enumerate() {
                    if passed {
                        passing.push(BTreeSet::from([u]));
                    }
                }
            }
            Err(_) => return finish(ev, true),
        }
        units.end_with(&[("passing", Value::U64(passing.len() as u64))]);

        // Phase 2: compose pairs of passing sets (unions) until closure.
        // `seen` caps re-deriving identical unions. Each wave's candidate
        // list depends only on the previous wave (`passing` is extended
        // after the wave), so the whole wave is one independent batch.
        let mut seen: BTreeSet<BTreeSet<usize>> = passing.iter().cloned().collect();
        let mut frontier = passing.clone();
        while !frontier.is_empty() {
            let mut candidates: Vec<BTreeSet<usize>> = Vec::new();
            for f in &frontier {
                for p in &passing {
                    let union: BTreeSet<usize> = f.union(p).copied().collect();
                    if union.len() == f.len() || seen.contains(&union) {
                        continue;
                    }
                    seen.insert(union.clone());
                    candidates.push(union);
                }
            }
            let _wave = obs.span(
                "cm.wave",
                &[("candidates", Value::U64(candidates.len() as u64))],
            );
            let cfgs: Vec<PrecisionConfig> = candidates
                .iter()
                .map(|u| space.config(&program, u.iter().copied()))
                .collect();
            let flags = match batch_passes(ev, &cfgs) {
                Ok(f) => f,
                Err(_) => return finish(ev, true),
            };
            let next: Vec<BTreeSet<usize>> = candidates
                .into_iter()
                .zip(flags)
                .filter_map(|(u, passed)| passed.then_some(u))
                .collect();
            passing.extend(next.iter().cloned());
            frontier = next;
        }
        finish(ev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{EvaluatorBuilder, QualityThreshold};
    use mixp_kernels::{Eos, Hydro1d, Tridiag};

    #[test]
    fn single_cluster_kernel_is_one_evaluation() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Compositional::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1);
        assert!(r.best.is_some());
    }

    #[test]
    fn two_clusters_compose_when_both_pass() {
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Compositional::new().search(&mut ev);
        assert!(!r.dnf);
        // 2 singles + 1 composition.
        assert_eq!(r.evaluated, 3);
    }

    #[test]
    fn finds_a_passing_configuration() {
        let k = Hydro1d::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Compositional::new().search(&mut ev);
        assert!(r.best.is_some());
        assert!(r.best.unwrap().passes);
    }

    #[test]
    fn tiny_budget_dnfs() {
        let k = Eos::small();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .budget(1)
            .build(&k);
        let r = Compositional::new().search(&mut ev);
        assert!(r.dnf);
    }
}
