//! Variable-granularity delta debugging — the cluster-ignorant baseline.

use crate::{finish, first_passing, SearchAlgorithm, SearchResult};
use mixp_core::{Evaluator, Granularity, PrecisionConfig, Value};
use std::collections::BTreeSet;

/// Delta-debugging over raw *variables* (DDV): the same ddmin refinement as
/// [`crate::DeltaDebug`], but ignoring cluster information — each variable
/// is toggled independently, as Precimonious-style tools that lack a
/// type-dependence analysis must do.
///
/// This is the counterfactual behind the paper's first insight (§V):
/// "applying mixed-precision search algorithms individually on variables,
/// without considering whether they map on to a valid configuration, not
/// only increases the search time but may also result in cases where the
/// search algorithm fails to converge". DDV burns evaluations on
/// configurations that split clusters (which can never pass), so comparing
/// DD and DDV on the same benchmark quantifies the value of clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct VariableDeltaDebug;

impl VariableDeltaDebug {
    /// Creates the algorithm.
    pub fn new() -> Self {
        VariableDeltaDebug
    }
}

fn split(set: &BTreeSet<usize>, n: usize) -> Vec<BTreeSet<usize>> {
    let items: Vec<usize> = set.iter().copied().collect();
    let mut chunks = Vec::with_capacity(n);
    let len = items.len();
    let base = len / n;
    let extra = len % n;
    let mut start = 0;
    for i in 0..n {
        let sz = base + usize::from(i < extra);
        if sz == 0 {
            continue;
        }
        chunks.push(items[start..start + sz].iter().copied().collect());
        start += sz;
    }
    chunks
}

impl SearchAlgorithm for VariableDeltaDebug {
    fn name(&self) -> &str {
        "DDV"
    }

    fn full_name(&self) -> &str {
        "variable-level delta-debugging"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let space = ev.space(Granularity::Variables);
        let program = ev.program().clone();
        let total = space.len();
        if total == 0 {
            return finish(ev, false);
        }
        let universe: BTreeSet<usize> = (0..total).collect();

        // Configurations that split a cluster simply fail verification
        // (they do not compile) — DDV cannot tell why. As in DD, every
        // probed `high` is a proper subset, so the lowered set is never
        // empty.
        let config_for = |high: &BTreeSet<usize>| -> PrecisionConfig {
            space.config(&program, universe.difference(high).copied())
        };

        match ev.evaluate(&config_for(&BTreeSet::new())) {
            Ok(rec) if rec.passes => return finish(ev, false),
            Ok(_) => {}
            Err(_) => return finish(ev, true),
        }

        let obs = ev.obs();
        let mut high = universe.clone();
        let mut n = 2usize;
        while high.len() >= 2 {
            let _round = obs.span(
                "ddv.round",
                &[
                    ("n", Value::U64(n as u64)),
                    ("high", Value::U64(high.len() as u64)),
                ],
            );
            let chunks = split(&high, n);
            let cfgs: Vec<PrecisionConfig> = chunks.iter().map(&config_for).collect();
            match first_passing(ev, &cfgs) {
                Ok(Some(i)) => {
                    high = chunks[i].clone();
                    n = 2;
                    continue;
                }
                Ok(None) => {}
                Err(_) => return finish(ev, true),
            }
            if n > 2 {
                let complements: Vec<BTreeSet<usize>> = chunks
                    .iter()
                    .map(|c| high.difference(c).copied().collect())
                    .collect();
                let cfgs: Vec<PrecisionConfig> = complements.iter().map(&config_for).collect();
                match first_passing(ev, &cfgs) {
                    Ok(Some(i)) => {
                        high = complements[i].clone();
                        n = (n - 1).max(2);
                        continue;
                    }
                    Ok(None) => {}
                    Err(_) => return finish(ev, true),
                }
            }
            if n < high.len() {
                n = (2 * n).min(high.len());
            } else {
                break;
            }
        }
        finish(ev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Benchmark, QualityThreshold};
    use mixp_kernels::{InnerProd, Tridiag};

    #[test]
    fn loose_threshold_still_one_evaluation() {
        // All-variables-lowered == all clusters lowered: a valid config, so
        // DDV matches DD when the whole program converts.
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = VariableDeltaDebug::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1);
    }

    #[test]
    fn ddv_wastes_evaluations_where_dd_does_not() {
        // innerprod at a strict threshold: the passing config is the
        // arrays-only cluster. DD reaches it through cluster space; DDV
        // must stumble through invalid splits.
        let k = InnerProd::small();
        let mut ev_v = Evaluator::new(&k, QualityThreshold::new(1e-8));
        let ddv = VariableDeltaDebug::new().search(&mut ev_v);
        let mut ev_c = Evaluator::new(&k, QualityThreshold::new(1e-8));
        let dd = crate::DeltaDebug::new().search(&mut ev_c);
        assert!(
            ddv.evaluated >= dd.evaluated,
            "DDV {} must not beat DD {}",
            ddv.evaluated,
            dd.evaluated
        );
        // DD finds the arrays-only configuration…
        assert!(dd.best.is_some());
    }

    #[test]
    fn any_ddv_result_is_a_valid_configuration() {
        let k = InnerProd::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = VariableDeltaDebug::new().search(&mut ev);
        if let Some(best) = r.best {
            assert!(k.program().validate(&best.config).is_ok());
        }
    }
}
