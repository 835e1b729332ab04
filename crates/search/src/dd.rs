//! Delta-debugging search.

use crate::{finish, first_passing, SearchAlgorithm, SearchResult};
use mixp_core::{Evaluator, Granularity, PrecisionConfig, Value};
use std::collections::BTreeSet;

/// Delta-debugging search (DD): a modified binary search over the cluster
/// list, after Precimonious (§II-B).
///
/// The search looks for the *minimal set of clusters that must stay in
/// double precision* for verification to pass — equivalently, the maximal
/// set that can be lowered. It starts from "lower everything"; if that
/// passes, it terminates immediately (1 evaluation — the common case for
/// the kernels at loose thresholds). Otherwise it runs the classic ddmin
/// subset/complement refinement until it reaches a local minimum in which
/// no tested chunk can be moved back to single precision.
///
/// As the quality threshold tightens, more candidate configurations fail
/// and the refinement explores many more configurations — the behaviour
/// Figure 2a of the paper reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaDebug;

impl DeltaDebug {
    /// Creates the algorithm.
    pub fn new() -> Self {
        DeltaDebug
    }
}

/// Splits `set` into `n` chunks of near-equal size.
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

impl SearchAlgorithm for DeltaDebug {
    fn name(&self) -> &str {
        "DD"
    }

    fn full_name(&self) -> &str {
        "delta-debugging"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let space = ev.space(Granularity::Clusters);
        let program = ev.program().clone();
        let total = space.len();
        if total == 0 {
            return finish(ev, false);
        }
        let universe: BTreeSet<usize> = (0..total).collect();

        // `config_for(high)`: the configuration that keeps `high` double and
        // lowers everything else. In every probe below `high` is a proper
        // subset of `universe`, so the lowered set is never empty.
        let config_for = |high: &BTreeSet<usize>| -> PrecisionConfig {
            space.config(&program, universe.difference(high).copied())
        };

        // Start from the empty high-precision set (lower everything).
        match ev.evaluate(&config_for(&BTreeSet::new())) {
            Ok(rec) if rec.passes => return finish(ev, false),
            Ok(_) => {}
            Err(_) => return finish(ev, true),
        }

        // ddmin over the set of clusters kept double. Each round's partition
        // probes are the natural frontier: `first_passing` fans them out in
        // worker-width lookahead groups while preserving the historical
        // first-match semantics.
        let obs = ev.obs();
        let mut high = universe.clone();
        let mut n = 2usize;
        while high.len() >= 2 {
            let _round = obs.span(
                "dd.round",
                &[
                    ("n", Value::U64(n as u64)),
                    ("high", Value::U64(high.len() as u64)),
                ],
            );
            let chunks = split(&high, n);

            // Try each chunk as the new high set.
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

            // Try each complement.
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

            // Refine granularity or stop at the local minimum.
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
    use mixp_core::{EvaluatorBuilder, QualityThreshold};
    use mixp_kernels::{Eos, Hydro1d, Tridiag};

    #[test]
    fn split_covers_all_elements() {
        let set: BTreeSet<usize> = (0..7).collect();
        for n in 1..=7 {
            let chunks = split(&set, n);
            let union: BTreeSet<usize> = chunks.iter().flatten().copied().collect();
            assert_eq!(union, set, "n={n}");
            assert_eq!(chunks.iter().map(BTreeSet::len).sum::<usize>(), 7);
        }
    }

    #[test]
    fn loose_threshold_terminates_in_one_evaluation() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = DeltaDebug::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1);
        assert!(r.best.unwrap().config.lowered_count() > 0);
    }

    #[test]
    fn impossible_threshold_finds_nothing_but_terminates() {
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(0.0));
        let r = DeltaDebug::new().search(&mut ev);
        assert!(!r.dnf);
        // Lowering the arrays rounds the output, so a zero-error result can
        // only be the exactly-representable scalar cluster (or nothing).
        if let Some(best) = &r.best {
            assert_eq!(best.quality, 0.0);
        }
        assert!(r.evaluated >= 2, "must have explored subsets");
    }

    #[test]
    fn stricter_threshold_costs_more_evaluations() {
        let k = Hydro1d::small();
        let mut loose = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r_loose = DeltaDebug::new().search(&mut loose);
        let mut strict = Evaluator::new(&k, QualityThreshold::new(1e-15));
        let r_strict = DeltaDebug::new().search(&mut strict);
        assert!(r_strict.evaluated >= r_loose.evaluated);
    }

    #[test]
    fn budget_exhaustion_is_dnf() {
        let k = Hydro1d::small();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-15))
            .budget(2)
            .build(&k);
        let r = DeltaDebug::new().search(&mut ev);
        assert!(r.dnf);
    }
}
