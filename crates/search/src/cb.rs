//! Combinational (brute-force) search.

use crate::{batch_passes, enumeration_width, finish, SearchAlgorithm, SearchResult};
use mixp_core::{Evaluator, Granularity, PrecisionConfig, Value};

/// Combinational search (CB): try *all* combinations of clusters — the
/// exhaustive approach (§II-B).
///
/// Only feasible on small search spaces; the paper applies it to the kernels
/// (1–2 clusters) to establish the optimum every other algorithm is compared
/// against. On larger spaces the budget runs out and the search reports DNF.
///
/// Subsets are enumerated largest-first (most lowered variables first), so
/// the "everything single" candidate — usually the best when it passes — is
/// tried immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct Combinational;

impl Combinational {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Combinational
    }
}

impl SearchAlgorithm for Combinational {
    fn name(&self) -> &str {
        "CB"
    }

    fn full_name(&self) -> &str {
        "combinational"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let obs = ev.obs();
        let space = ev.space(Granularity::Clusters);
        let n = space.len();
        if n == 0 {
            return finish(ev, false);
        }
        // Beyond 2^24 subsets the enumeration itself is hopeless; charge the
        // budget by evaluating what we can, then report DNF like the paper's
        // timed-out runs.
        let width = enumeration_width(ev);
        if n >= 24 {
            let _sweep = obs.span(
                "cb.sweep",
                &[
                    ("clusters", Value::U64(n as u64)),
                    ("exhaustive", Value::Bool(false)),
                ],
            );
            let program = ev.program().clone();
            // Evaluate single-cluster configs until the budget runs out,
            // fanning each chunk across the evaluator's workers.
            let cfgs: Vec<PrecisionConfig> = (0..n).map(|u| space.config(&program, [u])).collect();
            for chunk in cfgs.chunks(width) {
                if batch_passes(ev, chunk).is_err() {
                    break;
                }
            }
            return finish(ev, true);
        }
        let program = ev.program().clone();
        let total: u64 = 1 << n;
        let _sweep = obs.span(
            "cb.sweep",
            &[
                ("clusters", Value::U64(n as u64)),
                ("subsets", Value::U64(total - 1)),
            ],
        );
        // Largest subsets first: sort masks by descending popcount.
        let mut masks: Vec<u64> = (1..total).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        // Enumeration chunks are the search's natural frontier: no member
        // depends on another, so fan-out is sequence-identical.
        for group in masks.chunks(width) {
            let _chunk = obs.span("cb.chunk", &[("masks", Value::U64(group.len() as u64))]);
            let cfgs: Vec<PrecisionConfig> = group
                .iter()
                .map(|&mask| {
                    let lowered = (0..n).filter(move |i| mask >> i & 1 == 1);
                    space.config(&program, lowered)
                })
                .collect();
            if batch_passes(ev, &cfgs).is_err() {
                return finish(ev, true);
            }
        }
        finish(ev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::Benchmark;
    use mixp_core::{EvaluatorBuilder, QualityThreshold};
    use mixp_kernels::{Eos, Tridiag};

    #[test]
    fn single_cluster_kernel_needs_one_evaluation() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Combinational::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1);
        assert!(r.best.is_some());
    }

    #[test]
    fn two_cluster_kernel_enumerates_all_subsets() {
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Combinational::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 3); // {c0}, {c1}, {c0,c1}
    }

    #[test]
    fn exhausted_budget_reports_dnf() {
        let k = Eos::small();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .budget(2)
            .build(&k);
        let r = Combinational::new().search(&mut ev);
        assert!(r.dnf);
        assert_eq!(r.evaluated, 2);
    }

    #[test]
    fn best_is_at_least_as_fast_as_all_single() {
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let all_single = ev
            .evaluate(&k.program().config_all_single())
            .unwrap()
            .speedup;
        let r = Combinational::new().search(&mut ev);
        assert!(r.best.unwrap().speedup >= all_single - 1e-12);
    }
}
