//! Cluster-aware hierarchical search — the redesign the paper recommends.

use crate::{finish, SearchAlgorithm, SearchResult};
use mixp_core::{EvalError, Evaluator, PrecisionConfig, Value, VarId};
use std::collections::BTreeSet;

/// Cluster-aware hierarchical search (HR+): the paper's §V recommendation,
/// implemented.
///
/// The stock hierarchical strategies ignore cluster information because
/// clusters may cross function and module boundaries, so their
/// variable-level configurations frequently fail to compile and waste
/// budget. The paper concludes that "the evaluation … provides sufficient
/// motivation to redesign these strategies to take clustering information
/// into account".
///
/// HR+ keeps the program-structure descent of [`crate::Hierarchical`] but
/// *closes every candidate variable set over its clusters* before
/// evaluating: a component's set is expanded with every cluster member of
/// every variable it contains. Every generated configuration therefore
/// compiles, and candidate sets that close over each other deduplicate via
/// the evaluator's memo — eliminating exactly the waste the paper measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterHierarchical;

impl ClusterHierarchical {
    /// Creates the algorithm.
    pub fn new() -> Self {
        ClusterHierarchical
    }
}

/// Expands `vars` to cluster closure: every member of every cluster touched
/// by the set joins it.
fn close_over_clusters(ev: &Evaluator<'_>, vars: &BTreeSet<VarId>) -> BTreeSet<VarId> {
    let clustering = ev.program().clustering();
    let mut closed = BTreeSet::new();
    for &v in vars {
        // Untunable locations are dropped from the closure.
        if let Some(c) = clustering.cluster_of(v) {
            closed.extend(clustering.members(c).iter().copied());
        }
    }
    closed
}

fn try_lower_closed(ev: &mut Evaluator<'_>, vars: &BTreeSet<VarId>) -> Result<bool, EvalError> {
    let closed = close_over_clusters(ev, vars);
    if closed.is_empty() {
        return Ok(false);
    }
    let cfg = PrecisionConfig::from_lowered(ev.program().var_count(), closed.iter().copied());
    debug_assert!(ev.program().validate(&cfg).is_ok(), "closure must compile");
    Ok(ev.evaluate(&cfg)?.passes)
}

/// Batch counterpart of [`try_lower_closed`]: closes every candidate set
/// over its clusters, fans the resulting configurations out, and returns
/// per-set pass flags. Sets with an empty closure never pass and are not
/// evaluated, mirroring the scalar helper.
fn try_lower_closed_batch(
    ev: &mut Evaluator<'_>,
    sets: &[BTreeSet<VarId>],
) -> Result<Vec<bool>, EvalError> {
    let var_count = ev.program().var_count();
    let closed: Vec<BTreeSet<VarId>> = sets.iter().map(|s| close_over_clusters(ev, s)).collect();
    let nonempty: Vec<usize> = closed
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, _)| i)
        .collect();
    let cfgs: Vec<PrecisionConfig> = nonempty
        .iter()
        .map(|&i| {
            let cfg = PrecisionConfig::from_lowered(var_count, closed[i].iter().copied());
            debug_assert!(ev.program().validate(&cfg).is_ok(), "closure must compile");
            cfg
        })
        .collect();
    let mut passes = vec![false; sets.len()];
    for (&i, res) in nonempty.iter().zip(ev.evaluate_batch(&cfgs)) {
        passes[i] = res?.passes;
    }
    Ok(passes)
}

/// The cluster-closed hierarchical descent: modules, then functions, then
/// whole clusters — sibling candidates probed in lookahead groups of the
/// evaluator's worker width (at width 1, the historical depth-first order).
fn passing_closed_components(ev: &mut Evaluator<'_>) -> Result<Vec<BTreeSet<VarId>>, EvalError> {
    let obs = ev.obs();
    let width = ev.workers().max(1);
    let mut accepted: Vec<BTreeSet<VarId>> = Vec::new();
    let module_ids: Vec<_> = ev.program().modules().map(|(id, _)| id).collect();
    let modules: Vec<_> = module_ids
        .into_iter()
        .map(|m| {
            let mvars: BTreeSet<VarId> = ev.program().vars_in_module(m).into_iter().collect();
            (m, mvars)
        })
        .filter(|(_, mvars)| !mvars.is_empty())
        .collect();
    let _refine = obs.span(
        "hrplus.refine",
        &[("modules", Value::U64(modules.len() as u64))],
    );
    for group in modules.chunks(width) {
        let sets: Vec<BTreeSet<VarId>> = group.iter().map(|(_, s)| s.clone()).collect();
        let passes = try_lower_closed_batch(ev, &sets)?;
        for ((module, mvars), passed) in group.iter().zip(passes) {
            if passed {
                accepted.push(close_over_clusters(ev, mvars));
                continue;
            }
            let func_ids: Vec<_> = ev
                .program()
                .functions()
                .map(|(id, _)| id)
                .filter(|f| ev.program().module_of(*f) == *module)
                .collect();
            let functions: Vec<BTreeSet<VarId>> = func_ids
                .into_iter()
                .map(|f| ev.program().vars_in_function(f).into_iter().collect())
                .filter(|fvars: &BTreeSet<VarId>| !fvars.is_empty())
                .collect();
            for fgroup in functions.chunks(width) {
                let fpasses = try_lower_closed_batch(ev, fgroup)?;
                for (fvars, fpassed) in fgroup.iter().zip(fpasses) {
                    if fpassed {
                        accepted.push(close_over_clusters(ev, fvars));
                        continue;
                    }
                    // Finest level: whole clusters, not raw variables — one
                    // probe per distinct cluster, batched as a full sibling
                    // group (the historical loop had no early exit here).
                    let mut seen_clusters = BTreeSet::new();
                    let mut probes: Vec<BTreeSet<VarId>> = Vec::new();
                    for &v in fvars {
                        if let Some(c) = ev.program().clustering().cluster_of(v) {
                            if seen_clusters.insert(c) {
                                probes.push(BTreeSet::from([v]));
                            }
                        }
                    }
                    let ppasses = try_lower_closed_batch(ev, &probes)?;
                    for (single, ppassed) in probes.into_iter().zip(ppasses) {
                        if ppassed {
                            accepted.push(close_over_clusters(ev, &single));
                        }
                    }
                }
            }
        }
    }
    Ok(accepted)
}

impl SearchAlgorithm for ClusterHierarchical {
    fn name(&self) -> &str {
        "HR+"
    }

    fn full_name(&self) -> &str {
        "cluster-aware hierarchical"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let all: BTreeSet<VarId> = ev.program().tunable_vars().into_iter().collect();
        if all.is_empty() {
            return finish(ev, false);
        }
        // Level 0: the whole application.
        let whole = ev
            .obs()
            .span("hrplus.program", &[("vars", Value::U64(all.len() as u64))]);
        match try_lower_closed(ev, &all) {
            Ok(true) => {
                whole.end_with(&[("passed", Value::Bool(true))]);
                return finish(ev, false);
            }
            Ok(false) => whole.end_with(&[("passed", Value::Bool(false))]),
            Err(_) => return finish(ev, true),
        }
        // Descend: modules, then functions, then single clusters — every
        // candidate closed over clusters before evaluation.
        let accepted = match passing_closed_components(ev) {
            Ok(a) => a,
            Err(_) => return finish(ev, true),
        };
        // Combine everything that passed in isolation.
        let union: BTreeSet<VarId> = accepted.into_iter().flatten().collect();
        if !union.is_empty() && try_lower_closed(ev, &union).is_err() {
            return finish(ev, true);
        }
        finish(ev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Benchmark, QualityThreshold};
    use mixp_kernels::{IntPredict, Tridiag};

    #[test]
    fn loose_threshold_terminates_at_whole_program() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = ClusterHierarchical::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1);
        assert!(r.best.is_some());
    }

    #[test]
    fn every_evaluated_config_compiles() {
        // Unlike stock HR, HR+ burns no budget on invalid configurations:
        // with an impossible threshold on a clustered kernel, the evaluation
        // count is bounded by the number of *clusters* seen per level, not
        // variables.
        let k = IntPredict::small(); // TV=9, TC=2
        let mut ev = Evaluator::new(&k, QualityThreshold::new(0.0));
        let r = ClusterHierarchical::new().search(&mut ev);
        assert!(!r.dnf);
        // program + module + function levels memoise to one config (one
        // function), plus one per cluster: ≤ 1 + TC.
        assert!(
            r.evaluated <= 1 + k.program().total_clusters(),
            "evaluated {}",
            r.evaluated
        );
    }

    #[test]
    fn hrplus_never_loses_to_hr() {
        // On kernels, HR+ finds at least the speedup HR finds.
        for bench in mixp_kernels::all_kernels_small() {
            let mut ev1 = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
            let plus = ClusterHierarchical::new().search(&mut ev1);
            let mut ev2 = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
            let stock = crate::Hierarchical::new().search(&mut ev2);
            let p = plus.speedup().unwrap_or(0.0);
            let s = stock.speedup().unwrap_or(0.0);
            assert!(p >= s - 1e-9, "{}: HR+ {} < HR {}", bench.name(), p, s);
            assert!(plus.evaluated <= stock.evaluated.max(plus.evaluated));
        }
    }
}
