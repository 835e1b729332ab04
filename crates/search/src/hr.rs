//! Hierarchical search.

use crate::{finish, SearchAlgorithm, SearchResult};
use mixp_core::{EvalError, Evaluator, PrecisionConfig, Value, VarId};
use std::collections::BTreeSet;

/// Hierarchical search (HR): use program structure — whole program, then
/// modules, then functions, then individual variables — to find large
/// groups of variables that can be lowered together (§II-B, CRAFT).
///
/// HR deliberately does **not** use cluster information (clusters may cross
/// function and module boundaries), so at the function/variable level it
/// routinely creates configurations that split a cluster and fail to
/// compile; those evaluations are wasted budget, which is the paper's core
/// criticism of the variable-granularity strategies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hierarchical;

impl Hierarchical {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Hierarchical
    }
}

/// Evaluates the configuration that lowers exactly `vars`; returns whether
/// it passed.
pub(crate) fn try_lower(ev: &mut Evaluator<'_>, vars: &BTreeSet<VarId>) -> Result<bool, EvalError> {
    if vars.is_empty() {
        return Ok(false);
    }
    let cfg = PrecisionConfig::from_lowered(ev.program().var_count(), vars.iter().copied());
    Ok(ev.evaluate(&cfg)?.passes)
}

/// Batch counterpart of [`try_lower`]: evaluates the lowering of every set
/// through the evaluator's fan-out and returns per-set pass flags. Empty
/// sets never pass and are not evaluated, mirroring the scalar helper.
pub(crate) fn try_lower_batch(
    ev: &mut Evaluator<'_>,
    sets: &[BTreeSet<VarId>],
) -> Result<Vec<bool>, EvalError> {
    let var_count = ev.program().var_count();
    let nonempty: Vec<usize> = sets
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, _)| i)
        .collect();
    let cfgs: Vec<PrecisionConfig> = nonempty
        .iter()
        .map(|&i| PrecisionConfig::from_lowered(var_count, sets[i].iter().copied()))
        .collect();
    let mut passes = vec![false; sets.len()];
    for (&i, res) in nonempty.iter().zip(ev.evaluate_batch(&cfgs)) {
        passes[i] = res?.passes;
    }
    Ok(passes)
}

/// Descends the program hierarchy, returning every component (as a variable
/// set) that passed in isolation at the coarsest level it passed.
///
/// Sibling components at each level are probed in lookahead groups of the
/// evaluator's worker width (the hierarchical search's natural frontier);
/// at width 1 this is exactly the historical depth-first order.
pub(crate) fn passing_components(
    ev: &mut Evaluator<'_>,
) -> Result<Vec<BTreeSet<VarId>>, EvalError> {
    let obs = ev.obs();
    let program = ev.program();
    let all: BTreeSet<VarId> = program.tunable_vars().into_iter().collect();
    if all.is_empty() {
        return Ok(Vec::new());
    }
    // Level 0: the entire application.
    let whole = obs.span("hr.program", &[("vars", Value::U64(all.len() as u64))]);
    if try_lower(ev, &all)? {
        whole.end_with(&[("passed", Value::Bool(true))]);
        return Ok(vec![all]);
    }
    whole.end_with(&[("passed", Value::Bool(false))]);
    let width = ev.workers().max(1);
    let mut accepted = Vec::new();
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
        "hr.refine",
        &[("modules", Value::U64(modules.len() as u64))],
    );
    for group in modules.chunks(width) {
        let sets: Vec<BTreeSet<VarId>> = group.iter().map(|(_, s)| s.clone()).collect();
        let passes = try_lower_batch(ev, &sets)?;
        for ((module, mvars), passed) in group.iter().zip(passes) {
            if passed {
                accepted.push(mvars.clone());
                continue;
            }
            // Fall back to the functions of this module.
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
                let fpasses = try_lower_batch(ev, fgroup)?;
                for (fvars, fpassed) in fgroup.iter().zip(fpasses) {
                    if fpassed {
                        accepted.push(fvars.clone());
                        continue;
                    }
                    // Finally, individual variables — siblings with no
                    // early exit, so one full batch is sequence-identical.
                    let singles: Vec<BTreeSet<VarId>> =
                        fvars.iter().map(|v| BTreeSet::from([*v])).collect();
                    let vpasses = try_lower_batch(ev, &singles)?;
                    for (single, vpassed) in singles.into_iter().zip(vpasses) {
                        if vpassed {
                            accepted.push(single);
                        }
                    }
                }
            }
        }
    }
    Ok(accepted)
}

impl SearchAlgorithm for Hierarchical {
    fn name(&self) -> &str {
        "HR"
    }

    fn full_name(&self) -> &str {
        "hierarchical"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let components = match passing_components(ev) {
            Ok(c) => c,
            Err(_) => return finish(ev, true),
        };
        // Greedily take the union of everything that passed in isolation and
        // verify the combined configuration.
        let union: BTreeSet<VarId> = components.into_iter().flatten().collect();
        ev.obs()
            .event("hr.union", &[("vars", Value::U64(union.len() as u64))]);
        if !union.is_empty() && try_lower(ev, &union).is_err() {
            return finish(ev, true);
        }
        finish(ev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::Benchmark;
    use mixp_core::{Granularity, QualityThreshold};
    use mixp_kernels::{Hydro1d, IntPredict, Tridiag};

    #[test]
    fn loose_threshold_terminates_at_the_whole_program() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Hierarchical::new().search(&mut ev);
        assert!(!r.dnf);
        assert_eq!(r.evaluated, 1, "whole-program config passes immediately");
        let best = r.best.unwrap();
        assert_eq!(
            best.config.lowered_count(),
            k.program().total_variables(),
            "everything tunable is lowered"
        );
    }

    #[test]
    fn variable_level_descent_wastes_evaluations_on_invalid_configs() {
        // With an impossible threshold the whole-program config fails and HR
        // descends to variables; single-variable configs split clusters and
        // fail to compile — budget burned with nothing found.
        let k = IntPredict::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(0.0));
        let r = Hierarchical::new().search(&mut ev);
        assert!(!r.dnf);
        assert!(r.best.is_none());
        let space = ev.space(Granularity::Variables);
        // 1 evaluation for the whole program (module- and function-level
        // configs are identical for a single-function kernel and hit the
        // memo), plus one per variable.
        assert_eq!(r.evaluated, 1 + space.len());
    }

    #[test]
    fn hr_evaluates_more_than_dd_on_strict_thresholds() {
        let k = Hydro1d::small();
        let mut ev_hr = Evaluator::new(&k, QualityThreshold::new(1e-15));
        let r_hr = Hierarchical::new().search(&mut ev_hr);
        let mut ev_dd = Evaluator::new(&k, QualityThreshold::new(1e-15));
        let r_dd = crate::DeltaDebug::new().search(&mut ev_dd);
        assert!(
            r_hr.evaluated >= r_dd.evaluated,
            "HR {} vs DD {}",
            r_hr.evaluated,
            r_dd.evaluated
        );
    }
}
