//! The six mixed-precision search algorithms of HPC-MixPBench (§II-B).
//!
//! Every algorithm consumes an [`Evaluator`] — which runs configurations,
//! verifies quality against the threshold, prices speedup and enforces the
//! evaluation budget (the 24-hour-limit analogue) — and produces a
//! [`SearchResult`].
//!
//! | Short | Algorithm | Granularity |
//! |-------|-----------------------------|-------------|
//! | CB    | [`Combinational`]           | clusters    |
//! | CM    | [`Compositional`]           | clusters    |
//! | DD    | [`DeltaDebug`]              | clusters    |
//! | HR    | [`Hierarchical`]            | variables   |
//! | HC    | [`HierCompositional`]       | variables   |
//! | GA    | [`Genetic`]                 | clusters    |
//! | HR+   | [`ClusterHierarchical`]     | clusters    |
//!
//! `HR+` is this reproduction's extension: the cluster-aware hierarchical
//! redesign the paper's §V recommends as future work.
//!
//! The hierarchical strategies deliberately ignore cluster information
//! (clusters may cross function/module boundaries — §II-B), so they can
//! generate configurations that do not compile; those evaluations consume
//! budget but never pass, reproducing the paper's observation that
//! variable-level search "wastes time on creating useless configurations".
//!
//! # Example
//!
//! ```
//! use mixp_core::{Evaluator, QualityThreshold};
//! use mixp_kernels::Tridiag;
//! use mixp_search::{DeltaDebug, SearchAlgorithm};
//!
//! let kernel = Tridiag::small();
//! let mut ev = Evaluator::new(&kernel, QualityThreshold::new(1e-3));
//! let result = DeltaDebug::new().search(&mut ev);
//! assert!(!result.dnf);
//! assert!(result.best.is_some());
//! ```

mod cb;
mod cb3;
mod cm;
mod dd;
mod ddv;
mod ga;
mod hc;
mod hr;
mod hrc;
mod result;

pub use cb::Combinational;
pub use cb3::MultiPrecisionExhaustive;
pub use cm::Compositional;
pub use dd::DeltaDebug;
pub use ddv::VariableDeltaDebug;
pub use ga::{Genetic, GeneticParams};
pub use hc::HierCompositional;
pub use hr::Hierarchical;
pub use hrc::ClusterHierarchical;
pub use result::{SearchAlgorithm, SearchResult};

use mixp_core::{EvalError, Evaluator, PrecisionConfig};

/// All six algorithms in the paper's order (CB, CM, DD, HR, HC, GA), with
/// default parameters.
pub fn all_algorithms() -> Vec<Box<dyn SearchAlgorithm>> {
    vec![
        Box::new(Combinational::new()),
        Box::new(Compositional::new()),
        Box::new(DeltaDebug::new()),
        Box::new(Hierarchical::new()),
        Box::new(HierCompositional::new()),
        Box::new(Genetic::new(GeneticParams::default())),
    ]
}

/// Looks an algorithm up by its short name (`"CB"`, `"CM"`, `"DD"`, `"HR"`,
/// `"HC"`, `"GA"`), case-insensitively. Also accepts the long names used in
/// the paper's YAML files (e.g. `"ddebug"`, `"combinational"`).
pub fn algorithm_by_name(name: &str) -> Option<Box<dyn SearchAlgorithm>> {
    match name.to_ascii_lowercase().as_str() {
        "cb" | "combinational" => Some(Box::new(Combinational::new())),
        "cm" | "compositional" => Some(Box::new(Compositional::new())),
        "dd" | "ddebug" | "delta-debugging" | "delta_debug" => Some(Box::new(DeltaDebug::new())),
        "hr" | "hierarchical" => Some(Box::new(Hierarchical::new())),
        "hc" | "hierarchical-compositional" | "hier-comp" => {
            Some(Box::new(HierCompositional::new()))
        }
        "hr+" | "hrplus" | "cluster-hierarchical" => Some(Box::new(ClusterHierarchical::new())),
        "cb3" | "multi-precision-exhaustive" => Some(Box::new(MultiPrecisionExhaustive::new())),
        "ddv" | "variable-delta-debugging" => Some(Box::new(VariableDeltaDebug::new())),
        "ga" | "genetic" => Some(Box::new(Genetic::new(GeneticParams::default()))),
        _ => None,
    }
}

pub(crate) fn finish(ev: &Evaluator<'_>, dnf: bool) -> SearchResult {
    SearchResult {
        best: ev.best().cloned(),
        evaluated: ev.evaluated(),
        dnf,
    }
}

/// Evaluates every configuration through the evaluator's batch fan-out and
/// returns the per-configuration pass flags, or the first admission error.
///
/// Because `evaluate_batch` charges budget/deadline and commits records in
/// submission order, this is observably identical to the sequential
/// `for cfg { ev.evaluate(cfg)?.passes }` loop at **any** worker count —
/// use it wherever the historical loop had no early exit between members.
pub(crate) fn batch_passes(
    ev: &mut Evaluator<'_>,
    cfgs: &[PrecisionConfig],
) -> Result<Vec<bool>, EvalError> {
    let mut passes = Vec::with_capacity(cfgs.len());
    for res in ev.evaluate_batch(cfgs) {
        passes.push(res?.passes);
    }
    Ok(passes)
}

/// Scans `cfgs` left to right for the first passing configuration, fanning
/// evaluations out in speculative lookahead groups of the evaluator's
/// worker width.
///
/// At width 1 the evaluation sequence is exactly the historical sequential
/// early-exit loop; at width `w > 1` up to `w - 1` candidates beyond the
/// first passing one may be evaluated speculatively (trading budget for
/// wall-clock, which is the documented `MIXP_WORKERS > 1` contract).
pub(crate) fn first_passing(
    ev: &mut Evaluator<'_>,
    cfgs: &[PrecisionConfig],
) -> Result<Option<usize>, EvalError> {
    let width = ev.workers().max(1);
    let mut start = 0;
    for group in cfgs.chunks(width) {
        for (off, res) in ev.evaluate_batch(group).into_iter().enumerate() {
            if res?.passes {
                return Ok(Some(start + off));
            }
        }
        start += group.len();
    }
    Ok(None)
}

/// Chunk width for exhaustive enumerations: a few batches worth of work per
/// fan-out keeps workers busy without materialising the whole (possibly
/// multi-million-entry) configuration list at once.
pub(crate) fn enumeration_width(ev: &Evaluator<'_>) -> usize {
    (ev.workers() * 4).clamp(1, 256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_algorithms() {
        let algos = all_algorithms();
        assert_eq!(algos.len(), 6);
        let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["CB", "CM", "DD", "HR", "HC", "GA"]);
    }

    #[test]
    fn lookup_by_any_spelling() {
        for name in ["CB", "cb", "combinational", "ddebug", "GA", "genetic"] {
            assert!(algorithm_by_name(name).is_some(), "{name}");
        }
        assert!(algorithm_by_name("nope").is_none());
    }
}
