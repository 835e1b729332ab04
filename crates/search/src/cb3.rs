//! Multi-level (p = 3) exhaustive search.

use crate::{batch_passes, enumeration_width, finish, SearchAlgorithm, SearchResult};
use mixp_core::{Evaluator, Precision, PrecisionConfig, Value};

/// Multi-precision exhaustive search (CB3): enumerates every assignment of
/// a precision *level* — half, single or double — to every cluster.
///
/// The paper frames the general search space as `p^loc` for an architecture
/// with `p` precision levels ("p = 3 for an architecture that supports
/// half, single, and double precision" — §II) but evaluates two levels.
/// This reproduction supports the third level end-to-end (binary16 storage
/// emulation, cost model, runtime I/O), and CB3 is the exhaustive baseline
/// over that space, feasible on the kernels' 1–2 cluster models where
/// `3^TC ≤ 9`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiPrecisionExhaustive;

impl MultiPrecisionExhaustive {
    /// Creates the algorithm.
    pub fn new() -> Self {
        MultiPrecisionExhaustive
    }

    /// The levels enumerated, narrowest first.
    pub const LEVELS: [Precision; 3] = [Precision::Half, Precision::Single, Precision::Double];
}

impl SearchAlgorithm for MultiPrecisionExhaustive {
    fn name(&self) -> &str {
        "CB3"
    }

    fn full_name(&self) -> &str {
        "multi-precision exhaustive"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let program = ev.program().clone();
        let n = program.total_clusters();
        if n == 0 {
            return finish(ev, false);
        }
        if n > 15 {
            // 3^16 > 43M assignments: hopeless, like CB beyond 2^24.
            return finish(ev, true);
        }
        let total: u64 = 3u64.pow(n as u32);
        let width = enumeration_width(ev);
        let _sweep = ev.obs().span(
            "cb3.sweep",
            &[
                ("clusters", Value::U64(n as u64)),
                ("assignments", Value::U64(total)),
            ],
        );
        let mut levels = vec![Precision::Double; n];
        let mut codes = 0..total;
        // Chunked enumeration: decode `width` assignments, fan them out,
        // repeat. No early exit between assignments, so any chunking is
        // sequence-identical to the historical per-code loop.
        loop {
            let cfgs: Vec<PrecisionConfig> = codes
                .by_ref()
                .take(width)
                .map(|mut code| {
                    for slot in levels.iter_mut() {
                        *slot = Self::LEVELS[(code % 3) as usize];
                        code /= 3;
                    }
                    program.config_from_cluster_levels(&levels)
                })
                .collect();
            if cfgs.is_empty() {
                break;
            }
            let _chunk = ev.obs().span(
                "cb3.chunk",
                &[("assignments", Value::U64(cfgs.len() as u64))],
            );
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
    use mixp_core::{Benchmark, QualityThreshold};
    use mixp_kernels::{Eos, Tridiag};

    #[test]
    fn enumerates_the_full_three_level_space() {
        let k = Eos::small(); // TC = 2
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = MultiPrecisionExhaustive::new().search(&mut ev);
        assert!(!r.dnf);
        // 3^2 = 9 assignments, one of which is all-double (evaluated but
        // never "best").
        assert_eq!(r.evaluated, 9);
    }

    #[test]
    fn finds_at_least_the_two_level_optimum() {
        let k = Tridiag::small();
        let mut ev3 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r3 = MultiPrecisionExhaustive::new().search(&mut ev3);
        let mut ev2 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r2 = crate::Combinational::new().search(&mut ev2);
        let s3 = r3.speedup().unwrap_or(0.0);
        let s2 = r2.speedup().unwrap_or(0.0);
        assert!(s3 >= s2, "three levels subsume two: {s3} vs {s2}");
    }

    #[test]
    fn half_configurations_really_run() {
        // The all-half configuration of a kernel is part of the space and
        // produces a larger error than all-single.
        let k = Tridiag::small();
        let program = k.program();
        let n = program.total_clusters();
        let all_half = program.config_from_cluster_levels(&vec![Precision::Half; n]);
        let all_single = program.config_all_single();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1.0));
        let rh = ev.evaluate(&all_half).unwrap();
        let rs = ev.evaluate(&all_single).unwrap();
        assert!(rh.compiled && rs.compiled);
        assert!(
            rh.quality > rs.quality,
            "half must round harder: {} vs {}",
            rh.quality,
            rs.quality
        );
        assert!(rh.speedup > rs.speedup, "and be cheaper to execute");
    }
}
