//! The correctness oracle: every reported best configuration is re-run
//! from scratch and must reproduce its quality and speedup bit for bit,
//! and whole result sets are pinned by an FNV digest.

use crate::stats::{fnv1a, FNV_OFFSET};
use mixp_core::perf::CacheStats;
use mixp_core::{
    run_config, Benchmark, CacheParams, ConfigKey, CostModel, OpCounts, QualityThreshold,
};
use mixp_harness::checkpoint::{compact, failure_doc, result_doc};
use mixp_harness::json::Json;
use mixp_harness::{benchmark_by_name, Job, JobOutcome, JobResult, Scale};
use std::collections::HashMap;

/// A benchmark with its all-double reference run.
struct Reference {
    bench: Box<dyn Benchmark>,
    output: Vec<f64>,
    counts: OpCounts,
    stats: CacheStats,
}

/// Re-runs best configurations outside the timed region. Each distinct
/// (benchmark, scale, configuration) is run once; later cells reporting
/// the same configuration are checked against the stored values.
#[derive(Default)]
pub struct Oracle {
    references: HashMap<(String, Scale), Reference>,
    /// Recomputed (quality, speedup) bit patterns.
    seen: HashMap<(String, Scale, ConfigKey), (u64, u64)>,
}

impl Oracle {
    /// An oracle with nothing computed yet.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Checks one completed cell: its best configuration must pass the
    /// cell's threshold, and re-running it through `run_config`,
    /// `MetricKind::compare` and `CostModel::speedup` must give the same
    /// quality and speedup bits the search reported.
    pub fn check(&mut self, job: &Job, result: &JobResult) -> Result<(), String> {
        let Some(best) = &result.result.best else {
            return Ok(());
        };
        let cell = format!(
            "{} × {} @ {:e}",
            job.benchmark, job.algorithm, job.threshold
        );
        if !best.passes || !QualityThreshold::new(job.threshold).accepts(best.quality) {
            return Err(format!(
                "{cell}: best quality {} misses the threshold",
                best.quality
            ));
        }
        let key = (job.benchmark.clone(), job.scale, best.config.fingerprint());
        let (quality, speedup) = match self.seen.get(&key) {
            Some(&bits) => bits,
            None => {
                let reference = self.reference(&job.benchmark, job.scale)?;
                let (output, counts, stats) = run_config(
                    reference.bench.as_ref(),
                    &best.config,
                    CacheParams::default(),
                );
                let quality = reference.bench.metric().compare(&reference.output, &output);
                let speedup = CostModel::default().speedup(
                    (&reference.counts, Some(&reference.stats)),
                    (&counts, Some(&stats)),
                );
                let bits = (quality.to_bits(), speedup.to_bits());
                self.seen.insert(key, bits);
                bits
            }
        };
        if (quality, speedup) != (best.quality.to_bits(), best.speedup.to_bits()) {
            return Err(format!(
                "{cell}: reported quality {} speedup {}, re-run gives {} and {}",
                best.quality,
                best.speedup,
                f64::from_bits(quality),
                f64::from_bits(speedup)
            ));
        }
        Ok(())
    }

    fn reference(&mut self, name: &str, scale: Scale) -> Result<&Reference, String> {
        let key = (name.to_string(), scale);
        if !self.references.contains_key(&key) {
            let bench =
                benchmark_by_name(name, scale).ok_or(format!("unknown benchmark {name}"))?;
            let (output, counts, stats) = run_config(
                bench.as_ref(),
                &bench.program().config_all_double(),
                CacheParams::default(),
            );
            self.references.insert(
                key.clone(),
                Reference {
                    bench,
                    output,
                    counts,
                    stats,
                },
            );
        }
        Ok(&self.references[&key])
    }

    /// Checks every completed cell of `outcomes`; returns one message per
    /// mismatch.
    pub fn check_all(&mut self, outcomes: &[JobOutcome]) -> Vec<String> {
        outcomes
            .iter()
            .filter_map(|o| self.check(&o.job, o.result()?).err())
            .collect()
    }
}

/// The result documents of a campaign, one per cell, in the shape the
/// run-state journal and the service's `status` answer use.
pub fn result_docs(outcomes: &[JobOutcome]) -> Vec<Json> {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| match &o.outcome {
            Ok(result) => result_doc(i, &o.job, result),
            Err(error) => failure_doc(i, &o.job, error),
        })
        .collect()
}

/// FNV-1a digest, as 16 hex digits, of documents in order.
pub fn digest<'a>(docs: impl IntoIterator<Item = &'a Json>) -> String {
    let hash = docs.into_iter().fold(FNV_OFFSET, |h, doc| {
        fnv1a(fnv1a(h, compact(doc).as_bytes()), b"\n")
    });
    format!("{hash:016x}")
}

/// Compares the cells of a service `status` answer with the documents a
/// direct run produced: every field of each expected document must be
/// present with the identical rendering.
pub fn compare_cells(expected: &[Json], status: &Json) -> Result<(), String> {
    let cells = status
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("status answer has no cells")?;
    if cells.len() != expected.len() {
        return Err(format!(
            "{} cells, expected {}",
            cells.len(),
            expected.len()
        ));
    }
    for (index, (want, got)) in expected.iter().zip(cells).enumerate() {
        let Json::Object(fields) = want else {
            return Err(format!("cell {index}: expected document is not an object"));
        };
        for (field, value) in fields {
            let got = got.get(field).map(compact);
            if got.as_deref() != Some(compact(value).as_str()) {
                return Err(format!(
                    "cell {index} field `{field}`: service {got:?}, direct run {}",
                    compact(value)
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_harness::{run_campaign, CampaignOptions};

    fn flip(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    fn outcomes() -> Vec<JobOutcome> {
        let jobs = vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("blackscholes", "GA", 1e-6, Scale::Small),
        ];
        run_campaign(&jobs, &CampaignOptions::default())
    }

    #[test]
    fn honest_results_pass_and_one_flipped_bit_is_caught() {
        let mut outcomes = outcomes();
        let mut oracle = Oracle::new();
        assert_eq!(oracle.check_all(&outcomes), Vec::<String>::new());

        // The same flip in the result document changes the digest and
        // fails the status comparison.
        let docs = result_docs(&outcomes);
        let status = Json::Object(vec![("cells".into(), Json::Array(docs.clone()))]);
        assert_eq!(compare_cells(&docs, &status), Ok(()));

        let best = outcomes[0]
            .outcome
            .as_mut()
            .expect("clean cell")
            .result
            .best
            .as_mut()
            .expect("tridiag DD finds a configuration");
        best.speedup = flip(best.speedup);
        let errors = oracle.check_all(&outcomes);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("tridiag"), "{errors:?}");

        let flipped = result_docs(&outcomes);
        assert_ne!(digest(&docs), digest(&flipped));
        assert!(compare_cells(&flipped, &status).is_err());
    }

    #[test]
    fn a_flipped_quality_bit_is_caught_by_a_fresh_oracle() {
        let mut outcomes = outcomes();
        let best = outcomes[1]
            .outcome
            .as_mut()
            .expect("clean cell")
            .result
            .best
            .as_mut()
            .expect("blackscholes GA finds a configuration");
        best.quality = flip(best.quality);
        assert_eq!(Oracle::new().check_all(&outcomes).len(), 1);
    }
}
