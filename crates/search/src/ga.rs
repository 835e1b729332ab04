//! Genetic-algorithm search.

use crate::{finish, SearchAlgorithm, SearchResult};
use mixp_core::synth::SplitMix64;
use mixp_core::{Evaluator, Granularity, Value};

/// Tuning knobs of the genetic search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneticParams {
    /// Individuals per generation.
    pub population: usize,
    /// Hard cap on generations — the strict termination criterion that makes
    /// GA's analysis time "the easiest to predict" (§V).
    pub max_generations: usize,
    /// Stop early after this many generations without improvement.
    pub stall_generations: usize,
    /// RNG seed. Changing it changes which configuration GA converges to —
    /// the non-determinism the paper observes on Hotspot.
    pub seed: u64,
}

impl Default for GeneticParams {
    fn default() -> Self {
        GeneticParams {
            population: 8,
            max_generations: 6,
            stall_generations: 2,
            seed: 0x6841_u64,
        }
    }
}

/// Genetic-algorithm search (GA): the CRAFT extension contributed by the
/// paper (§II-B).
///
/// A configuration is a bit string over the clusters (1 = lowered). The
/// population starts random; each generation selects fit parents by binary
/// tournament, combines them by single-point crossover and mutates bits
/// with probability `1/n`. Fitness is the achieved speedup when the
/// configuration passes verification, and 0 otherwise. The search stops
/// after a fixed number of generations or when the best individual stops
/// improving — so the number of evaluated configurations is tightly bounded,
/// at the price of randomness in the result.
#[derive(Debug, Clone, Copy)]
pub struct Genetic {
    params: GeneticParams,
}

impl Genetic {
    /// Creates the algorithm with the given parameters.
    pub fn new(params: GeneticParams) -> Self {
        Genetic { params }
    }

    /// The active parameters.
    pub fn params(&self) -> GeneticParams {
        self.params
    }
}

impl Default for Genetic {
    fn default() -> Self {
        Genetic::new(GeneticParams::default())
    }
}

type Individual = Vec<bool>;

fn random_individual(rng: &mut SplitMix64, n: usize) -> Individual {
    (0..n).map(|_| rng.next_u64() & 1 == 1).collect()
}

fn crossover(rng: &mut SplitMix64, a: &Individual, b: &Individual) -> Individual {
    let n = a.len();
    if n <= 1 {
        return a.clone();
    }
    let cut = 1 + rng.next_range((n - 1) as u64) as usize;
    a[..cut].iter().chain(&b[cut..]).copied().collect()
}

fn mutate(rng: &mut SplitMix64, ind: &mut Individual) {
    let n = ind.len().max(1);
    for bit in ind.iter_mut() {
        if rng.next_range(n as u64) == 0 {
            *bit = !*bit;
        }
    }
}

impl SearchAlgorithm for Genetic {
    fn name(&self) -> &str {
        "GA"
    }

    fn full_name(&self) -> &str {
        "genetic"
    }

    fn search(&self, ev: &mut Evaluator<'_>) -> SearchResult {
        let space = ev.space(Granularity::Clusters);
        let n = space.len();
        if n == 0 {
            return finish(ev, false);
        }
        let p = self.params;
        let mut rng = SplitMix64::new(p.seed);

        // Scores a whole generation in one batch — the GA's natural
        // frontier, since fitness values are only consumed after the full
        // generation is evaluated. `None` propagates budget exhaustion.
        let score_generation = |ev: &mut Evaluator<'_>, pop: &[Individual]| -> Option<Vec<f64>> {
            let cfgs: Vec<_> = pop
                .iter()
                .map(|ind| space.config_from_mask(ev.program(), ind))
                .collect();
            let mut scores = Vec::with_capacity(pop.len());
            for res in ev.evaluate_batch(&cfgs) {
                match res {
                    Ok(rec) if rec.passes => scores.push(rec.speedup),
                    Ok(_) => scores.push(0.0),
                    Err(_) => return None,
                }
            }
            Some(scores)
        };

        let obs = ev.obs();
        let mut population: Vec<Individual> = (0..p.population)
            .map(|_| random_individual(&mut rng, n))
            .collect();
        let gen0 = obs.span("ga.generation", &[("gen", Value::U64(0))]);
        let mut scores = match score_generation(ev, &population) {
            Some(s) => s,
            None => return finish(ev, true),
        };
        gen0.end_with(&[]);

        let mut best_score = scores.iter().copied().fold(0.0, f64::max);
        let mut stall = 0usize;

        for _gen in 1..p.max_generations {
            if stall >= p.stall_generations {
                break;
            }
            // Binary-tournament parent selection.
            let select = |rng: &mut SplitMix64| -> usize {
                let a = rng.next_range(p.population as u64) as usize;
                let b = rng.next_range(p.population as u64) as usize;
                if scores[a] >= scores[b] {
                    a
                } else {
                    b
                }
            };
            // Elitism: keep the single best individual.
            let elite = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let mut next_pop = vec![population[elite].clone()];
            while next_pop.len() < p.population {
                let (pa, pb) = (select(&mut rng), select(&mut rng));
                let mut child = crossover(&mut rng, &population[pa], &population[pb]);
                mutate(&mut rng, &mut child);
                next_pop.push(child);
            }
            population = next_pop;
            let span = obs.span("ga.generation", &[("gen", Value::U64(_gen as u64))]);
            scores = match score_generation(ev, &population) {
                Some(s) => s,
                None => return finish(ev, true),
            };
            let gen_best = scores.iter().copied().fold(0.0, f64::max);
            span.end_with(&[("best", Value::F64(gen_best))]);
            if gen_best > best_score + 1e-12 {
                best_score = gen_best;
                stall = 0;
            } else {
                stall += 1;
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
    fn crossover_preserves_length() {
        let mut rng = SplitMix64::new(1);
        let a = vec![true; 8];
        let b = vec![false; 8];
        let c = crossover(&mut rng, &a, &b);
        assert_eq!(c.len(), 8);
        assert!(c[0], "prefix comes from a");
    }

    #[test]
    fn mutate_flips_roughly_one_bit() {
        let mut rng = SplitMix64::new(2);
        let mut flips = 0usize;
        for _ in 0..200 {
            let mut ind = vec![false; 10];
            mutate(&mut rng, &mut ind);
            flips += ind.iter().filter(|b| **b).count();
        }
        let avg = flips as f64 / 200.0;
        assert!((0.5..2.0).contains(&avg), "average flips {avg}");
    }

    #[test]
    fn ga_is_deterministic_for_a_fixed_seed() {
        let k = Eos::small();
        let mut ev1 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r1 = Genetic::default().search(&mut ev1);
        let mut ev2 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r2 = Genetic::default().search(&mut ev2);
        assert_eq!(r1.evaluated, r2.evaluated);
        assert_eq!(
            r1.best.map(|b| b.config.key()),
            r2.best.map(|b| b.config.key())
        );
    }

    #[test]
    fn different_seeds_may_visit_different_configs() {
        let k = Hydro1d::small();
        let mut ev1 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r1 = Genetic::new(GeneticParams {
            seed: 1,
            ..GeneticParams::default()
        })
        .search(&mut ev1);
        let mut ev2 = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r2 = Genetic::new(GeneticParams {
            seed: 2,
            ..GeneticParams::default()
        })
        .search(&mut ev2);
        // Both must find *something* at this loose threshold.
        assert!(r1.best.is_some() && r2.best.is_some());
    }

    #[test]
    fn evaluation_count_is_bounded_by_generations() {
        let k = Tridiag::small();
        let p = GeneticParams::default();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let r = Genetic::new(p).search(&mut ev);
        assert!(!r.dnf);
        assert!(r.evaluated <= p.population * p.max_generations);
    }

    #[test]
    fn budget_exhaustion_reports_dnf() {
        let k = Eos::small();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .budget(2)
            .build(&k);
        let r = Genetic::default().search(&mut ev);
        assert!(r.dnf);
    }
}
