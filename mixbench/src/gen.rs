//! The four workloads and the seeded generators of their inputs.
//!
//! Every input is a pure function of `(seed, round)`: job lists for the
//! campaign workloads, arrival schedules for the service. The program
//! under test only ever receives the generated jobs.

use mixp_core::synth::SplitMix64;
use mixp_harness::{benchmark_names, Job, Scale};
use std::collections::BTreeSet;
use std::time::Duration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale applications through `run_campaign_with_stats`.
    AppsPaper,
    /// The paper's kernel grid swept over thresholds.
    KernelsPaper,
    /// Every benchmark at small scale, many cheap evaluations.
    SweepSmall,
    /// The campaign daemon under open-loop arrivals and a burst.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AppsPaper,
        Workload::KernelsPaper,
        Workload::SweepSmall,
        Workload::ServeOpen,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsPaper => "apps-paper",
            Workload::KernelsPaper => "kernels-paper",
            Workload::SweepSmall => "sweep-small",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated inputs are. `Tiny` shrinks every workload to a
/// handful of small-scale cells for the in-process smoke test; the shape
/// (which layers run) is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Smoke-test size.
    Tiny,
}

/// Applications of the `apps-paper` workload. lavamd is left out: at
/// paper scale one evaluation takes 0.2–0.4 s and one cell 1–11 s, so a
/// single lavamd cell would outlast a whole run. It stays covered at small
/// scale by `sweep-small` and `serve-open`.
const PAPER_APPS: [&str; 6] = ["hotspot", "blackscholes", "cfd", "hpccg", "kmeans", "srad"];

/// Relative width of the seeded jitter around each threshold grid point,
/// as a share of the grid step. Search lengths jump where a threshold
/// crosses a benchmark's error level; keeping each draw near its grid
/// point makes every seed a distinct input whose total work stays
/// comparable to other seeds'.
const JITTER: f64 = 0.2;

/// The cell grid of one campaign workload.
struct Grid {
    benchmarks: Vec<&'static str>,
    algorithms: &'static [&'static str],
    scale: Scale,
    /// Threshold range as base-10 exponents.
    exponents: (f64, f64),
    /// Thresholds per (benchmark, algorithm) pair in one round.
    points: usize,
    budget: usize,
    /// Order a round by pair, each pair's thresholds adjacent, instead of
    /// by threshold.
    pair_major: bool,
}

fn kernels() -> Vec<&'static str> {
    benchmark_names()[..10].to_vec()
}

fn is_kernel(name: &str) -> bool {
    kernels().contains(&name)
}

fn grid(workload: Workload, size: Size) -> Grid {
    let (benchmarks, algorithms, scale, exponents, points): (Vec<&str>, &[&str], _, _, _) =
        match workload {
            // A hotspot GA cell holds about 100 MB, which the allocator
            // keeps in the arena of the thread that ran it. Pair-major order
            // with hotspot GA first starts both of a round's hotspot GA cells
            // together, one per pool thread, so every run peaks with two such
            // arenas; left to the schedule, peak memory jumped between 128
            // and 205 MB from run to run.
            Workload::AppsPaper => (
                PAPER_APPS.to_vec(),
                &["GA", "DD", "HR", "HR+"],
                Scale::Paper,
                (-8.0, -3.0),
                2,
            ),
            Workload::KernelsPaper => (
                kernels(),
                &["CB", "CB3", "CM", "DD", "DDV", "HR", "HC", "GA", "HR+"],
                Scale::Paper,
                (-13.0, -3.0),
                8,
            ),
            Workload::SweepSmall | Workload::ServeOpen => (
                benchmark_names(),
                &["CB", "CM", "DD", "DDV", "HR", "HC", "GA", "HR+"],
                Scale::Small,
                (-10.0, -3.0),
                8,
            ),
        };
    match size {
        Size::Full => Grid {
            benchmarks,
            algorithms,
            scale,
            exponents,
            points,
            budget: Job::DEFAULT_BUDGET,
            pair_major: workload == Workload::AppsPaper,
        },
        Size::Tiny => Grid {
            // One kernel and one application, so both the IR and the
            // hand-written paths run; GA evaluates in batches.
            benchmarks: vec!["tridiag", "blackscholes"],
            algorithms: &["DD", "GA"],
            scale: Scale::Small,
            exponents,
            points: 1,
            budget: 16,
            pair_major: false,
        },
    }
}

/// Which generator a random stream feeds.
#[derive(Clone, Copy)]
enum Stream {
    Round = 1,
    OpenLoop,
    Burst,
    Paced,
    Sample,
}

/// An independent random stream for `(seed, kind, round)`.
fn stream(seed: u64, kind: Stream, round: u64) -> SplitMix64 {
    let salt = ((kind as u64) << 32) | round;
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The job list of round `round` of a campaign workload: every
/// (benchmark, algorithm) pair at `points` thresholds, one near each point
/// of a log-spaced grid over the workload's range. CB (the exhaustive
/// search) runs on kernels only.
pub fn round_jobs(workload: Workload, size: Size, seed: u64, round: u64) -> Vec<Job> {
    let g = grid(workload, size);
    let mut rng = stream(seed, Stream::Round, round);
    let (lo, hi) = g.exponents;
    let step = (hi - lo) / g.points as f64;
    let mut jobs = Vec::new();
    for point in 0..g.points {
        for &benchmark in &g.benchmarks {
            for &algorithm in g.algorithms {
                if algorithm == "CB" && !is_kernel(benchmark) {
                    continue;
                }
                let offset = 0.5 + JITTER * (rng.next_f64() - 0.5);
                let threshold = 10f64.powf(lo + step * (point as f64 + offset));
                let mut job = Job::new(benchmark, algorithm, threshold, g.scale);
                job.budget = g.budget;
                jobs.push(job);
            }
        }
    }
    if g.pair_major {
        let position = |list: &[&str], name: &str| list.iter().position(|x| *x == name);
        jobs.sort_by_key(|j| {
            (
                position(&g.benchmarks, &j.benchmark),
                position(g.algorithms, &j.algorithm),
            )
        });
    }
    jobs
}

/// One campaign submitted to the service: when it is due (from the start
/// of its phase), whose it is, and its cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled send time, from the start of the phase.
    pub due: Duration,
    /// Tenant name.
    pub tenant: String,
    /// The campaign's cells.
    pub jobs: Vec<Job>,
}

/// Service campaigns' algorithms; CB (last) only on kernels.
const SERVE_ALGORITHMS: [&str; 6] = ["DD", "HR", "GA", "HR+", "DDV", "CB"];

/// Budget of every service cell.
const SERVE_BUDGET: usize = 64;

/// A campaign of 1–3 small-scale cells from 4 tenants: benchmark uniform
/// over all 17, threshold log-uniform in [1e-10, 1e-3].
fn serve_campaign(rng: &mut SplitMix64, size: Size) -> (String, Vec<Job>) {
    let tenant = format!("t{}", rng.next_range(4));
    let names = match size {
        Size::Full => benchmark_names(),
        Size::Tiny => vec!["tridiag", "blackscholes"],
    };
    let cells = 1 + rng.next_range(3);
    let jobs = (0..cells)
        .map(|_| {
            let benchmark = names[rng.next_range(names.len() as u64) as usize];
            let choices = if is_kernel(benchmark) { 6 } else { 5 };
            let algorithm = SERVE_ALGORITHMS[rng.next_range(choices) as usize];
            let threshold = 10f64.powf(-10.0 + 7.0 * rng.next_f64());
            let mut job = Job::new(benchmark, algorithm, threshold, Scale::Small);
            job.budget = match size {
                Size::Full => SERVE_BUDGET,
                Size::Tiny => 8,
            };
            job
        })
        .collect();
    (tenant, jobs)
}

/// Poisson arrivals at `rate` campaigns per second for `duration`, for
/// segment `round` of a run.
pub fn open_loop(seed: u64, round: u64, size: Size, rate: f64, duration: Duration) -> Vec<Arrival> {
    let mut rng = stream(seed, Stream::OpenLoop, round);
    let mut t = 0.0;
    let mut arrivals = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration.as_secs_f64() {
            return arrivals;
        }
        let (tenant, jobs) = serve_campaign(&mut rng, size);
        arrivals.push(Arrival {
            due: Duration::from_secs_f64(t),
            tenant,
            jobs,
        });
    }
}

/// `count` campaigns all due at once, for segment `round` of a run.
pub fn burst(seed: u64, round: u64, size: Size, count: usize) -> Vec<Arrival> {
    let mut rng = stream(seed, Stream::Burst, round);
    (0..count)
        .map(|_| {
            let (tenant, jobs) = serve_campaign(&mut rng, size);
            Arrival {
                due: Duration::ZERO,
                tenant,
                jobs,
            }
        })
        .collect()
}

/// `count` one-cell campaigns sampled from `jobs`, each budget capped at
/// `budget_cap`, due every `spacing`: the service probe of a campaign
/// workload.
pub fn paced(
    jobs: &[Job],
    seed: u64,
    count: usize,
    spacing: Duration,
    budget_cap: usize,
) -> Vec<Arrival> {
    let mut rng = stream(seed, Stream::Paced, 0);
    (0..count)
        .map(|i| {
            let mut job = jobs[rng.next_range(jobs.len() as u64) as usize].clone();
            job.budget = job.budget.min(budget_cap);
            Arrival {
                due: spacing * i as u32,
                tenant: format!("t{}", i % 4),
                jobs: vec![job],
            }
        })
        .collect()
}

/// Picks `count` distinct indices below `len`, sorted, from `seed`.
pub fn sample(seed: u64, len: usize, count: usize) -> Vec<usize> {
    let mut rng = stream(seed, Stream::Sample, 0);
    let mut indices: Vec<usize> = (0..len).collect();
    // Partial Fisher–Yates: the first `count` slots become the sample.
    for i in 0..count.min(len) {
        let j = i + rng.next_range((len - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(count.min(len));
    indices.sort_unstable();
    indices
}

/// Distinct (benchmark, scale) pairs of `jobs`, sorted.
pub fn distinct(jobs: &[Job]) -> Vec<(String, Scale)> {
    let set: BTreeSet<(String, bool)> = jobs
        .iter()
        .map(|j| (j.benchmark.clone(), j.scale == Scale::Paper))
        .collect();
    set.into_iter()
        .map(|(name, paper)| (name, if paper { Scale::Paper } else { Scale::Small }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_a_function_of_the_seed() {
        for w in [
            Workload::AppsPaper,
            Workload::KernelsPaper,
            Workload::SweepSmall,
        ] {
            let a = round_jobs(w, Size::Full, 7, 0);
            assert_eq!(a, round_jobs(w, Size::Full, 7, 0), "{w:?}");
            assert_ne!(a, round_jobs(w, Size::Full, 8, 0), "{w:?}");
            assert_ne!(a, round_jobs(w, Size::Full, 7, 1), "{w:?}");
        }
    }

    #[test]
    fn grids_have_the_documented_shape() {
        let apps = round_jobs(Workload::AppsPaper, Size::Full, 1, 0);
        assert_eq!(apps.len(), 6 * 4 * 2);
        assert!(apps
            .iter()
            .all(|j| j.scale == Scale::Paper && j.budget == 512));
        assert!(apps.iter().all(|j| (1e-8..=1e-3).contains(&j.threshold)));
        assert!(apps[..2]
            .iter()
            .all(|j| j.benchmark == "hotspot" && j.algorithm == "GA"));
        let kernels = round_jobs(Workload::KernelsPaper, Size::Full, 1, 0);
        assert_eq!(kernels.len(), 10 * 9 * 8);
        assert!(kernels
            .iter()
            .all(|j| (1e-13..=1e-3).contains(&j.threshold)));
        let sweep = round_jobs(Workload::SweepSmall, Size::Full, 1, 0);
        assert_eq!(sweep.len(), (10 * 8 + 7 * 7) * 8);
        assert!(sweep
            .iter()
            .all(|j| j.algorithm != "CB" || is_kernel(&j.benchmark)));
    }

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let d = Duration::from_secs(2);
        let a = open_loop(3, 0, Size::Full, 150.0, d);
        assert_eq!(a, open_loop(3, 0, Size::Full, 150.0, d));
        assert_ne!(a, open_loop(4, 0, Size::Full, 150.0, d));
        assert_ne!(a, open_loop(3, 1, Size::Full, 150.0, d));
        // About rate × duration arrivals, in due order, inside the window.
        assert!((200..400).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|x| x.due < d && (1..=3).contains(&x.jobs.len())));
        assert!(a
            .iter()
            .flat_map(|x| &x.jobs)
            .all(|j| j.algorithm != "CB" || is_kernel(&j.benchmark)));
        assert_eq!(burst(3, 0, Size::Full, 50), burst(3, 0, Size::Full, 50));
        assert_ne!(burst(3, 0, Size::Full, 50), burst(4, 0, Size::Full, 50));
        assert_ne!(burst(3, 0, Size::Full, 50), burst(3, 1, Size::Full, 50));
        let jobs = round_jobs(Workload::AppsPaper, Size::Full, 1, 0);
        let p = paced(&jobs, 5, 10, Duration::from_millis(20), 4);
        assert_eq!(p, paced(&jobs, 5, 10, Duration::from_millis(20), 4));
        assert_ne!(p, paced(&jobs, 6, 10, Duration::from_millis(20), 4));
        assert!(p.iter().all(|x| x.jobs.len() == 1 && x.jobs[0].budget == 4));
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let s = sample(9, 100, 25);
        assert_eq!(s.len(), 25);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s, sample(9, 100, 25));
        assert_ne!(s, sample(10, 100, 25));
        assert_eq!(sample(1, 3, 25), vec![0, 1, 2]);
    }
}
