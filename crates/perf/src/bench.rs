//! Minimal in-tree benchmarking harness (the workspace's `criterion`
//! replacement).
//!
//! Keeps the `[[bench]]` targets in `crates/bench` runnable via
//! `cargo bench` with zero external dependencies: a warmup phase, N timed
//! samples, and a median/p10/p90 summary per benchmark, with
//! [`black_box`] re-exported so measured results cannot be optimised
//! away.
//!
//! ```no_run
//! use mixp_perf::bench::{black_box, BenchGroup};
//!
//! fn main() {
//!     let mut group = BenchGroup::new("example");
//!     group.sample_size(10);
//!     group.bench_function("sum_1k", |b| {
//!         b.iter(|| black_box((0..1000u64).sum::<u64>()))
//!     });
//!     group.finish();
//! }
//! ```
//!
//! Set `MIXP_BENCH_QUICK=1` to smoke-run every target with a single
//! sample and no warmup (used by CI to verify the benches still run).
//!
//! Set `MIXP_BENCH_JSON=<path>` to additionally emit the summary as a
//! machine-readable JSON document when the group finishes — the format of
//! the committed `BENCH_*.json` baselines, with the host's available
//! parallelism recorded automatically so a baseline captured on a
//! single-core container is never mistaken for a multicore result. When
//! `<path>` is an existing directory the file is written as
//! `<path>/BENCH_<group>.json`; otherwise `<path>` is used verbatim.

pub use std::hint::black_box;

use mixp_obs::json::Json;
use std::time::{Duration, Instant};

/// A named group of benchmarks sharing warmup/sample settings.
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    quick: bool,
    results: Vec<(String, Stats)>,
}

impl BenchGroup {
    /// Creates a group with the defaults: 20 samples, 300 ms warmup,
    /// 2 s measurement budget.
    pub fn new(name: impl Into<String>) -> Self {
        let quick = std::env::var("MIXP_BENCH_QUICK").is_ok_and(|v| v != "0");
        BenchGroup {
            name: name.into(),
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
            quick,
            results: Vec::new(),
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the warmup duration (untimed iterations before sampling).
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement budget: sampling stops early once it is
    /// exhausted (at least one sample is always taken).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark. The closure receives a [`Bencher`] and must
    /// call [`Bencher::iter`] with the routine to measure.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (warm_up, sample_size, measurement) = if self.quick {
            (Duration::ZERO, 1, Duration::from_millis(100))
        } else {
            (self.warm_up, self.sample_size, self.measurement)
        };
        let mut b = Bencher {
            warm_up,
            sample_size,
            measurement,
            samples: Vec::new(),
        };
        f(&mut b);
        let stats = Stats::from_samples(&b.samples);
        println!("{}/{id}  {stats}", self.name);
        self.results.push((id.to_string(), stats));
        self
    }

    /// Ends the group: prints a separator line and, when
    /// `MIXP_BENCH_JSON` is set, writes the JSON summary (see the module
    /// docs for the path rules).
    pub fn finish(&mut self) {
        println!();
        let Ok(target) = std::env::var("MIXP_BENCH_JSON") else {
            return;
        };
        if target.is_empty() {
            return;
        }
        let mut path = std::path::PathBuf::from(&target);
        if path.is_dir() {
            path.push(format!("BENCH_{}.json", self.name));
        }
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }

    /// The group's summary in the committed-baseline JSON format.
    fn to_json(&self) -> String {
        let host = std::thread::available_parallelism().map_or(0, |n| n.get());
        let field = |key: &str, value: Json| (key.to_string(), value);
        let results = self
            .results
            .iter()
            .map(|(id, stats)| {
                Json::Object(vec![
                    field("id", Json::String(id.clone())),
                    field("median_ms", ms(stats.median)),
                    field("p10_ms", ms(stats.p10)),
                    field("p90_ms", ms(stats.p90)),
                    field("samples", Json::Number(stats.n as f64)),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            field("bench", Json::String(self.name.clone())),
            field(
                "source",
                Json::String(format!("cargo bench --offline --bench bench_{}", self.name)),
            ),
            field("host_parallelism", Json::Number(host as f64)),
            field("results", Json::Array(results)),
        ]);
        doc.pretty() + "\n"
    }
}

/// Milliseconds rounded to 4 decimals, enough to stay meaningful for
/// sub-ms runs.
fn ms(d: Duration) -> Json {
    Json::Number((d.as_secs_f64() * 1e7).round() / 1e4)
}

/// Times a single benchmark routine; handed to the
/// [`BenchGroup::bench_function`] closure.
pub struct Bencher {
    warm_up: Duration,
    sample_size: usize,
    measurement: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Warms up, then records one timed sample per routine invocation
    /// until the sample count or the measurement budget is reached.
    pub fn iter<T, R: FnMut() -> T>(&mut self, mut routine: R) {
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up {
            black_box(routine());
        }
        let measure_start = Instant::now();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            if measure_start.elapsed() > self.measurement && !self.samples.is_empty() {
                break;
            }
        }
    }
}

/// Summary statistics over the recorded samples.
struct Stats {
    n: usize,
    median: Duration,
    p10: Duration,
    p90: Duration,
}

impl Stats {
    fn from_samples(samples: &[Duration]) -> Stats {
        assert!(
            !samples.is_empty(),
            "bench_function closure never called Bencher::iter"
        );
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let pick = |q: f64| {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        Stats {
            n: sorted.len(),
            median: pick(0.5),
            p10: pick(0.1),
            p90: pick(0.9),
        }
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {}  p10 {}  p90 {}  ({} samples)",
            fmt_duration(self.median),
            fmt_duration(self.p10),
            fmt_duration(self.p90),
            self.n
        )
    }
}

/// Human-readable duration with an adaptive unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_order_and_bounds() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = Stats::from_samples(&samples);
        assert_eq!(s.n, 100);
        assert!(s.p10 <= s.median && s.median <= s.p90);
        assert_eq!(s.median, Duration::from_micros(51));
        assert_eq!(s.p10, Duration::from_micros(11));
        assert_eq!(s.p90, Duration::from_micros(90));
    }

    #[test]
    fn single_sample_stats_collapse() {
        let s = Stats::from_samples(&[Duration::from_millis(3)]);
        assert_eq!(s.median, s.p10);
        assert_eq!(s.median, s.p90);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            warm_up: Duration::ZERO,
            sample_size: 7,
            measurement: Duration::from_secs(10),
            samples: Vec::new(),
        };
        let mut calls = 0usize;
        b.iter(|| {
            calls += 1;
            calls
        });
        assert_eq!(b.samples.len(), 7);
        assert_eq!(calls, 7);
    }

    #[test]
    fn json_summary_records_host_parallelism_and_results() {
        let mut group = BenchGroup::new("unit");
        group.results.push((
            "fast".to_string(),
            Stats::from_samples(&[Duration::from_micros(1500)]),
        ));
        group.results.push((
            "slow".to_string(),
            Stats::from_samples(&[Duration::from_millis(20), Duration::from_millis(30)]),
        ));
        let doc = mixp_obs::json::parse(&group.to_json()).expect("summary parses");
        let host = std::thread::available_parallelism().map_or(0, |n| n.get());
        assert_eq!(
            doc.get("host_parallelism").and_then(Json::as_f64),
            Some(host as f64)
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        let results = doc
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("id").and_then(Json::as_str), Some("fast"));
        assert_eq!(results[0].get("median_ms"), Some(&Json::Number(1.5)));
        assert_eq!(results[1].get("samples"), Some(&Json::Number(2.0)));
        let keys: Vec<&str> = match &results[1] {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("result row is not an object: {other:?}"),
        };
        assert_eq!(keys, ["id", "median_ms", "p10_ms", "p90_ms", "samples"]);
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        let mut group = BenchGroup::new("a\"b\\c\ny");
        group.results.push((
            "id\t\"x\"".to_string(),
            Stats::from_samples(&[Duration::from_nanos(123_456)]),
        ));
        let doc = mixp_obs::json::parse(&group.to_json()).expect("summary parses");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("a\"b\\c\ny"));
        let row = &doc
            .get("results")
            .and_then(Json::as_array)
            .expect("results")[0];
        assert_eq!(row.get("id").and_then(Json::as_str), Some("id\t\"x\""));
        assert_eq!(row.get("median_ms"), Some(&Json::Number(0.1235)));
    }

    #[test]
    fn duration_formatting_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(15)), "15.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00 s");
    }
}
