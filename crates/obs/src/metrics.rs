//! Lock-sharded metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Sharding mirrors the harness's `SharedEvalCache`: metric names hash to
//! one of a fixed set of mutex-guarded maps, so concurrent workers updating
//! *different* metrics rarely contend. Snapshots are rendered through
//! `BTreeMap`s, so their ordering — and everything derived from them
//! (report footer, interchange JSON) — is deterministic.
//!
//! This module must stay free of wall-clock reads (`Instant`/`SystemTime`);
//! `scripts/check_hermetic.sh` greps for them.

use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked name shards.
const SHARD_COUNT: usize = 8;

/// Default histogram bucket upper bounds (inclusive), fixed powers of two.
/// Values above the last bound land in the overflow bucket. The range
/// covers the small-count quantities this workspace observes: batch
/// fan-out widths (≤ 256), retry attempts, partition sizes, shard
/// populations. Quantities with a wider dynamic range register their own
/// bounds via `observe_with_bounds` (e.g. [`DURATION_BOUNDS_US`]).
pub const BUCKET_BOUNDS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Bucket bounds sized for microsecond durations: powers of four from 8 µs
/// to ~8.4 s. The default [`BUCKET_BOUNDS`] top out at 1024, which a single
/// traced kernel run already overflows; these cover everything from one
/// plan interpretation to a whole campaign phase.
pub const DURATION_BOUNDS_US: [u64; 11] = [
    8, 32, 128, 512, 2_048, 8_192, 32_768, 131_072, 524_288, 2_097_152, 8_388_608,
];

/// Index of the bucket an observed value falls in under the default
/// [`BUCKET_BOUNDS`], or `None` for the overflow bucket.
pub fn bucket_index(value: u64) -> Option<usize> {
    bucket_index_in(&BUCKET_BOUNDS, value)
}

/// [`bucket_index`] against an arbitrary ascending bound list.
fn bucket_index_in(bounds: &[u64], value: u64) -> Option<usize> {
    bounds.iter().position(|&bound| value <= bound)
}

enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histo),
}

struct Histo {
    /// Inclusive upper bounds, fixed at first observation; the default is
    /// [`BUCKET_BOUNDS`].
    bounds: Box<[u64]>,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
}

impl Histo {
    fn with_bounds(bounds: &[u64]) -> Histo {
        Histo {
            bounds: bounds.into(),
            buckets: vec![0; bounds.len()],
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        match bucket_index_in(&self.bounds, value) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// The registry proper. Internal to the crate — callers go through
/// [`crate::Obs`], whose noop handle skips the registry entirely.
pub(crate) struct Registry {
    shards: Vec<Mutex<HashMap<String, Metric>>>,
}

/// Mutex recovery: a poisoned metrics shard or sink only means some other
/// thread panicked mid-update; the data itself is still structurally sound
/// and observability must never take the campaign down with it.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARD_COUNT]
    }

    /// Adds to a counter, creating it at zero on first touch. A name
    /// already registered as a different kind is left untouched — metrics
    /// are best-effort and must never panic under the harness's no-panic
    /// guard discipline.
    pub(crate) fn counter_add(&self, name: &str, n: u64) {
        let mut shard = lock_recovering(self.shard(name));
        if let Metric::Counter(v) = shard.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            *v += n
        }
    }

    /// Sets a gauge to the given value (last write wins).
    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        let mut shard = lock_recovering(self.shard(name));
        if let Metric::Gauge(v) = shard
            .entry(name.to_string())
            .or_insert(Metric::Gauge(value))
        {
            *v = value
        }
    }

    /// Records one observation into a fixed-bucket histogram with the
    /// default [`BUCKET_BOUNDS`].
    pub(crate) fn observe(&self, name: &str, value: u64) {
        self.observe_with_bounds(name, value, &BUCKET_BOUNDS);
    }

    /// Records one observation into a histogram whose bucket bounds are
    /// `bounds` (inclusive upper bounds, ascending). The bounds are fixed
    /// by the histogram's **first** observation; later calls fold into the
    /// registered buckets regardless of the bounds they pass, so one late
    /// caller with a stale list cannot fork the series.
    pub(crate) fn observe_with_bounds(&self, name: &str, value: u64, bounds: &[u64]) {
        let mut shard = lock_recovering(self.shard(name));
        if let Metric::Histogram(h) = shard
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histo::with_bounds(bounds)))
        {
            h.observe(value)
        }
    }

    /// A deterministic point-in-time copy of every metric.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (name, metric) in lock_recovering(shard).iter() {
                match metric {
                    Metric::Counter(v) => {
                        snap.counters.insert(name.clone(), *v);
                    }
                    Metric::Gauge(v) => {
                        snap.gauges.insert(name.clone(), *v);
                    }
                    Metric::Histogram(h) => {
                        snap.histograms.insert(
                            name.clone(),
                            HistogramSnapshot {
                                count: h.count,
                                sum: h.sum,
                                buckets: h
                                    .bounds
                                    .iter()
                                    .zip(h.buckets.iter())
                                    .map(|(&bound, &count)| (bound, count))
                                    .collect(),
                                overflow: h.overflow,
                            },
                        );
                    }
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of a histogram: per-bucket `(upper bound, count)`
/// pairs plus the overflow count and running totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// `(inclusive upper bound, count)` per fixed bucket.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of the bucket holding the `q`-quantile
    /// observation (`0.0 ..= 1.0`, clamped). Bucketed histograms cannot
    /// recover exact order statistics, so this is an upper estimate that is
    /// tight to one bucket. Returns `None` for an empty histogram and
    /// `Some(u64::MAX)` when the quantile falls in the overflow bucket —
    /// i.e. "above the last bound" is all that is known.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bound, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return Some(bound);
            }
        }
        Some(u64::MAX)
    }
}

/// Deterministically ordered copy of the whole registry, rendered into the
/// campaign report footer and the interchange JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when no metric was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable rendering for the campaign report footer: one line
    /// per metric, sorted by name, histograms showing only non-empty
    /// buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("  counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  gauge {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  histogram {name}: count={} sum={}",
                h.count, h.sum
            ));
            for &(bound, count) in &h.buckets {
                if count > 0 {
                    out.push_str(&format!(" le{bound}={count}"));
                }
            }
            if h.overflow > 0 {
                out.push_str(&format!(" over={}", h.overflow));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1), Some(0));
        assert_eq!(bucket_index(2), Some(1));
        assert_eq!(bucket_index(3), Some(2)); // first bound ≥ 3 is 4
        assert_eq!(bucket_index(4), Some(2));
        assert_eq!(bucket_index(5), Some(3));
        assert_eq!(bucket_index(256), Some(8));
        assert_eq!(bucket_index(1024), Some(10));
        assert_eq!(bucket_index(1025), None);
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn histogram_accumulates_counts_sum_and_overflow() {
        let r = Registry::new();
        for v in [1, 1, 3, 1024, 5000] {
            r.observe("width", v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["width"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1 + 1 + 3 + 1024 + 5000);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.buckets[0], (1, 2)); // two observations of 1
        assert_eq!(h.buckets[2], (4, 1)); // the 3
        assert_eq!(h.buckets[10], (1024, 1));
    }

    #[test]
    fn custom_bounds_are_fixed_by_the_first_observation() {
        let r = Registry::new();
        r.observe_with_bounds("lat_us", 300, &DURATION_BOUNDS_US);
        // A later caller with the default bounds folds into the registered
        // duration buckets instead of forking the series.
        r.observe("lat_us", 5_000);
        r.observe_with_bounds("lat_us", 40_000_000, &BUCKET_BOUNDS);
        let snap = r.snapshot();
        let h = &snap.histograms["lat_us"];
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.len(), DURATION_BOUNDS_US.len());
        assert_eq!(h.buckets[3], (512, 1), "300 µs lands in le512");
        assert_eq!(h.buckets[4], (2_048, 0));
        assert_eq!(h.buckets[5], (8_192, 1), "5 ms lands in le8192");
        assert_eq!(h.overflow, 1, "40 s overflows even duration bounds");
    }

    #[test]
    fn quantile_returns_the_covering_bucket_bound() {
        let r = Registry::new();
        for v in [1, 1, 1, 6, 6, 6, 6, 6, 100, 5000] {
            r.observe("q", v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["q"];
        assert_eq!(h.quantile(0.0), Some(1), "rank clamps to the first value");
        assert_eq!(h.quantile(0.3), Some(1));
        assert_eq!(h.quantile(0.5), Some(8), "6 lands in le8");
        assert_eq!(h.quantile(0.9), Some(128));
        assert_eq!(h.quantile(1.0), Some(u64::MAX), "max is in overflow");
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![(1, 0)],
            overflow: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        r.gauge_set("workers", 4.0);
        r.gauge_set("workers", 8.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters["hits"], 5);
        assert_eq!(snap.gauges["workers"], 8.0);
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn kind_conflicts_are_ignored_not_panics() {
        let r = Registry::new();
        r.counter_add("x", 1);
        r.gauge_set("x", 9.0); // wrong kind: dropped
        r.observe("x", 7); // wrong kind: dropped
        let snap = r.snapshot();
        assert_eq!(snap.counters["x"], 1);
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_ordering_is_name_sorted() {
        let r = Registry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn render_text_lists_only_populated_buckets() {
        let r = Registry::new();
        r.counter_add("c", 7);
        r.observe("h", 3);
        r.observe("h", 2000);
        let text = r.snapshot().render_text();
        assert!(text.contains("counter c = 7"));
        assert!(text.contains("histogram h: count=2 sum=2003 le4=1 over=1"));
        assert!(!text.contains("le1="));
    }
}
