//! Order statistics, the FNV digest, and the `/proc` readers the
//! benchmark's resource metrics come from.

use std::path::Path;

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q * n)` (1-based, at least 1). `NaN` for an empty slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
    sorted[rank.min(n) - 1]
}

/// Returns the values sorted ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [(f64, &str); 6] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.9, "p90"),
    (0.75, "p75"),
    (0.5, "p50"),
];

/// A tail timing: the highest ladder percentile that has at least ten
/// samples beyond its rank, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `"p99"`.
    pub label: &'static str,
    /// Its nearest-rank value.
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
}

/// Applies the tail rule to `values`. With fewer than 20 samples no
/// percentile has ten samples beyond it and the median is reported.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    let (q, label) = TAIL_LADDER
        .iter()
        .copied()
        .find(|(q, _)| {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            n >= rank + 10
        })
        .unwrap_or((0.5, "p50"));
    Tail {
        label,
        value: nearest_rank(&s, q),
        n,
    }
}

/// First quartile, median and third quartile with the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads printed by
/// `mixbench compare` match those computed from the same values in
/// Python. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        _ => {
            // Python's algorithm verbatim: the cut point sits at position
            // i * (n + 1) / 4, clamped to an inner pair and interpolated
            // (extrapolated at the clamped ends).
            let m = (n + 1) as i64;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `state` (start with
/// [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn proc_path(pid: u32) -> std::path::PathBuf {
    Path::new("/proc").join(pid.to_string())
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(proc_path(pid).join("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of process `pid` (all its threads), in
/// seconds. `/proc/<pid>/stat` counts in `USER_HZ` ticks, which Linux
/// fixes at 100 per second for user space.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_path(pid).join("stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, with utime and stime as fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, ten below the top.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.label, t.value, t.n), ("p99", 990.0, 1000));
        // 999 samples: p99 has only nine beyond it, so p95 is reported.
        let t = tail(&v[..999]);
        assert_eq!((t.label, t.value), ("p95", 950.0));
        // 10 000 samples reach p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).label, "p99.9");
        // 100 samples: p90 at rank 90 has ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((tail(&v).label, tail(&v).value), ("p90", 90.0));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&[5.0, 1.0, 3.0]).label, "p50");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([3, 1, 7], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 7.0]), (1.0, 3.0, 7.0));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b");
        let b = fnv1a(fnv1a(FNV_OFFSET, b"b"), b"a");
        assert_ne!(a, b);
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds(pid).is_some_and(|s| s >= 0.0));
    }
}
