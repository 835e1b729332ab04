//! Metric definitions, run records and `mixbench compare`.
//!
//! `BENCHMARK.json` at the repository root is the single source of metric
//! names, units, directions and regression bounds; `baseline.json` next
//! to this package holds the default seed, the expected result digests and
//! the first measured baseline.

use crate::stats::{median, quartiles};
use mixp_harness::checkpoint::compact;
use mixp_harness::json::{parse, Json};
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const BASELINE_JSON: &str = include_str!("../baseline.json");

/// One metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen (end-to-end
    /// metrics only; `0` for per-layer metrics, which have none).
    pub bound: f64,
}

/// The benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Default measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| MetricDef {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .expect("metric unit")
                .to_string(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// Parses the committed `BENCHMARK.json`.
pub fn spec() -> Spec {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json sets run_seconds") as u64,
        end_to_end: metric_defs(&doc, "end_to_end"),
        per_layer: metric_defs(&doc, "per_layer"),
    }
}

fn baseline() -> Json {
    parse(BASELINE_JSON).expect("baseline.json is valid JSON")
}

/// The seed a run uses when none is given, and the one the committed
/// digests were taken with.
pub fn default_seed() -> u64 {
    baseline()
        .get("default_seed")
        .and_then(Json::as_f64)
        .expect("baseline.json sets default_seed") as u64
}

/// The committed result digest of `workload` at the default seed, if one
/// has been recorded.
pub fn expected_digest(workload: &str) -> Option<String> {
    baseline()
        .get("digests")?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time asked for, in seconds.
    pub seconds: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted: campaign cells, or submitted campaigns.
    pub attempted: u64,
    /// Failed cells, rejected or unfinished campaigns, and oracle
    /// mismatches.
    pub failed: u64,
    /// Whether the host and the generator met the run's preconditions
    /// (at least 2 CPUs; open-loop sends at most 2 ms late).
    pub valid: bool,
    /// `std::thread::available_parallelism` of the host.
    pub host_parallelism: usize,
    /// Campaign pool width and evaluator batch width.
    pub widths: (usize, usize),
    /// FNV-1a digest of the first round's result documents.
    pub digest: String,
    /// Free-form remarks: tail percentiles and their sample counts,
    /// oracle mismatches.
    pub notes: Vec<String>,
    /// Metric values, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    /// Whether every operation succeeded and every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// One metric's value.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The record as one JSON document.
    pub fn to_json(&self) -> Json {
        let num = |v: f64| Json::Number(v);
        Json::Object(vec![
            ("workload".into(), Json::String(self.workload.clone())),
            ("seed".into(), num(self.seed as f64)),
            ("seconds".into(), num(self.seconds as f64)),
            ("traced".into(), Json::Bool(self.traced)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("valid".into(), Json::Bool(self.valid)),
            ("host_parallelism".into(), num(self.host_parallelism as f64)),
            ("workers".into(), num(self.widths.0 as f64)),
            ("eval_workers".into(), num(self.widths.1 as f64)),
            ("digest".into(), Json::String(self.digest.clone())),
            (
                "notes".into(),
                Json::Array(self.notes.iter().cloned().map(Json::String).collect()),
            ),
            (
                "metrics".into(),
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), num(*value)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a document written by [`Record::to_json`].
    pub fn from_json(doc: &Json) -> Option<Record> {
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            return None;
        };
        Some(Record {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            traced: doc.get("traced")? == &Json::Bool(true),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            valid: doc.get("valid")? == &Json::Bool(true),
            host_parallelism: num("host_parallelism")? as usize,
            widths: (num("workers")? as usize, num("eval_workers")? as usize),
            digest: doc.get("digest")?.as_str()?.to_string(),
            notes: doc
                .get("notes")?
                .as_array()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            metrics: metrics
                .iter()
                .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// The one-line JSON summary a run prints last:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
/// With several workloads, metric names are prefixed `<workload>/`.
pub fn summary_line(records: &[Record], defs: &[MetricDef]) -> String {
    let unit = |name: &str| {
        defs.iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
            .to_string()
    };
    let metrics = records
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |(name, value)| {
                let key = if records.len() == 1 {
                    name.clone()
                } else {
                    format!("{}/{name}", r.workload)
                };
                (
                    key,
                    Json::Object(vec![
                        ("value".into(), Json::Number(*value)),
                        ("unit".into(), Json::String(unit(name))),
                    ]),
                )
            })
        })
        .collect();
    compact(&Json::Object(vec![
        (
            "correct".into(),
            Json::Bool(records.iter().all(Record::correct)),
        ),
        (
            "attempted".into(),
            Json::Number(records.iter().map(|r| r.attempted).sum::<u64>() as f64),
        ),
        (
            "failed".into(),
            Json::Number(records.iter().map(|r| r.failed).sum::<u64>() as f64),
        ),
        ("metrics".into(), Json::Object(metrics)),
    ]))
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Every run of B beats every run of A.
    Better,
    /// Run-to-run spread wider than the bound: no conclusion.
    Unresolved,
}

/// Compares A's and B's values of one metric. Spreads are quartile
/// distances over the median; a side whose spread exceeds the bound
/// leaves the metric unresolved, unless B's runs all beat A's.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
        return Verdict::Better;
    }
    let spread = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        (q3 - q1) / m.abs()
    };
    if spread(a) > def.bound || spread(b) > def.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if def.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            parse(line)
                .ok()
                .and_then(|doc| Record::from_json(&doc))
                .ok_or_else(|| format!("{path}: not a mixbench record: {line}"))
        })
        .collect()
}

/// `mixbench compare A.jsonl B.jsonl`: per workload and end-to-end
/// metric, each side's median and quartiles and the verdict. Returns the
/// exit code: 1 if any metric got worse beyond its bound, else 0.
pub fn compare_files(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: mixbench compare A.jsonl B.jsonl");
        return 2;
    };
    let (a, b) = match (read_records(a), read_records(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let group = |records: Vec<Record>| {
        let mut by: BTreeMap<String, Vec<Record>> = BTreeMap::new();
        for r in records.into_iter().filter(|r| !r.traced) {
            by.entry(r.workload.clone()).or_default().push(r);
        }
        by
    };
    let (a, b) = (group(a), group(b));
    let mut worse = false;
    println!(
        "{:<14} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<14} only in A");
            continue;
        };
        for def in &spec().end_to_end {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(&def.name)).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
            };
            let change = (median(&vb) - median(&va)) / median(&va);
            let v = verdict(def, &va, &vb);
            worse |= v == Verdict::Worse;
            println!(
                "{workload:<14} {:<12} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {v:?}",
                def.name,
                side(&va),
                side(&vb),
                change * 100.0,
                def.bound * 100.0
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<14} only in B");
    }
    i32::from(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn the_committed_spec_parses() {
        let spec = spec();
        assert!(spec.run_seconds >= 1);
        assert!(spec
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(spec
            .end_to_end
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(!spec.per_layer.is_empty());
        let _ = default_seed();
    }

    #[test]
    fn verdicts_follow_bounds_and_spreads() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&def(false), &a, &[104.0, 103.0, 105.0, 104.5, 103.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&def(false), &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&def(true), &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&def(false), &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Better
        );
        let wide = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&def(false), &a, &wide), Verdict::Unresolved);
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = Record {
            workload: "w".into(),
            seed: 3,
            seconds: 10,
            traced: true,
            attempted: 5,
            failed: 1,
            valid: false,
            host_parallelism: 2,
            widths: (2, 2),
            digest: "00ff".into(),
            notes: vec!["n".into()],
            metrics: vec![("a".into(), 1.25), ("b".into(), 0.1 + 0.2)],
        };
        let back = Record::from_json(&parse(&compact(&r.to_json())).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(!back.correct());
        let line = summary_line(&[r], &[]);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":5,\"failed\":1,\"metrics\":{"));
        assert!(line.contains("\"b\":{\"value\":0.30000000000000004"));
    }
}
