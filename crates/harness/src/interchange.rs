//! FloatSmith-style JSON interchange (§I / §II-A).
//!
//! FloatSmith "facilitates the integration of tools by providing a
//! JSON-based interchange format": the search tool and the type-refactoring
//! tool exchange *configurations* as JSON action lists
//! (`change_var_basetype` entries), and analyses report their results as
//! JSON documents. This module provides both directions:
//!
//! * [`config_to_json`] / [`config_from_json`] — a precision configuration
//!   as an action list over the program's variable names, portable across
//!   processes (round-trips by *name*, not by internal id).
//! * [`results_to_json`] — a batch of analysis results (the `--json` output
//!   of the `harness` binary).

use crate::job::JobResult;
use crate::json::{parse, Json, JsonError};
use crate::scheduler::{CampaignStats, JobOutcome};
use mixp_core::{MetricsSnapshot, Precision, PrecisionConfig, ProgramModel};
use std::fmt;

/// Version tag written into every interchange document.
pub const FORMAT_VERSION: &str = "hpc-mixpbench-1";

/// Serialises a configuration as a FloatSmith-style action list: one
/// `change_var_basetype` action per variable lowered to single precision.
pub fn config_to_json(program: &ProgramModel, cfg: &PrecisionConfig) -> String {
    let actions: Vec<Json> = cfg
        .iter()
        .filter(|(_, p)| *p != Precision::Double)
        .map(|(v, p)| {
            let to_type = match p {
                Precision::Half => "half",
                Precision::Single => "float",
                Precision::Double => unreachable!("filtered above"),
            };
            Json::Object(vec![
                (
                    "action".to_string(),
                    Json::String("change_var_basetype".to_string()),
                ),
                (
                    "name".to_string(),
                    Json::String(program.registry().name(v).to_string()),
                ),
                ("to_type".to_string(), Json::String(to_type.to_string())),
            ])
        })
        .collect();
    Json::Object(vec![
        (
            "version".to_string(),
            Json::String(FORMAT_VERSION.to_string()),
        ),
        (
            "tool_id".to_string(),
            Json::String(program.name().to_string()),
        ),
        ("actions".to_string(), Json::Array(actions)),
    ])
    .pretty()
}

/// Error raised when an interchange document does not describe a valid
/// configuration of the given program.
#[derive(Debug, Clone, PartialEq)]
pub struct InterchangeError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for InterchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid interchange document: {}", self.message)
    }
}

impl std::error::Error for InterchangeError {}

impl From<JsonError> for InterchangeError {
    fn from(err: JsonError) -> Self {
        InterchangeError {
            message: err.to_string(),
        }
    }
}

/// Parses a FloatSmith-style action list back into a configuration for
/// `program`.
///
/// # Errors
///
/// Returns [`InterchangeError`] on malformed JSON, unknown variable names,
/// unsupported actions or target types.
pub fn config_from_json(
    program: &ProgramModel,
    text: &str,
) -> Result<PrecisionConfig, InterchangeError> {
    let doc = parse(text)?;
    let actions = doc
        .get("actions")
        .and_then(Json::as_array)
        .ok_or_else(|| InterchangeError {
            message: "missing `actions` array".to_string(),
        })?;
    let mut cfg = program.config_all_double();
    for action in actions {
        let kind = action
            .get("action")
            .and_then(Json::as_str)
            .ok_or_else(|| InterchangeError {
                message: "action without `action` kind".to_string(),
            })?;
        if kind != "change_var_basetype" {
            return Err(InterchangeError {
                message: format!("unsupported action `{kind}`"),
            });
        }
        let name = action
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| InterchangeError {
                message: "action without variable `name`".to_string(),
            })?;
        let to_type = action
            .get("to_type")
            .and_then(Json::as_str)
            .unwrap_or("float");
        let prec = match to_type {
            "half" => Precision::Half,
            "float" => Precision::Single,
            "double" => Precision::Double,
            other => {
                return Err(InterchangeError {
                    message: format!("unsupported target type `{other}`"),
                })
            }
        };
        let var = program
            .registry()
            .find(name)
            .ok_or_else(|| InterchangeError {
                message: format!("unknown variable `{name}`"),
            })?;
        cfg.set(var, prec);
    }
    Ok(cfg)
}

fn result_members(r: &JobResult) -> Vec<(String, Json)> {
    vec![
        ("benchmark".to_string(), Json::String(r.benchmark.clone())),
        ("algorithm".to_string(), Json::String(r.algorithm.clone())),
        ("threshold".to_string(), Json::Number(r.threshold)),
        ("clusters".to_string(), Json::Number(r.clusters as f64)),
        ("variables".to_string(), Json::Number(r.variables as f64)),
        (
            "evaluated".to_string(),
            Json::Number(r.result.evaluated as f64),
        ),
        ("dnf".to_string(), Json::Bool(r.result.dnf)),
        (
            "speedup".to_string(),
            r.result.speedup().map_or(Json::Null, Json::Number),
        ),
        (
            "quality".to_string(),
            r.result.quality().map_or(Json::Null, Json::Number),
        ),
    ]
}

/// Serialises a batch of analysis results (the `harness --json` output).
pub fn results_to_json(results: &[JobResult]) -> String {
    let items: Vec<Json> = results
        .iter()
        .map(|r| Json::Object(result_members(r)))
        .collect();
    Json::Object(vec![
        (
            "version".to_string(),
            Json::String(FORMAT_VERSION.to_string()),
        ),
        ("results".to_string(), Json::Array(items)),
    ])
    .pretty()
}

/// Serialises a batch of campaign outcomes, including failed cells: each
/// entry carries a `status` of `"ok"` or `"failed"`, and failed entries
/// report their typed error instead of metrics.
pub fn outcomes_to_json(outcomes: &[JobOutcome]) -> String {
    outcomes_doc(outcomes, None, None)
}

/// [`outcomes_to_json`] plus the campaign's shared-cache counters, emitted
/// as a top-level `shared_cache` object (`{"hits": …, "misses": …}`).
pub fn outcomes_to_json_with_stats(outcomes: &[JobOutcome], stats: &CampaignStats) -> String {
    outcomes_doc(outcomes, Some(stats), None)
}

/// [`outcomes_to_json_with_stats`] plus the campaign's observability
/// snapshot (when tracing was enabled), emitted as a top-level `metrics`
/// object with `counters`, `gauges` and `histograms` members. A `None` or
/// empty snapshot omits the object entirely, so documents from untraced
/// campaigns are unchanged.
pub fn outcomes_to_json_full(
    outcomes: &[JobOutcome],
    stats: Option<&CampaignStats>,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    outcomes_doc(outcomes, stats, metrics)
}

fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let counters: Vec<(String, Json)> = snap
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Number(*v as f64)))
        .collect();
    let gauges: Vec<(String, Json)> = snap
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Json::Number(*v)))
        .collect();
    let histograms: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            let buckets: Vec<Json> = h
                .buckets
                .iter()
                .map(|(le, count)| {
                    Json::Array(vec![Json::Number(*le as f64), Json::Number(*count as f64)])
                })
                .collect();
            (
                k.clone(),
                Json::Object(vec![
                    ("count".to_string(), Json::Number(h.count as f64)),
                    ("sum".to_string(), Json::Number(h.sum as f64)),
                    ("overflow".to_string(), Json::Number(h.overflow as f64)),
                    ("buckets".to_string(), Json::Array(buckets)),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("counters".to_string(), Json::Object(counters)),
        ("gauges".to_string(), Json::Object(gauges)),
        ("histograms".to_string(), Json::Object(histograms)),
    ])
}

fn outcomes_doc(
    outcomes: &[JobOutcome],
    stats: Option<&CampaignStats>,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let items: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let mut members = match &o.outcome {
                Ok(r) => {
                    let mut m = vec![("status".to_string(), Json::String("ok".to_string()))];
                    m.extend(result_members(r));
                    m
                }
                Err(e) => vec![
                    ("status".to_string(), Json::String("failed".to_string())),
                    (
                        "benchmark".to_string(),
                        Json::String(o.job.benchmark.clone()),
                    ),
                    (
                        "algorithm".to_string(),
                        Json::String(o.job.algorithm.clone()),
                    ),
                    ("threshold".to_string(), Json::Number(o.job.threshold)),
                    (
                        "error".to_string(),
                        Json::Object(vec![
                            ("code".to_string(), Json::String(e.code().to_string())),
                            ("message".to_string(), Json::String(e.to_string())),
                        ]),
                    ),
                ],
            };
            members.push(("attempts".to_string(), Json::Number(f64::from(o.attempts))));
            members.push(("from_checkpoint".to_string(), Json::Bool(o.from_checkpoint)));
            Json::Object(members)
        })
        .collect();
    let mut doc = vec![
        (
            "version".to_string(),
            Json::String(FORMAT_VERSION.to_string()),
        ),
        ("results".to_string(), Json::Array(items)),
    ];
    if let Some(stats) = stats {
        doc.push((
            "shared_cache".to_string(),
            Json::Object(vec![
                (
                    "hits".to_string(),
                    Json::Number(stats.shared_cache_hits as f64),
                ),
                (
                    "misses".to_string(),
                    Json::Number(stats.shared_cache_misses as f64),
                ),
            ]),
        ));
    }
    if let Some(snap) = metrics {
        if !snap.is_empty() {
            doc.push(("metrics".to_string(), metrics_json(snap)));
        }
    }
    Json::Object(doc).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{benchmark_by_name, Scale};

    #[test]
    fn config_round_trips_by_name() {
        let bench = benchmark_by_name("eos", Scale::Small).unwrap();
        let program = bench.program();
        // Lower the array cluster of eos.
        let x = program.registry().find("x").unwrap();
        let cluster = program.clustering().cluster_of(x).unwrap();
        let cfg = program.config_from_clusters([cluster]);
        let text = config_to_json(program, &cfg);
        let back = config_from_json(program, &text).unwrap();
        assert_eq!(back.key(), cfg.key());
    }

    #[test]
    fn all_double_is_an_empty_action_list() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let program = bench.program();
        let text = config_to_json(program, &program.config_all_double());
        assert!(text.contains("\"actions\": []"));
        let back = config_from_json(program, &text).unwrap();
        assert!(back.is_all_double());
    }

    #[test]
    fn unknown_variables_are_rejected() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let text = r#"{"version":"hpc-mixpbench-1","actions":[
            {"action":"change_var_basetype","name":"nope","to_type":"float"}]}"#;
        let err = config_from_json(bench.program(), text).unwrap_err();
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn unsupported_actions_are_rejected() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let text = r#"{"actions":[{"action":"replace_function","name":"x"}]}"#;
        let err = config_from_json(bench.program(), text).unwrap_err();
        assert!(err.message.contains("unsupported action"));
    }

    #[test]
    fn results_json_shape() {
        let job = crate::job::Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let result = job.execute(None, None).unwrap();
        let text = results_to_json(std::slice::from_ref(&result));
        let doc = crate::json::parse(&text).unwrap();
        let items = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("benchmark").unwrap().as_str(), Some("tridiag"));
        assert_eq!(items[0].get("dnf"), Some(&crate::json::Json::Bool(false)));
        assert!(items[0].get("speedup").unwrap().as_f64().is_some());
    }

    #[test]
    fn outcomes_json_reports_failures() {
        use crate::job::{Job, JobError};
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let ok = JobOutcome {
            job: job.clone(),
            attempts: 1,
            from_checkpoint: false,
            outcome: job.execute(None, None),
        };
        let failed = JobOutcome {
            job: Job::new("tridiag", "HC", 1e-3, Scale::Small),
            attempts: 3,
            from_checkpoint: false,
            outcome: Err(JobError::DeadlineExceeded { limit_ms: 250 }),
        };
        let text = outcomes_to_json(&[ok, failed]);
        let doc = crate::json::parse(&text).unwrap();
        let items = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(items[1].get("status").unwrap().as_str(), Some("failed"));
        let error = items[1].get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("deadline"));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("250"));
        assert_eq!(items[1].get("attempts").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn metrics_object_round_trips_through_the_document() {
        use crate::scheduler::{run_campaign, CampaignOptions};
        use mixp_core::Obs;
        let obs = Obs::in_memory();
        let jobs = vec![crate::job::Job::new("tridiag", "DD", 1e-3, Scale::Small)];
        let outcomes = run_campaign(
            &jobs,
            &CampaignOptions {
                workers: 1,
                obs: obs.clone(),
                ..CampaignOptions::default()
            },
        );
        let snap = obs.metrics_snapshot().unwrap();
        let text = outcomes_to_json_full(&outcomes, None, Some(&snap));
        let doc = crate::json::parse(&text).unwrap();
        let metrics = doc.get("metrics").expect("metrics object present");
        let runs = metrics
            .get("counters")
            .and_then(|c| c.get("evaluator.runs"))
            .and_then(Json::as_f64)
            .expect("evaluator.runs counter");
        assert!(runs > 0.0);
        assert!(metrics
            .get("histograms")
            .and_then(|h| h.get("campaign.attempts"))
            .is_some());
        // No snapshot, or an empty one, omits the object entirely.
        let bare = outcomes_to_json_full(&outcomes, None, None);
        assert!(crate::json::parse(&bare).unwrap().get("metrics").is_none());
    }

    #[test]
    fn explicit_double_actions_apply() {
        let bench = benchmark_by_name("eos", Scale::Small).unwrap();
        let program = bench.program();
        // Lower x, then re-raise it in the same document: net all-double.
        let text = r#"{"actions":[
            {"action":"change_var_basetype","name":"x","to_type":"float"},
            {"action":"change_var_basetype","name":"x","to_type":"double"}]}"#;
        let cfg = config_from_json(program, text).unwrap();
        assert!(cfg.is_all_double());
    }
}
