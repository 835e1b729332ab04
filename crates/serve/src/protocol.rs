//! The campaign service wire protocol: line-delimited JSON over a Unix
//! domain socket.
//!
//! Every request and every response is exactly one compact JSON object on
//! one line (the same torn-line-detectable framing the run-state journal
//! uses). A connection carries any number of requests; the daemon answers
//! each in order. The verbs:
//!
//! ```text
//! {"op":"submit","tenant":"t0","key":"t0-17","jobs":[{"benchmark":"tridiag",
//!  "algorithm":"DD","threshold":1e-3,"budget":32,"scale":"small"}],
//!  "retries":2,"deadline_ms":5000,
//!  "faults":[{"job":0,"kind":"panic","n":0,"attempts":1}]}
//! {"op":"status","id":3}
//! {"op":"subscribe","id":3}
//! {"op":"cancel","id":3}
//! {"op":"list"}            — or {"op":"list","tenant":"t0"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":{"kind":...,
//! "message":...}}` with a closed set of error kinds ([`RejectKind`]).
//! Malformed input — a torn line, trailing garbage, an unknown verb —
//! yields a typed `bad-request` error on the same connection; it never
//! terminates the daemon and never closes the stream.
//!
//! `subscribe` is the one streaming verb: after its `{"ok":true}` ack the
//! connection receives the campaign's observability records (one JSONL
//! record per line, exactly as `mixp-obs` renders them) until the campaign
//! reaches a terminal state, then one `{"done":true,"id":N,"state":...}`
//! trailer, after which the connection reverts to request/response.

use mixp_harness::checkpoint::compact;
use mixp_harness::json::{parse, Json};
use mixp_harness::{Fault, Job, Scale};

/// Bound on one request line, defending the daemon against a client that
/// streams an unterminated line forever.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One fault injection requested for a submitted campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cell index within the campaign.
    pub job: usize,
    /// The failure mode.
    pub fault: Fault,
    /// How many attempts see the fault (`u32::MAX` = permanent).
    pub attempts: u32,
}

/// Per-campaign execution options a client may set at submit time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitOptions {
    /// Per-job wall-clock deadline in milliseconds (0/absent = none).
    pub deadline_ms: Option<u64>,
    /// Watchdog grace in milliseconds (absent = scheduler default).
    pub grace_ms: Option<u64>,
    /// Total attempts per job (absent = 1, no retry).
    pub retries: Option<u32>,
    /// Fault injections, for robustness testing against the live service.
    pub faults: Vec<FaultSpec>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new campaign for `tenant`. `key` is an optional
    /// client-chosen idempotency token: resubmitting the same
    /// `(tenant, key)` — e.g. after a connection died mid-submit — returns
    /// the already-admitted campaign instead of double-charging the quota.
    Submit {
        /// Tenant the campaign is charged to.
        tenant: String,
        /// Idempotency token, unique per tenant.
        key: Option<String>,
        /// The campaign's cells.
        jobs: Vec<Job>,
        /// Execution options.
        options: SubmitOptions,
    },
    /// Report a campaign's state and per-cell outcomes.
    Status {
        /// Campaign id.
        id: u64,
    },
    /// Stream the campaign's observability records until it is terminal.
    Subscribe {
        /// Campaign id.
        id: u64,
    },
    /// Stop dispatching a campaign's remaining cells.
    Cancel {
        /// Campaign id.
        id: u64,
    },
    /// List campaigns (optionally one tenant's) and tenant quota ledgers.
    List {
        /// Restrict to one tenant.
        tenant: Option<String>,
    },
    /// Graceful stop: finish in-flight cells, sync the journal, exit.
    Shutdown,
}

/// The closed set of typed rejections the daemon can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The line was not a well-formed request.
    BadRequest,
    /// Admission control: the queue of non-terminal campaigns is full.
    QueueFull,
    /// Admission control: the tenant's evaluation-budget quota is spent.
    QuotaExceeded,
    /// The campaign id does not exist.
    UnknownCampaign,
    /// The daemon is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl RejectKind {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            RejectKind::BadRequest => "bad-request",
            RejectKind::QueueFull => "queue-full",
            RejectKind::QuotaExceeded => "quota-exceeded",
            RejectKind::UnknownCampaign => "unknown-campaign",
            RejectKind::ShuttingDown => "shutting-down",
        }
    }
}

/// Renders an error response line (no trailing newline).
pub fn error_line(kind: RejectKind, message: &str) -> String {
    compact(&Json::Object(vec![
        ("ok".to_string(), Json::Bool(false)),
        (
            "error".to_string(),
            Json::Object(vec![
                ("kind".to_string(), Json::String(kind.tag().to_string())),
                ("message".to_string(), Json::String(message.to_string())),
            ]),
        ),
    ]))
}

/// Renders an `{"ok":true,...}` response line from extra members.
pub fn ok_line(extra: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    members.extend(extra);
    compact(&Json::Object(members))
}

/// The wire name of a scale.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn scale_from_tag(tag: &str) -> Option<Scale> {
    match tag {
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// One job as a wire/journal document.
pub fn job_doc(job: &Job) -> Json {
    Json::Object(vec![
        ("benchmark".to_string(), Json::String(job.benchmark.clone())),
        ("algorithm".to_string(), Json::String(job.algorithm.clone())),
        ("threshold".to_string(), Json::Number(job.threshold)),
        ("budget".to_string(), Json::Number(job.budget as f64)),
        (
            "scale".to_string(),
            Json::String(scale_tag(job.scale).to_string()),
        ),
    ])
}

/// Parses one job document; `None` on any missing/ill-typed field.
pub fn job_from_doc(doc: &Json) -> Option<Job> {
    let benchmark = doc.get("benchmark")?.as_str()?;
    let algorithm = doc.get("algorithm")?.as_str()?;
    let threshold = doc.get("threshold")?.as_f64()?;
    let scale = match doc.get("scale") {
        None => Scale::Small,
        Some(tag) => scale_from_tag(tag.as_str()?)?,
    };
    let mut job = Job::new(benchmark, algorithm, threshold, scale);
    if let Some(budget) = doc.get("budget") {
        let budget = budget.as_f64()?;
        if budget < 0.0 {
            return None;
        }
        job.budget = budget as usize;
    }
    Some(job)
}

/// One fault spec as a wire/journal document.
pub fn fault_doc(spec: &FaultSpec) -> Json {
    let (kind, n) = match spec.fault {
        Fault::Panic { at_eval } => ("panic", Some(at_eval as f64)),
        Fault::NanOutput { from_eval } => ("nan-output", Some(from_eval as f64)),
        Fault::CorruptOutput { from_eval } => ("corrupt-output", Some(from_eval as f64)),
        Fault::SlowMs(ms) => ("slow", Some(ms as f64)),
        Fault::HangMs(ms) => ("hang", Some(ms as f64)),
        Fault::StarveBudget => ("starve-budget", None),
        Fault::ZeroDeadline => ("zero-deadline", None),
        Fault::CostModelNan => ("cost-model-nan", None),
    };
    let mut members = vec![
        ("job".to_string(), Json::Number(spec.job as f64)),
        ("kind".to_string(), Json::String(kind.to_string())),
    ];
    if let Some(n) = n {
        members.push(("n".to_string(), Json::Number(n)));
    }
    members.push((
        "attempts".to_string(),
        Json::Number(f64::from(spec.attempts)),
    ));
    Json::Object(members)
}

/// Parses one fault document; `None` on anything malformed.
pub fn fault_from_doc(doc: &Json) -> Option<FaultSpec> {
    let job = doc.get("job")?.as_f64()?;
    if job < 0.0 {
        return None;
    }
    let n = || doc.get("n")?.as_f64();
    let fault = match doc.get("kind")?.as_str()? {
        "panic" => Fault::Panic {
            at_eval: n()? as usize,
        },
        "nan-output" => Fault::NanOutput {
            from_eval: n()? as usize,
        },
        "corrupt-output" => Fault::CorruptOutput {
            from_eval: n()? as usize,
        },
        "slow" => Fault::SlowMs(n()? as u64),
        "hang" => Fault::HangMs(n()? as u64),
        "starve-budget" => Fault::StarveBudget,
        "zero-deadline" => Fault::ZeroDeadline,
        "cost-model-nan" => Fault::CostModelNan,
        _ => return None,
    };
    let attempts = match doc.get("attempts") {
        None => u32::MAX,
        Some(v) => {
            let a = v.as_f64()?;
            if !(0.0..=f64::from(u32::MAX)).contains(&a) {
                return None;
            }
            a as u32
        }
    };
    Some(FaultSpec {
        job: job as usize,
        fault,
        attempts,
    })
}

/// The submit options as wire/journal document members (merged into the
/// enclosing object, so the journal's campaign record and the wire request
/// share one shape).
pub fn options_members(options: &SubmitOptions) -> Vec<(String, Json)> {
    let mut members = Vec::new();
    if let Some(ms) = options.deadline_ms {
        members.push(("deadline_ms".to_string(), Json::Number(ms as f64)));
    }
    if let Some(ms) = options.grace_ms {
        members.push(("grace_ms".to_string(), Json::Number(ms as f64)));
    }
    if let Some(retries) = options.retries {
        members.push(("retries".to_string(), Json::Number(f64::from(retries))));
    }
    if !options.faults.is_empty() {
        members.push((
            "faults".to_string(),
            Json::Array(options.faults.iter().map(fault_doc).collect()),
        ));
    }
    members
}

/// Parses the submit options out of a request/journal document.
pub fn options_from_doc(doc: &Json) -> Result<SubmitOptions, String> {
    let mut options = SubmitOptions::default();
    if let Some(ms) = doc.get("deadline_ms") {
        let ms = ms.as_f64().ok_or("deadline_ms must be a number")?;
        if ms < 0.0 {
            return Err("deadline_ms must be non-negative".to_string());
        }
        if ms > 0.0 {
            options.deadline_ms = Some(ms as u64);
        }
    }
    if let Some(ms) = doc.get("grace_ms") {
        let ms = ms.as_f64().ok_or("grace_ms must be a number")?;
        if ms < 0.0 {
            return Err("grace_ms must be non-negative".to_string());
        }
        options.grace_ms = Some(ms as u64);
    }
    if let Some(retries) = doc.get("retries") {
        let retries = retries.as_f64().ok_or("retries must be a number")?;
        if !(0.0..=1024.0).contains(&retries) {
            return Err("retries must be in 0..=1024".to_string());
        }
        options.retries = Some(retries as u32);
    }
    if let Some(faults) = doc.get("faults") {
        let faults = faults.as_array().ok_or("faults must be an array")?;
        for entry in faults {
            options
                .faults
                .push(fault_from_doc(entry).ok_or("malformed fault spec")?);
        }
    }
    Ok(options)
}

/// Renders a `submit` request line.
pub fn submit_line(
    tenant: &str,
    key: Option<&str>,
    jobs: &[Job],
    options: &SubmitOptions,
) -> String {
    let mut members = vec![
        ("op".to_string(), Json::String("submit".to_string())),
        ("tenant".to_string(), Json::String(tenant.to_string())),
    ];
    if let Some(key) = key {
        members.push(("key".to_string(), Json::String(key.to_string())));
    }
    members.push((
        "jobs".to_string(),
        Json::Array(jobs.iter().map(job_doc).collect()),
    ));
    members.extend(options_members(options));
    compact(&Json::Object(members))
}

/// Renders a one-id request line (`status`, `subscribe`, `cancel`).
pub fn id_line(op: &str, id: u64) -> String {
    compact(&Json::Object(vec![
        ("op".to_string(), Json::String(op.to_string())),
        ("id".to_string(), Json::Number(id as f64)),
    ]))
}

/// Renders a `list` request line.
pub fn list_line(tenant: Option<&str>) -> String {
    let mut members = vec![("op".to_string(), Json::String("list".to_string()))];
    if let Some(tenant) = tenant {
        members.push(("tenant".to_string(), Json::String(tenant.to_string())));
    }
    compact(&Json::Object(members))
}

/// Renders a `shutdown` request line.
pub fn shutdown_line() -> String {
    compact(&Json::Object(vec![(
        "op".to_string(),
        Json::String("shutdown".to_string()),
    )]))
}

/// Parses one request line. The error string is a human-readable reason
/// suitable for a `bad-request` response — parsing never panics, whatever
/// the bytes.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse(line).map_err(|e| format!("JSON error at byte {}: {}", e.offset, e.message))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    let id = |field: &str| -> Result<u64, String> {
        let v = doc
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric field `{field}`"))?;
        if !(0.0..=9e15).contains(&v) || v.fract() != 0.0 {
            return Err(format!("field `{field}` is not a campaign id"));
        }
        Ok(v as u64)
    };
    match op {
        "submit" => {
            let tenant = doc
                .get("tenant")
                .and_then(Json::as_str)
                .ok_or("submit needs a string `tenant`")?;
            if tenant.is_empty() || tenant.len() > 128 {
                return Err("tenant must be 1..=128 bytes".to_string());
            }
            let key = match doc.get("key") {
                None => None,
                Some(k) => Some(k.as_str().ok_or("key must be a string")?.to_string()),
            };
            let jobs_doc = doc
                .get("jobs")
                .and_then(Json::as_array)
                .ok_or("submit needs a `jobs` array")?;
            if jobs_doc.is_empty() {
                return Err("submit needs at least one job".to_string());
            }
            if jobs_doc.len() > 4096 {
                return Err("too many jobs in one campaign (max 4096)".to_string());
            }
            let mut jobs = Vec::with_capacity(jobs_doc.len());
            for entry in jobs_doc {
                jobs.push(job_from_doc(entry).ok_or("malformed job document")?);
            }
            let options = options_from_doc(&doc)?;
            if let Some(spec) = options.faults.iter().find(|s| s.job >= jobs.len()) {
                return Err(format!("fault targets job {} of {}", spec.job, jobs.len()));
            }
            Ok(Request::Submit {
                tenant: tenant.to_string(),
                key,
                jobs,
                options,
            })
        }
        "status" => Ok(Request::Status { id: id("id")? }),
        "subscribe" => Ok(Request::Subscribe { id: id("id")? }),
        "cancel" => Ok(Request::Cancel { id: id("id")? }),
        "list" => {
            let tenant = match doc.get("tenant") {
                None => None,
                Some(t) => Some(t.as_str().ok_or("tenant must be a string")?.to_string()),
            };
            Ok(Request::List { tenant })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_the_wire_shape() {
        let jobs = vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("eos", "GA", 1e-6, Scale::Paper),
        ];
        let options = SubmitOptions {
            deadline_ms: Some(5000),
            grace_ms: None,
            retries: Some(2),
            faults: vec![FaultSpec {
                job: 1,
                fault: Fault::SlowMs(3),
                attempts: 1,
            }],
        };
        let mut members = vec![
            ("op".to_string(), Json::String("submit".to_string())),
            ("tenant".to_string(), Json::String("t0".to_string())),
            ("key".to_string(), Json::String("t0-1".to_string())),
            (
                "jobs".to_string(),
                Json::Array(jobs.iter().map(job_doc).collect()),
            ),
        ];
        members.extend(options_members(&options));
        let line = compact(&Json::Object(members));
        match parse_request(&line).expect("parses") {
            Request::Submit {
                tenant,
                key,
                jobs: parsed,
                options: opts,
            } => {
                assert_eq!(tenant, "t0");
                assert_eq!(key.as_deref(), Some("t0-1"));
                assert_eq!(parsed, jobs);
                assert_eq!(opts, options);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let faults = [
            Fault::Panic { at_eval: 2 },
            Fault::NanOutput { from_eval: 1 },
            Fault::CorruptOutput { from_eval: 0 },
            Fault::SlowMs(7),
            Fault::HangMs(11),
            Fault::StarveBudget,
            Fault::ZeroDeadline,
            Fault::CostModelNan,
        ];
        for (i, fault) in faults.into_iter().enumerate() {
            let spec = FaultSpec {
                job: i,
                fault,
                attempts: (i as u32) + 1,
            };
            let back = fault_from_doc(&fault_doc(&spec)).expect("round-trips");
            assert_eq!(back, spec, "{fault:?}");
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors_never_panics() {
        for line in [
            "",
            "garbage",
            "{\"op\":\"submit\"",  // torn
            "{\"op\":\"nope\"}",   // unknown verb
            "{\"op\":\"status\"}", // missing id
            "{\"op\":\"status\",\"id\":-1}",
            "{\"op\":\"status\",\"id\":1.5}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"jobs\":[]}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"jobs\":[{\"benchmark\":3}]}",
            "{\"op\":\"submit\",\"tenant\":\"\",\"jobs\":[{}]}",
            "{\"op\":\"submit\",\"tenant\":\"t\",\"jobs\":[{\"benchmark\":\"tridiag\",\
             \"algorithm\":\"DD\",\"threshold\":0.001}],\"faults\":[{\"job\":5,\
             \"kind\":\"panic\",\"n\":0}]}",
            "[1,2,3]",
            "{\"op\":\"list\"} trailing",
        ] {
            assert!(parse_request(line).is_err(), "must reject: {line}");
        }
    }

    #[test]
    fn simple_verbs_parse() {
        assert_eq!(
            parse_request("{\"op\":\"status\",\"id\":7}").unwrap(),
            Request::Status { id: 7 }
        );
        assert_eq!(
            parse_request("{\"op\":\"cancel\",\"id\":0}").unwrap(),
            Request::Cancel { id: 0 }
        );
        assert_eq!(
            parse_request("{\"op\":\"list\"}").unwrap(),
            Request::List { tenant: None }
        );
        assert_eq!(
            parse_request("{\"op\":\"list\",\"tenant\":\"a\"}").unwrap(),
            Request::List {
                tenant: Some("a".to_string())
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn error_and_ok_lines_are_single_line_json() {
        let err = error_line(RejectKind::QuotaExceeded, "tenant t0 has 3 left");
        assert!(!err.contains('\n'));
        let doc = parse(&err).expect("error line parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("quota-exceeded")
        );
        let ok = ok_line(vec![("id".to_string(), Json::Number(4.0))]);
        assert!(!ok.contains('\n'));
        let doc = parse(&ok).expect("ok line parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("id").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn job_budget_and_scale_default_sensibly() {
        let doc =
            parse("{\"benchmark\":\"tridiag\",\"algorithm\":\"DD\",\"threshold\":0.001}").unwrap();
        let job = job_from_doc(&doc).expect("parses");
        assert_eq!(job.budget, Job::DEFAULT_BUDGET);
        assert_eq!(job.scale, Scale::Small);
    }
}
