//! Campaign run-state journaling: checkpoint and resume.
//!
//! The paper's cluster campaigns lose everything when a job array is
//! killed; this module makes the stand-in scheduler resumable. Completed
//! [`JobResult`]s are journaled to an append-only JSON-lines file
//! ([`crate::journal`]) — one header line naming the format version and a
//! fingerprint of the job list, then one line per completed cell. A resumed
//! campaign with the *same* job list replays the journal and re-executes
//! only the unfinished cells; a journal written for a different campaign
//! (fingerprint mismatch) is restarted, and a torn trailing line — the
//! normal aftermath of a kill mid-write — is cut before appending.
//!
//! The format is deliberately simple enough to inspect by eye:
//!
//! ```text
//! {"version": "mixp-run-state-1", "fingerprint": "9a3bd2c41e77f052", "jobs": 6}
//! {"job": 0, "benchmark": "tridiag", "algorithm": "DD", "threshold": 0.001,
//!  "clusters": 1, "variables": 3, "evaluated": 1, "dnf": false,
//!  "best": {"quality": 2.1e-7, "speedup": 1.42,
//!           "lowered": [{"name": "x", "to_type": "float"}]}}
//! ```
//!
//! The best configuration is stored by *variable name* (like the
//! FloatSmith interchange format), so the journal survives process
//! restarts and does not depend on internal variable ids.
//!
//! *Permanent* failures are journaled too, as `"status": "failed"` lines
//! carrying the typed error code, so a resumed campaign reports the
//! historical FAILED cell instead of re-running a deterministic failure:
//!
//! ```text
//! {"job": 3, "status": "failed", "benchmark": "nope", "algorithm": "DD",
//!  "threshold": 0.001, "code": "unknown-benchmark", "detail": "nope"}
//! ```
//!
//! Transient failures (panics, deadline timeouts) are deliberately *not*
//! journaled — they deserve a fresh attempt on resume.

use crate::job::{Job, JobError, JobResult};
pub use crate::journal::compact;
use crate::journal::JsonlJournal;
use crate::json::Json;
use crate::registry::{benchmark_by_name, Scale};
use mixp_core::float::VarRegistry;
use mixp_core::{EvalRecord, Precision, PrecisionConfig};
use mixp_search::SearchResult;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Version tag of the run-state format.
pub const STATE_VERSION: &str = "mixp-run-state-1";

/// FNV-1a fingerprint of a campaign's job list. Two campaigns share a
/// journal only if every job field matches, in order.
pub fn fingerprint(jobs: &[Job]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for job in jobs {
        eat(job.benchmark.as_bytes());
        eat(b"|");
        eat(job.algorithm.as_bytes());
        eat(b"|");
        eat(&job.threshold.to_bits().to_le_bytes());
        eat(&(job.budget as u64).to_le_bytes());
        eat(match job.scale {
            Scale::Small => b"s",
            Scale::Paper => b"p",
        });
        eat(b";");
    }
    format!("{hash:016x}")
}

/// Results recovered from a journal, keyed by job index.
#[derive(Debug, Default)]
pub struct RunState {
    /// Completed cells, ready to be reused without re-running.
    pub completed: BTreeMap<usize, JobResult>,
    /// Permanently failed cells (non-transient typed errors), reportable
    /// without re-running.
    pub failed: BTreeMap<usize, JobError>,
}

fn precision_name(p: Precision) -> &'static str {
    match p {
        Precision::Half => "half",
        Precision::Single => "float",
        Precision::Double => "double",
    }
}

fn precision_from_name(name: &str) -> Option<Precision> {
    match name {
        "half" => Some(Precision::Half),
        "float" => Some(Precision::Single),
        "double" => Some(Precision::Double),
        _ => None,
    }
}

/// The variable names of one benchmark at one scale, and its all-double
/// configuration: all that the cell codec needs from a benchmark.
struct VarNames {
    registry: VarRegistry,
    all_double: PrecisionConfig,
}

/// The [`VarNames`] of `benchmark` at `scale`, built once per process.
/// Building a benchmark generates its inputs, which a journal write or a
/// status answer must not pay per cell. Unknown names are not cached.
fn var_names(benchmark: &str, scale: Scale) -> Option<Arc<VarNames>> {
    static TABLES: OnceLock<Mutex<HashMap<(String, Scale), Arc<VarNames>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(Mutex::default);
    let key = (benchmark.to_string(), scale);
    if let Some(names) = tables
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Some(Arc::clone(names));
    }
    let bench = benchmark_by_name(benchmark, scale)?;
    let program = bench.program();
    let built = Arc::new(VarNames {
        registry: program.registry().clone(),
        all_double: program.config_all_double(),
    });
    let mut tables = tables.lock().unwrap_or_else(PoisonError::into_inner);
    Some(Arc::clone(tables.entry(key).or_insert(built)))
}

/// The JSON document behind [`Journal::record`]'s line. Public so the
/// campaign service's queue journal can reuse the exact cell format
/// (annotated with its own campaign-id fields) and stay readable by
/// [`result_from_line`].
pub fn result_doc(index: usize, job: &Job, result: &JobResult) -> Json {
    let best = match &result.result.best {
        None => Json::Null,
        Some(rec) => {
            let lowered: Vec<Json> = var_names(&result.benchmark, job.scale)
                .map(|names| {
                    let registry = &names.registry;
                    rec.config
                        .iter()
                        .filter(|(_, p)| *p != Precision::Double)
                        .map(|(v, p)| {
                            Json::Object(vec![
                                (
                                    "name".to_string(),
                                    Json::String(registry.name(v).to_string()),
                                ),
                                (
                                    "to_type".to_string(),
                                    Json::String(precision_name(p).to_string()),
                                ),
                            ])
                        })
                        .collect()
                })
                .unwrap_or_default();
            Json::Object(vec![
                ("quality".to_string(), Json::Number(rec.quality)),
                ("speedup".to_string(), Json::Number(rec.speedup)),
                ("lowered".to_string(), Json::Array(lowered)),
            ])
        }
    };
    let doc = Json::Object(vec![
        ("job".to_string(), Json::Number(index as f64)),
        (
            "benchmark".to_string(),
            Json::String(result.benchmark.clone()),
        ),
        (
            "algorithm".to_string(),
            Json::String(result.algorithm.clone()),
        ),
        ("threshold".to_string(), Json::Number(result.threshold)),
        ("clusters".to_string(), Json::Number(result.clusters as f64)),
        (
            "variables".to_string(),
            Json::Number(result.variables as f64),
        ),
        (
            "evaluated".to_string(),
            Json::Number(result.result.evaluated as f64),
        ),
        ("dnf".to_string(), Json::Bool(result.result.dnf)),
        ("best".to_string(), best),
    ]);
    doc
}

/// The JSON document behind [`Journal::record_failure`]'s line. The typed
/// error is stored by its stable `code` plus whatever payload it needs to
/// round-trip ([`failure_from_line`] rebuilds it). Public for the same
/// reason as [`result_doc`]: the campaign service journals failed cells in
/// this exact shape.
pub fn failure_doc(index: usize, job: &Job, error: &JobError) -> Json {
    let mut members = vec![
        ("job".to_string(), Json::Number(index as f64)),
        ("status".to_string(), Json::String("failed".to_string())),
        ("benchmark".to_string(), Json::String(job.benchmark.clone())),
        ("algorithm".to_string(), Json::String(job.algorithm.clone())),
        ("threshold".to_string(), Json::Number(job.threshold)),
        ("code".to_string(), Json::String(error.code().to_string())),
        ("message".to_string(), Json::String(error.to_string())),
    ];
    match error {
        JobError::UnknownBenchmark(name) | JobError::UnknownAlgorithm(name) => {
            members.push(("detail".to_string(), Json::String(name.clone())));
        }
        JobError::BudgetExhausted { budget } => {
            members.push(("budget".to_string(), Json::Number(*budget as f64)));
        }
        _ => {}
    }
    Json::Object(members)
}

/// Rebuilds a [`JobError`] from one `"status": "failed"` journal line,
/// validating it against the job it claims to belong to. Transient error
/// codes (which should never be journaled) and anything malformed return
/// `None`, so the cell re-runs.
pub fn failure_from_line(doc: &Json, jobs: &[Job]) -> Option<(usize, JobError)> {
    let index = doc.get("job")?.as_f64()? as usize;
    let job = jobs.get(index)?;
    if doc.get("benchmark")?.as_str()? != job.benchmark
        || doc.get("algorithm")?.as_str()? != job.algorithm
        || doc.get("threshold")?.as_f64()?.to_bits() != job.threshold.to_bits()
    {
        return None;
    }
    let error = match doc.get("code")?.as_str()? {
        "unknown-benchmark" => JobError::UnknownBenchmark(doc.get("detail")?.as_str()?.to_string()),
        "unknown-algorithm" => JobError::UnknownAlgorithm(doc.get("detail")?.as_str()?.to_string()),
        "budget" => JobError::BudgetExhausted {
            budget: doc.get("budget")?.as_f64()? as usize,
        },
        "non-finite" => JobError::NonFiniteQuality,
        "corrupt-output" => JobError::CorruptOutput,
        _ => return None,
    };
    Some((index, error))
}

/// Rebuilds a [`JobResult`] from one journal line, validating it against
/// the job it claims to belong to. Returns `None` (skip the line — the
/// cell re-runs) rather than failing on any mismatch.
pub fn result_from_line(doc: &Json, jobs: &[Job]) -> Option<(usize, JobResult)> {
    let index = doc.get("job")?.as_f64()? as usize;
    let job = jobs.get(index)?;
    let benchmark = doc.get("benchmark")?.as_str()?;
    if benchmark != job.benchmark {
        return None;
    }
    let threshold = doc.get("threshold")?.as_f64()?;
    if threshold.to_bits() != job.threshold.to_bits() {
        return None;
    }
    let algorithm = doc.get("algorithm")?.as_str()?.to_string();
    let clusters = doc.get("clusters")?.as_f64()? as usize;
    let variables = doc.get("variables")?.as_f64()? as usize;
    let evaluated = doc.get("evaluated")?.as_f64()? as usize;
    let dnf = matches!(doc.get("dnf")?, Json::Bool(true));
    let best = match doc.get("best")? {
        Json::Null => None,
        entry => {
            let names = var_names(benchmark, job.scale)?;
            let mut config = names.all_double.clone();
            for action in entry.get("lowered")?.as_array()? {
                let name = action.get("name")?.as_str()?;
                let prec = precision_from_name(action.get("to_type")?.as_str()?)?;
                let var = names.registry.find(name)?;
                config.set(var, prec);
            }
            Some(EvalRecord {
                config,
                compiled: true,
                quality: entry.get("quality")?.as_f64()?,
                speedup: entry.get("speedup")?.as_f64()?,
                passes: true,
            })
        }
    };
    Some((
        index,
        JobResult {
            benchmark: benchmark.to_string(),
            algorithm,
            threshold,
            clusters,
            variables,
            result: SearchResult {
                best,
                evaluated,
                dnf,
            },
        },
    ))
}

/// An open, append-mode journal for one campaign.
#[derive(Debug)]
pub struct Journal {
    journal: JsonlJournal,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for this campaign and
    /// recovers any prior state.
    ///
    /// If the file already holds a journal for the *same* job list, its
    /// completed and permanently failed cells are returned and new records
    /// are appended after them; lines that do not decode against `jobs` are
    /// skipped. Anything else — no file, another campaign's journal, a
    /// corrupt header — starts the journal afresh (see [`JsonlJournal`]).
    ///
    /// `fsync_every` is the durability cadence: the file is fsynced after
    /// every N appended records (`0` disables the periodic sync; callers
    /// then rely on [`Journal::sync`] at campaign completion).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created or
    /// written.
    pub fn open(
        path: &Path,
        jobs: &[Job],
        fsync_every: usize,
    ) -> std::io::Result<(Journal, RunState)> {
        let header = Json::Object(vec![
            (
                "version".to_string(),
                Json::String(STATE_VERSION.to_string()),
            ),
            ("fingerprint".to_string(), Json::String(fingerprint(jobs))),
            ("jobs".to_string(), Json::Number(jobs.len() as f64)),
        ]);
        let (journal, records) = JsonlJournal::open(path, &header, fsync_every)?;
        let mut state = RunState::default();
        for doc in &records {
            if doc.get("status").and_then(Json::as_str) == Some("failed") {
                if let Some((index, error)) = failure_from_line(doc, jobs) {
                    state.failed.insert(index, error);
                }
            } else if let Some((index, result)) = result_from_line(doc, jobs) {
                state.completed.insert(index, result);
            }
        }
        Ok((Journal { journal }, state))
    }

    /// Appends one completed cell.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed append.
    pub fn record(&mut self, index: usize, job: &Job, result: &JobResult) -> std::io::Result<()> {
        self.journal.append(&result_doc(index, job, result))
    }

    /// Appends one permanently failed cell. Callers should only journal
    /// non-transient errors ([`JobError::is_transient`] is `false`) — a
    /// transient crash or timeout deserves a fresh attempt on resume.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed append.
    pub fn record_failure(
        &mut self,
        index: usize,
        job: &Job,
        error: &JobError,
    ) -> std::io::Result<()> {
        self.journal.append(&failure_doc(index, job, error))
    }

    /// Forces everything appended so far to disk. The scheduler calls this
    /// once at campaign completion, so the finished journal is durable
    /// regardless of the periodic cadence.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed fsync.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.journal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mixp-checkpoint-{name}-{}", std::process::id()));
        p
    }

    /// The state a resumed campaign would recover from `path`.
    fn load(path: &Path, jobs: &[Job]) -> RunState {
        Journal::open(path, jobs, 0).unwrap().1
    }

    fn sample_jobs() -> Vec<Job> {
        vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("innerprod", "CM", 1e-3, Scale::Small),
        ]
    }

    #[test]
    fn fingerprint_is_order_and_field_sensitive() {
        let jobs = sample_jobs();
        let mut reversed = jobs.clone();
        reversed.reverse();
        assert_ne!(fingerprint(&jobs), fingerprint(&reversed));
        let mut rethresholded = jobs.clone();
        rethresholded[0].threshold = 1e-6;
        assert_ne!(fingerprint(&jobs), fingerprint(&rethresholded));
        assert_eq!(fingerprint(&jobs), fingerprint(&sample_jobs()));
    }

    #[test]
    fn journal_round_trips_results() {
        let path = tmpfile("roundtrip");
        let jobs = sample_jobs();
        let r0 = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, state) = Journal::open(&path, &jobs, 0).unwrap();
            assert!(state.completed.is_empty());
            journal.record(0, &jobs[0], &r0).unwrap();
        }
        let state = load(&path, &jobs);
        assert_eq!(state.completed.len(), 1);
        let back = &state.completed[&0];
        assert_eq!(back.benchmark, r0.benchmark);
        assert_eq!(back.result.evaluated, r0.result.evaluated);
        assert_eq!(back.result.dnf, r0.result.dnf);
        let (orig, rec) = (r0.result.best.unwrap(), back.result.best.clone().unwrap());
        assert_eq!(orig.speedup, rec.speedup);
        assert_eq!(orig.quality, rec.quality);
        assert_eq!(orig.config.key(), rec.config.key());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_fingerprint_discards_journal() {
        let path = tmpfile("mismatch");
        let jobs = sample_jobs();
        let r0 = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, _) = Journal::open(&path, &jobs, 0).unwrap();
            journal.record(0, &jobs[0], &r0).unwrap();
        }
        let other = vec![Job::new("eos", "GA", 1e-6, Scale::Small)];
        let state = load(&path, &other);
        assert!(state.completed.is_empty());
        // Opening for the other campaign restarts the journal.
        let (_, state) = Journal::open(&path, &other, 0).unwrap();
        assert!(state.completed.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&fingerprint(&other)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = tmpfile("torn");
        let jobs = sample_jobs();
        let r0 = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, _) = Journal::open(&path, &jobs, 0).unwrap();
            journal.record(0, &jobs[0], &r0).unwrap();
        }
        // Simulate a kill mid-append: a truncated JSON line at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"job\":1,\"benchmark\":\"inner");
        std::fs::write(&path, &text).unwrap();
        let r1 = jobs[1].execute(None, None).unwrap();
        {
            let (mut journal, state) = Journal::open(&path, &jobs, 0).unwrap();
            assert_eq!(
                state.completed.len(),
                1,
                "good line kept, torn line dropped"
            );
            journal.record(1, &jobs[1], &r1).unwrap();
        }
        // The record appended after the tear must not be glued onto it.
        let state = load(&path, &jobs);
        assert_eq!(
            state.completed.len(),
            2,
            "record appended after the tear survives"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_recovered_by_a_fresh_restart() {
        // A kill exactly during a (historical, non-atomic) header write
        // leaves a half line. Load must treat it as no journal, and open
        // must restart it cleanly via the temp-file + rename path.
        let path = tmpfile("torn-header");
        let jobs = sample_jobs();
        std::fs::write(&path, "{\"version\":\"mixp-run-st").unwrap();
        let state = load(&path, &jobs);
        assert!(state.completed.is_empty() && state.failed.is_empty());
        let r0 = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, state) = Journal::open(&path, &jobs, 0).unwrap();
            assert!(state.completed.is_empty());
            journal.record(0, &jobs[0], &r0).unwrap();
        }
        let state = load(&path, &jobs);
        assert_eq!(state.completed.len(), 1, "restarted journal works");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_tmp_leftover_is_harmless_and_replaced() {
        // A crash after writing `<path>.tmp` but before the rename leaves
        // the temp file behind; the next open must overwrite it and still
        // produce a valid journal at the real path.
        let path = tmpfile("stale-tmp");
        let jobs = sample_jobs();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, "garbage from a crashed run").unwrap();
        {
            let (_journal, state) = Journal::open(&path, &jobs, 0).unwrap();
            assert!(state.completed.is_empty());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(STATE_VERSION));
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "the rename must consume the temp file"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn periodic_fsync_cadence_does_not_change_contents() {
        let path = tmpfile("fsync-cadence");
        let jobs = sample_jobs();
        let r0 = jobs[0].execute(None, None).unwrap();
        let r1 = jobs[1].execute(None, None).unwrap();
        {
            let (mut journal, _) = Journal::open(&path, &jobs, 1).unwrap();
            journal.record(0, &jobs[0], &r0).unwrap();
            journal.record(1, &jobs[1], &r1).unwrap();
            journal.sync().unwrap();
        }
        let state = load(&path, &jobs);
        assert_eq!(state.completed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_state() {
        let path = tmpfile("missing");
        std::fs::remove_file(&path).ok();
        let state = load(&path, &sample_jobs());
        assert!(state.completed.is_empty());
        assert!(state.failed.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_failures_round_trip() {
        let path = tmpfile("fail-roundtrip");
        let jobs = vec![
            Job::new("no-such-bench", "DD", 1e-3, Scale::Small),
            Job::new("tridiag", "nope", 1e-3, Scale::Small),
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("innerprod", "CM", 1e-3, Scale::Small),
            Job::new("eos", "GA", 1e-3, Scale::Small),
        ];
        let errors = [
            JobError::UnknownBenchmark("no-such-bench".to_string()),
            JobError::UnknownAlgorithm("nope".to_string()),
            JobError::BudgetExhausted { budget: 0 },
            JobError::NonFiniteQuality,
            JobError::CorruptOutput,
        ];
        {
            let (mut journal, state) = Journal::open(&path, &jobs, 0).unwrap();
            assert!(state.failed.is_empty());
            for (i, e) in errors.iter().enumerate() {
                journal.record_failure(i, &jobs[i], e).unwrap();
            }
        }
        let state = load(&path, &jobs);
        assert!(state.completed.is_empty());
        assert_eq!(state.failed.len(), errors.len());
        for (i, e) in errors.iter().enumerate() {
            assert_eq!(&state.failed[&i], e, "error {i} must round-trip");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_failure_lines_are_ignored_on_load() {
        // A journal should never contain transient failures, but a line
        // with a transient code (e.g. written by a future version) must be
        // skipped so the cell re-runs.
        let path = tmpfile("fail-transient");
        let jobs = sample_jobs();
        {
            let (_journal, _) = Journal::open(&path, &jobs, 0).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(
            "{\"job\":0,\"status\":\"failed\",\"benchmark\":\"tridiag\",\
             \"algorithm\":\"DD\",\"threshold\":0.001,\"code\":\"panic\",\
             \"message\":\"boom\"}\n",
        );
        std::fs::write(&path, &text).unwrap();
        let state = load(&path, &jobs);
        assert!(state.failed.is_empty(), "transient codes must not restore");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failure_lines_for_mismatched_jobs_are_skipped() {
        let path = tmpfile("fail-mismatch");
        let jobs = sample_jobs();
        let err = JobError::NonFiniteQuality;
        {
            let (mut journal, _) = Journal::open(&path, &jobs, 0).unwrap();
            journal.record_failure(0, &jobs[0], &err).unwrap();
        }
        // Same fingerprint loads it; a job list whose cell 0 differs in
        // threshold would have another fingerprint and discard the file
        // wholesale — so tamper with the stored line instead to simulate a
        // benchmark mismatch.
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"benchmark\":\"tridiag\"", "\"benchmark\":\"eos\"");
        std::fs::write(&path, &text).unwrap();
        let state = load(&path, &jobs);
        assert!(state.failed.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
