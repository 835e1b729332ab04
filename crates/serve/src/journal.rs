//! The daemon's durable queue journal: admissions, cancellations and cell
//! outcomes, append-only, torn-line tolerant.
//!
//! The file is a [`JsonlJournal`]: one header line, then one compact JSON
//! object per event, each written as a single line so a `SIGKILL`
//! mid-write can tear at most the final line (which the next open cuts
//! before appending). Appends are flushed to the kernel, which survives a
//! process kill, but not fsynced; the daemon syncs at graceful shutdown.
//! Events:
//!
//! ```text
//! {"version":"mixp-serve-queue-1"}
//! {"type":"campaign","id":0,"tenant":"t0","key":"t0-1","cost":64,
//!  "jobs":[{"benchmark":...}],"retries":2,"faults":[...]}
//! {"type":"cell","campaign":0,"attempts":1, <result_doc fields> }
//! {"type":"cell-failed","campaign":0,"attempts":1, <failure_doc fields> }
//! {"type":"tfail","campaign":0,"job":1,"attempts":3,"code":"panic",
//!  "detail":"..."}
//! {"type":"cancel","id":0}
//! ```
//!
//! `cell` and `cell-failed` lines embed the *exact* documents the
//! single-campaign checkpoint writes ([`checkpoint::result_doc`] /
//! [`checkpoint::failure_doc`]) plus the campaign id, so they are decoded
//! by the same validating readers ([`checkpoint::result_from_line`] /
//! [`checkpoint::failure_from_line`]) — one serialisation, two journals.
//!
//! `tfail` records a cell whose *final* outcome was a transient error
//! (panic, deadline) after its retry policy was exhausted. The
//! single-campaign checkpoint deliberately drops these so a resumed run
//! retries them; the service deliberately **keeps** them: a cell's retry
//! budget is part of its submission, and a daemon restart must not grant
//! extra attempts — restart-resumed outcomes stay identical to an
//! uninterrupted run.
//!
//! Replay rebuilds every campaign's full state (admission → recorded cells
//! → cancellation); pending cells simply re-dispatch. Unknown event types
//! and malformed lines are skipped, never fatal.

use crate::protocol::{job_doc, job_from_doc, options_from_doc, options_members};
use crate::state::{Campaign, CellSlot};
use mixp_harness::checkpoint::{failure_doc, failure_from_line, result_doc, result_from_line};
use mixp_harness::journal::JsonlJournal;
use mixp_harness::json::Json;
use mixp_harness::{Job, JobError, JobResult};
use std::collections::BTreeMap;
use std::path::Path;

/// Version tag in the journal header.
pub const QUEUE_VERSION: &str = "mixp-serve-queue-1";

/// An open, append-mode queue journal.
#[derive(Debug)]
pub struct QueueJournal {
    journal: JsonlJournal,
}

impl QueueJournal {
    /// Opens (or creates) the journal at `path` and replays whatever prior
    /// state it holds. A missing file, a foreign or torn header, start the
    /// journal afresh via the atomic temp-file + rename path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created or
    /// opened for append.
    pub fn open(path: &Path) -> std::io::Result<(QueueJournal, Vec<Campaign>)> {
        let header = Json::Object(vec![(
            "version".to_string(),
            Json::String(QUEUE_VERSION.to_string()),
        )]);
        let (journal, records) = JsonlJournal::open(path, &header, 0)?;
        Ok((QueueJournal { journal }, replay(&records)))
    }

    fn append(&mut self, mut members: Vec<(String, Json)>, kind: &str) -> std::io::Result<()> {
        members.insert(0, ("type".to_string(), Json::String(kind.to_string())));
        self.journal.append(&Json::Object(members))
    }

    /// Journals one admission, durably enough to survive a process kill
    /// (the line reaches the kernel before the submit is acknowledged).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed append.
    pub fn record_admission(&mut self, campaign: &Campaign) -> std::io::Result<()> {
        let mut members = vec![
            ("id".to_string(), Json::Number(campaign.id as f64)),
            ("tenant".to_string(), Json::String(campaign.tenant.clone())),
        ];
        if let Some(key) = &campaign.key {
            members.push(("key".to_string(), Json::String(key.clone())));
        }
        members.push(("cost".to_string(), Json::Number(campaign.cost as f64)));
        members.push((
            "jobs".to_string(),
            Json::Array(campaign.jobs.iter().map(job_doc).collect()),
        ));
        members.extend(options_members(&campaign.options));
        self.append(members, "campaign")
    }

    /// Journals a cancellation request.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed append.
    pub fn record_cancel(&mut self, id: u64) -> std::io::Result<()> {
        self.append(vec![("id".to_string(), Json::Number(id as f64))], "cancel")
    }

    /// Journals one cell's final outcome. Successes and permanent failures
    /// reuse the checkpoint's own documents; transient failures become
    /// `tfail` lines (see module docs).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed append.
    pub fn record_cell(
        &mut self,
        campaign: u64,
        index: usize,
        attempts: u32,
        job: &Job,
        outcome: &Result<JobResult, JobError>,
    ) -> std::io::Result<()> {
        let campaign_field = ("campaign".to_string(), Json::Number(campaign as f64));
        let attempts_field = ("attempts".to_string(), Json::Number(f64::from(attempts)));
        match outcome {
            Ok(result) => {
                let Json::Object(mut members) = result_doc(index, job, result) else {
                    unreachable!("result_doc always yields an object");
                };
                members.insert(0, campaign_field);
                members.insert(1, attempts_field);
                self.append(members, "cell")
            }
            Err(error) if !error.is_transient() => {
                let Json::Object(mut members) = failure_doc(index, job, error) else {
                    unreachable!("failure_doc always yields an object");
                };
                members.insert(0, campaign_field);
                members.insert(1, attempts_field);
                self.append(members, "cell-failed")
            }
            Err(error) => {
                let mut members = vec![
                    campaign_field,
                    ("job".to_string(), Json::Number(index as f64)),
                    attempts_field,
                    ("code".to_string(), Json::String(error.code().to_string())),
                ];
                match error {
                    JobError::Panicked(payload) => {
                        members.push(("detail".to_string(), Json::String(payload.clone())));
                    }
                    JobError::DeadlineExceeded { limit_ms } => {
                        members.push(("limit_ms".to_string(), Json::Number(*limit_ms as f64)));
                    }
                    _ => unreachable!("only panic/deadline are transient"),
                }
                self.append(members, "tfail")
            }
        }
    }

    /// Forces everything appended so far to disk (graceful shutdown).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed fsync.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.journal.sync()
    }
}

/// Replays journal records into the campaigns they describe. Any record
/// that does not decode, and any unknown event, degrades to "less
/// recovered", never to an error — restart must always come up.
fn replay(records: &[Json]) -> Vec<Campaign> {
    let mut campaigns: BTreeMap<u64, Campaign> = BTreeMap::new();
    for doc in records {
        let Some(kind) = doc.get("type").and_then(Json::as_str) else {
            continue;
        };
        match kind {
            "campaign" => {
                let Some(campaign) = campaign_from_doc(doc) else {
                    continue;
                };
                campaigns.insert(campaign.id, campaign);
            }
            "cell" | "cell-failed" => {
                let Some(id) = doc.get("campaign").and_then(Json::as_f64) else {
                    continue;
                };
                let Some(campaign) = campaigns.get_mut(&(id as u64)) else {
                    continue;
                };
                let attempts = doc.get("attempts").and_then(Json::as_f64).unwrap_or(0.0) as u32;
                let decoded = if kind == "cell" {
                    result_from_line(doc, &campaign.jobs).map(|(i, r)| (i, Ok(r)))
                } else {
                    failure_from_line(doc, &campaign.jobs).map(|(i, e)| (i, Err(e)))
                };
                let Some((index, outcome)) = decoded else {
                    continue;
                };
                if let Some(cell) = campaign.cells.get_mut(index) {
                    *cell = CellSlot::Done { attempts, outcome };
                }
            }
            "tfail" => {
                let Some(id) = doc.get("campaign").and_then(Json::as_f64) else {
                    continue;
                };
                let Some(campaign) = campaigns.get_mut(&(id as u64)) else {
                    continue;
                };
                let Some(index) = doc.get("job").and_then(Json::as_f64) else {
                    continue;
                };
                let attempts = doc.get("attempts").and_then(Json::as_f64).unwrap_or(0.0) as u32;
                let error = match doc.get("code").and_then(Json::as_str) {
                    Some("panic") => JobError::Panicked(
                        doc.get("detail")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    ),
                    Some("deadline") => JobError::DeadlineExceeded {
                        limit_ms: doc.get("limit_ms").and_then(Json::as_f64).unwrap_or(0.0) as u128,
                    },
                    _ => continue,
                };
                if let Some(cell) = campaign.cells.get_mut(index as usize) {
                    *cell = CellSlot::Done {
                        attempts,
                        outcome: Err(error),
                    };
                }
            }
            "cancel" => {
                let Some(id) = doc.get("id").and_then(Json::as_f64) else {
                    continue;
                };
                if let Some(campaign) = campaigns.get_mut(&(id as u64)) {
                    campaign.cancelled = true;
                    for cell in &mut campaign.cells {
                        if matches!(cell, CellSlot::Pending) {
                            *cell = CellSlot::Skipped;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    campaigns.into_values().collect()
}

fn campaign_from_doc(doc: &Json) -> Option<Campaign> {
    let id = doc.get("id")?.as_f64()? as u64;
    let tenant = doc.get("tenant")?.as_str()?.to_string();
    let key = match doc.get("key") {
        None => None,
        Some(k) => Some(k.as_str()?.to_string()),
    };
    let cost = doc.get("cost")?.as_f64()? as usize;
    let mut jobs = Vec::new();
    for entry in doc.get("jobs")?.as_array()? {
        jobs.push(job_from_doc(entry)?);
    }
    if jobs.is_empty() {
        return None;
    }
    let options = options_from_doc(doc).ok()?;
    Some(Campaign {
        id,
        tenant,
        key,
        cost,
        cells: vec![CellSlot::Pending; jobs.len()],
        jobs,
        options,
        cancelled: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FaultSpec, SubmitOptions};
    use crate::state::Terminal;
    use mixp_harness::{Fault, Scale};

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mixp-queue-{name}-{}", std::process::id()));
        p
    }

    fn campaign(id: u64, tenant: &str, jobs: Vec<Job>) -> Campaign {
        Campaign {
            id,
            tenant: tenant.to_string(),
            key: Some(format!("{tenant}-{id}")),
            cost: jobs.iter().map(|j| j.budget).sum(),
            cells: vec![CellSlot::Pending; jobs.len()],
            jobs,
            options: SubmitOptions {
                retries: Some(2),
                faults: vec![FaultSpec {
                    job: 0,
                    fault: Fault::SlowMs(1),
                    attempts: 1,
                }],
                ..SubmitOptions::default()
            },
            cancelled: false,
        }
    }

    #[test]
    fn admissions_and_outcomes_replay() {
        let path = tmpfile("replay");
        std::fs::remove_file(&path).ok();
        let jobs = vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("innerprod", "CM", 1e-3, Scale::Small),
        ];
        let result = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, restored) = QueueJournal::open(&path).unwrap();
            assert!(restored.is_empty());
            let c = campaign(3, "t1", jobs.clone());
            journal.record_admission(&c).unwrap();
            journal
                .record_cell(3, 0, 1, &jobs[0], &Ok(result.clone()))
                .unwrap();
            journal
                .record_cell(3, 1, 2, &jobs[1], &Err(JobError::NonFiniteQuality))
                .unwrap();
        }
        let (_, restored) = QueueJournal::open(&path).unwrap();
        assert_eq!(restored.len(), 1);
        let c = &restored[0];
        assert_eq!((c.id, c.tenant.as_str()), (3, "t1"));
        assert_eq!(c.key.as_deref(), Some("t1-3"));
        assert_eq!(c.jobs, jobs);
        assert_eq!(c.options.retries, Some(2));
        assert_eq!(c.options.faults.len(), 1);
        assert_eq!(c.terminal(), Some(Terminal::Done));
        match &c.cells[0] {
            CellSlot::Done {
                attempts,
                outcome: Ok(r),
            } => {
                assert_eq!(*attempts, 1);
                assert_eq!(r.result.evaluated, result.result.evaluated);
                assert_eq!(
                    r.result.best.as_ref().map(|b| b.speedup.to_bits()),
                    result.result.best.as_ref().map(|b| b.speedup.to_bits()),
                    "journalled speedup must round-trip bit-exactly"
                );
            }
            other => panic!("cell 0: {other:?}"),
        }
        match &c.cells[1] {
            CellSlot::Done {
                attempts: 2,
                outcome: Err(JobError::NonFiniteQuality),
            } => {}
            other => panic!("cell 1: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_final_failures_are_kept_on_replay() {
        let path = tmpfile("tfail");
        std::fs::remove_file(&path).ok();
        let jobs = vec![Job::new("tridiag", "DD", 1e-3, Scale::Small)];
        {
            let (mut journal, _) = QueueJournal::open(&path).unwrap();
            journal
                .record_admission(&campaign(0, "t0", jobs.clone()))
                .unwrap();
            journal
                .record_cell(
                    0,
                    0,
                    3,
                    &jobs[0],
                    &Err(JobError::Panicked("injected".to_string())),
                )
                .unwrap();
        }
        let (_, restored) = QueueJournal::open(&path).unwrap();
        match &restored[0].cells[0] {
            CellSlot::Done {
                attempts: 3,
                outcome: Err(JobError::Panicked(msg)),
            } => assert_eq!(msg, "injected"),
            other => panic!("{other:?}"),
        }
        assert_eq!(restored[0].terminal(), Some(Terminal::Done));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancel_replays_to_a_cancelled_campaign() {
        let path = tmpfile("cancel");
        std::fs::remove_file(&path).ok();
        let jobs = vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("tridiag", "CM", 1e-3, Scale::Small),
        ];
        let result = jobs[0].execute(None, None).unwrap();
        {
            let (mut journal, _) = QueueJournal::open(&path).unwrap();
            journal
                .record_admission(&campaign(0, "t0", jobs.clone()))
                .unwrap();
            journal.record_cell(0, 0, 1, &jobs[0], &Ok(result)).unwrap();
            journal.record_cancel(0).unwrap();
        }
        let (_, restored) = QueueJournal::open(&path).unwrap();
        assert!(restored[0].cancelled);
        assert_eq!(restored[0].terminal(), Some(Terminal::Cancelled));
        assert!(matches!(restored[0].cells[1], CellSlot::Skipped));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let path = tmpfile("torn");
        std::fs::remove_file(&path).ok();
        let jobs = vec![Job::new("tridiag", "DD", 1e-3, Scale::Small)];
        {
            let (mut journal, _) = QueueJournal::open(&path).unwrap();
            journal
                .record_admission(&campaign(1, "t0", jobs.clone()))
                .unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"type\":\"mystery\"}\nnot json at all\n{\"type\":\"camp");
        std::fs::write(&path, &text).unwrap();
        {
            let (mut journal, restored) = QueueJournal::open(&path).unwrap();
            assert_eq!(restored.len(), 1, "good lines survive the debris");
            // And the journal is still appendable afterwards.
            journal
                .record_admission(&campaign(2, "t0", jobs.clone()))
                .unwrap();
        }
        let (_, restored) = QueueJournal::open(&path).unwrap();
        let ids: Vec<u64> = restored.iter().map(|c| c.id).collect();
        assert_eq!(
            ids,
            vec![1, 2],
            "the admission appended after the tear survives"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_header_restarts_the_journal() {
        let path = tmpfile("foreign");
        std::fs::write(&path, "{\"version\":\"somebody-else-1\"}\n{\"x\":1}\n").unwrap();
        let (_, restored) = QueueJournal::open(&path).unwrap();
        assert!(restored.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(QUEUE_VERSION));
        std::fs::remove_file(&path).ok();
    }
}
