//! Durability tests for the campaign service: a **real** daemon process
//! (the `harness serve` binary, located via `CARGO_BIN_EXE_harness`) is
//! `SIGKILL`ed mid-campaign and restarted on the same state directory.
//! The resumed campaigns must finish with outcomes bit-identical to an
//! uninterrupted direct `run_campaign`, quota ledgers must survive
//! exactly, idempotency keys must keep deduplicating across the restart,
//! and a journal polluted with torn/garbage lines must replay cleanly.

use mixp_harness::checkpoint::{compact, result_doc};
use mixp_harness::json::Json;
use mixp_harness::scheduler::{run_campaign, CampaignOptions, RetryPolicy};
use mixp_harness::{Fault, FaultPlan, Job, Scale};
use mixp_serve::protocol::{FaultSpec, SubmitOptions};
use mixp_serve::Client;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn arena(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mixp-serve-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("arena");
    dir
}

fn spawn_daemon(dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("serve")
        .arg("--socket")
        .arg(dir.join("serve.sock"))
        .arg("--state")
        .arg(dir.join("state"))
        .arg("--workers")
        .arg("2")
        .stdout(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn daemon")
}

fn connect(dir: &Path) -> Client {
    Client::connect_within(&dir.join("serve.sock"), Duration::from_secs(30)).expect("connect")
}

fn job(benchmark: &str, algorithm: &str, budget: usize) -> Job {
    let mut job = Job::new(benchmark, algorithm, 1e-3, Scale::Small);
    job.budget = budget;
    job
}

fn wait_terminal(client: &mut Client, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let doc = client.status(id).expect("status");
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
        if matches!(state, "done" | "cancelled") {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} never terminal: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn tenant_used(client: &mut Client, tenant: &str) -> usize {
    let listing = client.list(Some(tenant)).expect("list");
    listing
        .get("tenants")
        .and_then(Json::as_array)
        .and_then(|ts| {
            ts.iter()
                .find(|t| t.get("tenant").and_then(Json::as_str) == Some(tenant))
        })
        .and_then(|t| t.get("used"))
        .and_then(Json::as_f64)
        .expect("tenant ledger") as usize
}

fn assert_bit_identical(status: &Json, jobs: &[Job], options: &SubmitOptions) {
    let mut faults = FaultPlan::new();
    for spec in &options.faults {
        faults = faults.inject(spec.job, spec.fault, spec.attempts);
    }
    let opts = CampaignOptions {
        workers: 1,
        retry: RetryPolicy::attempts(options.retries.unwrap_or(1)),
        faults,
        ..CampaignOptions::default()
    };
    let direct = run_campaign(jobs, &opts);
    let cells = status.get("cells").and_then(Json::as_array).expect("cells");
    assert_eq!(cells.len(), direct.len());
    for (index, (cell, outcome)) in cells.iter().zip(&direct).enumerate() {
        let state = cell.get("state").and_then(Json::as_str).unwrap_or("");
        match (&outcome.outcome, state) {
            (Ok(result), "done") => {
                let Json::Object(expected) = result_doc(index, &jobs[index], result) else {
                    unreachable!()
                };
                for (field, want) in &expected {
                    if field == "job" {
                        continue;
                    }
                    assert_eq!(
                        cell.get(field).map(compact),
                        Some(compact(want)),
                        "cell {index} field `{field}` diverged after restart"
                    );
                }
            }
            (Err(error), "failed") => {
                assert_eq!(
                    cell.get("code").and_then(Json::as_str),
                    Some(error.code()),
                    "cell {index} failure code diverged after restart"
                );
            }
            (_, other) => panic!(
                "cell {index}: direct {:?} vs service `{other}`",
                outcome.outcome.as_ref().map(|_| "ok")
            ),
        }
    }
}

#[test]
fn sigkill_mid_campaign_resumes_with_identical_outcomes() {
    let dir = arena("kill");
    let mut child = spawn_daemon(&dir);
    let mut client = connect(&dir);

    // A slow three-cell campaign: each cell sleeps per evaluation, so the
    // kill provably lands with work still in flight.
    let slow_jobs = vec![
        job("tridiag", "DD", 6),
        job("innerprod", "CM", 6),
        job("eos", "DD", 6),
    ];
    let mut slow = SubmitOptions::default();
    for j in 0..slow_jobs.len() {
        slow.faults.push(FaultSpec {
            job: j,
            fault: Fault::SlowMs(40),
            attempts: u32::MAX,
        });
    }
    // Plus a fast campaign with a heal-on-retry fault, to cross-check the
    // restart does not grant killed cells extra attempts.
    let retry_jobs = vec![job("hydro-1d", "DD", 5)];
    let mut retry = SubmitOptions {
        retries: Some(2),
        ..SubmitOptions::default()
    };
    retry.faults.push(FaultSpec {
        job: 0,
        fault: Fault::Panic { at_eval: 0 },
        attempts: 1,
    });

    let ack = client
        .submit("dur", Some("slow-k"), &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{ack:?}");
    let slow_id = ack.get("id").and_then(Json::as_f64).expect("id") as u64;
    let ack = client
        .submit("dur", Some("retry-k"), &retry_jobs, &retry)
        .expect("submit");
    let retry_id = ack.get("id").and_then(Json::as_f64).expect("id") as u64;
    let used_before = tenant_used(&mut client, "dur");
    assert_eq!(
        used_before,
        slow_jobs.iter().map(|j| j.budget).sum::<usize>()
            + retry_jobs.iter().map(|j| j.budget).sum::<usize>()
    );

    // Wait until the slow campaign is demonstrably mid-flight (running,
    // not yet terminal), then SIGKILL the daemon.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let doc = client.status(slow_id).expect("status");
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("");
        if state == "running" {
            break;
        }
        assert_ne!(state, "done", "campaign finished before the kill landed");
        assert!(Instant::now() < deadline, "campaign never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();

    // Restart on the same state directory; the journal replay must bring
    // both campaigns back, with the quota ledger intact.
    let mut child = spawn_daemon(&dir);
    let mut client = connect(&dir);
    assert_eq!(
        tenant_used(&mut client, "dur"),
        used_before,
        "quota lost in restart"
    );

    // The idempotency key survives the restart: resubmitting dedupes onto
    // the original id instead of admitting (and charging) a new campaign.
    let again = client
        .submit("dur", Some("slow-k"), &slow_jobs, &slow)
        .expect("resubmit");
    assert_eq!(again.get("duplicate"), Some(&Json::Bool(true)), "{again:?}");
    assert_eq!(again.get("id").and_then(Json::as_f64), Some(slow_id as f64));
    assert_eq!(
        tenant_used(&mut client, "dur"),
        used_before,
        "dedupe double-charged"
    );

    // Both campaigns run to completion with outcomes bit-identical to
    // uninterrupted direct runs.
    let slow_status = wait_terminal(&mut client, slow_id);
    assert_eq!(
        slow_status.get("state").and_then(Json::as_str),
        Some("done")
    );
    assert_bit_identical(&slow_status, &slow_jobs, &slow);
    let retry_status = wait_terminal(&mut client, retry_id);
    assert_bit_identical(&retry_status, &retry_jobs, &retry);

    let _ = client.shutdown();
    let status = child.wait().expect("daemon wait");
    assert!(status.success(), "daemon exited with {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn polluted_journal_replays_cleanly() {
    let dir = arena("pollute");
    let mut child = spawn_daemon(&dir);
    let mut client = connect(&dir);
    let jobs = vec![job("tridiag", "DD", 5)];
    let ack = client
        .submit("dur", Some("p-k"), &jobs, &SubmitOptions::default())
        .expect("submit");
    let id = ack.get("id").and_then(Json::as_f64).expect("id") as u64;
    let done = wait_terminal(&mut client, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let _ = client.shutdown();
    assert!(child.wait().expect("wait").success());

    // Pollute the journal: a garbage line, an unknown record type, and a
    // torn (no trailing newline) half-record, as a crash could leave.
    let journal = dir.join("state").join("queue.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    file.write_all(b"this is not json\n").expect("garbage");
    file.write_all(b"{\"type\":\"from-the-future\",\"id\":7}\n")
        .expect("unknown");
    file.write_all(b"{\"type\":\"cell\",\"campaign\":99")
        .expect("torn tail");
    drop(file);

    // The daemon must start, keep the finished campaign (bit-identically),
    // and still dedupe its key.
    let mut child = spawn_daemon(&dir);
    let mut client = connect(&dir);
    let status = client.status(id).expect("status");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_bit_identical(&status, &jobs, &SubmitOptions::default());
    let again = client
        .submit("dur", Some("p-k"), &jobs, &SubmitOptions::default())
        .expect("resubmit");
    assert_eq!(again.get("duplicate"), Some(&Json::Bool(true)));
    // And brand-new work still flows after the polluted replay.
    let ack = client
        .submit("dur", None, &jobs, &SubmitOptions::default())
        .expect("submit");
    let fresh = ack.get("id").and_then(Json::as_f64).expect("id") as u64;
    let fresh_status = wait_terminal(&mut client, fresh);
    assert_eq!(
        fresh_status.get("state").and_then(Json::as_str),
        Some("done")
    );

    let _ = client.shutdown();
    assert!(child.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&dir);
}
