//! Integration tests for the campaign service, run against an in-process
//! daemon ([`mixp_serve::DaemonHandle`]): protocol coverage, typed
//! rejections under garbage input, admission control, fairness across
//! concurrent clients, subscription streaming, and bit-identity of
//! service outcomes against direct `run_campaign` runs.

use mixp_harness::checkpoint::{compact, result_doc};
use mixp_harness::json::Json;
use mixp_harness::scheduler::{run_campaign, CampaignOptions, RetryPolicy};
use mixp_harness::{Fault, FaultPlan, Job, Scale};
use mixp_serve::protocol::{FaultSpec, SubmitOptions};
use mixp_serve::{Client, DaemonConfig, DaemonHandle, ServeConfig};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn arena(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mixp-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("arena");
    dir
}

fn start(dir: &Path, serve: ServeConfig) -> DaemonHandle {
    DaemonHandle::start(DaemonConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join("state"),
        serve,
    })
    .expect("daemon start")
}

fn connect(dir: &Path) -> Client {
    Client::connect_within(&dir.join("serve.sock"), Duration::from_secs(10)).expect("connect")
}

fn job(benchmark: &str, algorithm: &str, budget: usize) -> Job {
    let mut job = Job::new(benchmark, algorithm, 1e-3, Scale::Small);
    job.budget = budget;
    job
}

fn submit_ok(client: &mut Client, tenant: &str, jobs: &[Job], options: &SubmitOptions) -> u64 {
    let doc = client.submit(tenant, None, jobs, options).expect("submit");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    doc.get("id").and_then(Json::as_f64).expect("id") as u64
}

fn wait_terminal(client: &mut Client, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
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
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn error_kind(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("")
}

/// Compares the service's per-cell documents with a direct scheduler run,
/// field by field (f64s compare bit-exactly through the compact renderer).
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
                        "cell {index} field `{field}` diverged"
                    );
                }
            }
            (Err(error), "failed") => {
                assert_eq!(
                    cell.get("code").and_then(Json::as_str),
                    Some(error.code()),
                    "cell {index} failure code diverged"
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
fn submitted_campaign_matches_direct_run_bit_for_bit() {
    let dir = arena("bits");
    let daemon = start(&dir, ServeConfig::default());
    let mut client = connect(&dir);
    let jobs = vec![
        job("tridiag", "DD", 8),
        job("innerprod", "CM", 6),
        job("eos", "CB", 6),
    ];
    let options = SubmitOptions::default();
    let id = submit_ok(&mut client, "alice", &jobs, &options);
    let status = wait_terminal(&mut client, id);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert_bit_identical(&status, &jobs, &options);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_and_retried_campaign_matches_direct_run() {
    let dir = arena("faults");
    let daemon = start(&dir, ServeConfig::default());
    let mut client = connect(&dir);
    // Job 0 panics on its first attempt and heals on retry; job 1 is
    // permanently NaN-poisoned and must fail with a typed code.
    let jobs = vec![job("tridiag", "DD", 6), job("innerprod", "DD", 6)];
    let mut options = SubmitOptions {
        retries: Some(2),
        ..SubmitOptions::default()
    };
    options.faults.push(FaultSpec {
        job: 0,
        fault: Fault::Panic { at_eval: 0 },
        attempts: 1,
    });
    options.faults.push(FaultSpec {
        job: 1,
        fault: Fault::NanOutput { from_eval: 0 },
        attempts: u32::MAX,
    });
    let id = submit_ok(&mut client, "alice", &jobs, &options);
    let status = wait_terminal(&mut client, id);
    assert_bit_identical(&status, &jobs, &options);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_lines_get_typed_errors_and_never_kill_the_daemon() {
    let dir = arena("garbage");
    let daemon = start(&dir, ServeConfig::default());
    let mut client = connect(&dir);
    let bad_lines = [
        "not json at all",
        "{\"op\":",                                        // torn JSON
        "{}",                                              // no op
        "{\"op\":\"frobnicate\"}",                         // unknown op
        "{\"op\":\"submit\"}",                             // missing tenant/jobs
        "{\"op\":\"submit\",\"tenant\":\"\",\"jobs\":[]}", // empty tenant
        "{\"op\":\"status\"}",                             // missing id
        "{\"op\":\"status\",\"id\":-3}",                   // bad id
        "{\"op\":\"status\",\"id\":1.5}",                  // non-integer id
        "[1,2,3]",                                         // not an object
    ];
    for line in bad_lines {
        let doc = client.request(line).expect("daemon must answer");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{line}");
        assert_eq!(error_kind(&doc), "bad-request", "{line}");
    }
    // Unknown campaign ids are their own kind.
    let doc = client.status(999_999).expect("status");
    assert_eq!(error_kind(&doc), "unknown-campaign");
    let doc = client.cancel(999_999).expect("cancel");
    assert_eq!(error_kind(&doc), "unknown-campaign");
    // An oversized line gets that connection closed — the daemon may hang
    // up mid-write, so the client sees EPIPE; both are acceptable...
    let mut raw = UnixStream::connect(dir.join("serve.sock")).expect("raw connect");
    let huge = format!("{{\"op\":\"list\",\"pad\":\"{}\"}}\n", "x".repeat(2 << 20));
    let _ = raw.write_all(huge.as_bytes());
    // ...while the daemon keeps serving everyone else.
    let id = submit_ok(
        &mut client,
        "alice",
        &[job("tridiag", "DD", 4)],
        &SubmitOptions::default(),
    );
    let status = wait_terminal(&mut client, id);
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_enforces_quota_depth_and_idempotency() {
    let dir = arena("admission");
    let mut serve = ServeConfig {
        queue_depth: 2,
        workers: 1,
        ..ServeConfig::default()
    };
    serve.quotas.push(("cheap".to_string(), 10));
    let daemon = start(&dir, serve);
    let mut client = connect(&dir);

    // Quota: 10 units admit one 8-unit campaign, then reject the next.
    let slow_jobs = vec![job("tridiag", "DD", 8)];
    let mut slow = SubmitOptions::default();
    slow.faults.push(FaultSpec {
        job: 0,
        fault: Fault::SlowMs(40),
        attempts: u32::MAX,
    });
    let first = client
        .submit("cheap", Some("k1"), &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
    let doc = client
        .submit("cheap", Some("k2"), &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(error_kind(&doc), "quota-exceeded");

    // Idempotency: resubmitting k1 dedupes onto the same id, no new charge.
    let again = client
        .submit("cheap", Some("k1"), &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(again.get("duplicate"), Some(&Json::Bool(true)));
    assert_eq!(again.get("id"), first.get("id"));
    let listing = client.list(Some("cheap")).expect("list");
    let tenants = listing
        .get("tenants")
        .and_then(Json::as_array)
        .expect("tenants");
    let cheap = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Json::as_str) == Some("cheap"))
        .expect("cheap ledger");
    assert_eq!(cheap.get("used").and_then(Json::as_f64), Some(8.0));

    // Depth: with one slot used, one more non-terminal campaign fills the
    // queue; a third tenant-distinct submission bounces with queue-full.
    let ok = client
        .submit("rich", None, &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
    let doc = client
        .submit("rich", None, &slow_jobs, &slow)
        .expect("submit");
    assert_eq!(error_kind(&doc), "queue-full");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_skips_pending_cells() {
    let dir = arena("cancel");
    // One worker serializes the cells, so the victim is still queued.
    let serve = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let daemon = start(&dir, serve);
    let mut client = connect(&dir);
    let mut slow = SubmitOptions::default();
    slow.faults.push(FaultSpec {
        job: 0,
        fault: Fault::SlowMs(30),
        attempts: u32::MAX,
    });
    let busy = submit_ok(&mut client, "alice", &[job("tridiag", "DD", 8)], &slow);
    let victim = submit_ok(
        &mut client,
        "alice",
        &[job("innerprod", "DD", 6), job("eos", "DD", 6)],
        &SubmitOptions::default(),
    );
    let doc = client.cancel(victim).expect("cancel");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    let status = wait_terminal(&mut client, victim);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    let cells = status.get("cells").and_then(Json::as_array).expect("cells");
    // Every cell either finished before the cancel landed or was skipped —
    // none may still be pending in a terminal campaign.
    for cell in cells {
        let state = cell.get("state").and_then(Json::as_str).unwrap_or("");
        assert!(matches!(state, "skipped" | "done" | "failed"), "{state}");
    }
    assert!(
        cells
            .iter()
            .any(|c| c.get("state").and_then(Json::as_str) == Some("skipped")),
        "cancel before dispatch must skip at least one cell"
    );
    wait_terminal(&mut client, busy);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscribe_streams_progress_records_until_done_trailer() {
    let dir = arena("subscribe");
    let daemon = start(&dir, ServeConfig::default());
    let mut client = connect(&dir);
    // Slow the evaluations down so the subscription provably lands while
    // the campaign is still running.
    let mut slow = SubmitOptions::default();
    slow.faults.push(FaultSpec {
        job: 0,
        fault: Fault::SlowMs(25),
        attempts: u32::MAX,
    });
    let id = submit_ok(&mut client, "alice", &[job("tridiag", "DD", 10)], &slow);
    let mut sub = connect(&dir);
    let mut records = 0usize;
    let trailer = sub
        .subscribe(id, |_record| records += 1)
        .expect("subscribe");
    assert_eq!(trailer.get("done"), Some(&Json::Bool(true)), "{trailer:?}");
    assert_eq!(trailer.get("state").and_then(Json::as_str), Some("done"));
    assert!(records > 0, "a live subscription must stream obs records");
    // Subscribing to an already-terminal campaign yields an immediate
    // empty stream with the same trailer shape.
    let mut late = connect(&dir);
    let mut late_records = 0usize;
    let trailer = late
        .subscribe(id, |_record| late_records += 1)
        .expect("late subscribe");
    assert_eq!(trailer.get("done"), Some(&Json::Bool(true)));
    assert_eq!(late_records, 0);
    // Unknown campaigns are a typed rejection, not a hang.
    let doc = late.subscribe(999_999, |_| {}).expect("unknown subscribe");
    assert_eq!(error_kind(&doc), "unknown-campaign");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_all_reach_terminal_states() {
    let dir = arena("concurrent");
    let serve = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let daemon = start(&dir, serve);
    let benchmarks = ["tridiag", "innerprod", "eos", "hydro-1d"];
    std::thread::scope(|scope| {
        for c in 0..6usize {
            let dir = &dir;
            scope.spawn(move || {
                let mut client = connect(dir);
                let tenant = format!("t{}", c % 3);
                for n in 0..4usize {
                    let jobs = vec![job(benchmarks[(c + n) % benchmarks.len()], "DD", 4)];
                    let id = submit_ok(&mut client, &tenant, &jobs, &SubmitOptions::default());
                    let status = wait_terminal(&mut client, id);
                    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
                }
            });
        }
    });
    // The daemon's own ledger agrees: 24 campaigns, all terminal.
    let mut client = connect(&dir);
    let listing = client.list(None).expect("list");
    let campaigns = listing
        .get("campaigns")
        .and_then(Json::as_array)
        .expect("campaigns");
    assert_eq!(campaigns.len(), 24);
    assert!(campaigns
        .iter()
        .all(|c| c.get("state").and_then(Json::as_str) == Some("done")));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_acknowledged_and_drains() {
    let dir = arena("shutdown");
    let daemon = start(&dir, ServeConfig::default());
    let mut client = connect(&dir);
    let doc = client.shutdown().expect("shutdown");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    daemon.wait(); // returns because the client asked for shutdown
    assert!(!dir.join("serve.sock").exists(), "socket must be removed");
    let _ = std::fs::remove_dir_all(&dir);
}
