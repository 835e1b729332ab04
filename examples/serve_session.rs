//! A complete campaign-service session, in-process: starts the daemon,
//! speaks the raw line protocol through the blocking client, and prints
//! every request/response pair — the transcript in the README is this
//! example's output.
//!
//!     cargo run --release --example serve_session

use mixp_serve::{Client, DaemonConfig, DaemonHandle, ServeConfig};
use std::time::{Duration, Instant};

fn exchange(client: &mut Client, line: &str) -> mixp_harness::json::Json {
    println!(">>> {line}");
    let doc = client.request(line).expect("daemon answers");
    println!("<<< {}", mixp_harness::checkpoint::compact(&doc));
    doc
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mixp-serve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut serve = ServeConfig::default();
    serve.quotas.push(("intern".to_string(), 10));
    let daemon = DaemonHandle::start(DaemonConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join("state"),
        serve,
    })
    .expect("daemon start");
    let mut client =
        Client::connect_within(&dir.join("serve.sock"), Duration::from_secs(10)).expect("connect");

    // Submit a two-cell campaign for tenant "alice", with an idempotency key.
    let submit = r#"{"op":"submit","tenant":"alice","key":"nightly-7","jobs":[{"benchmark":"tridiag","algorithm":"DD","threshold":0.001,"budget":8},{"benchmark":"innerprod","algorithm":"CM","threshold":0.001,"budget":6}]}"#;
    let ack = exchange(&mut client, submit);
    let id = ack
        .get("id")
        .and_then(mixp_harness::json::Json::as_f64)
        .expect("id") as u64;

    // Resubmitting the same key dedupes instead of admitting twice.
    exchange(&mut client, submit);

    // A tenant over its evaluation-budget quota gets a typed rejection.
    exchange(
        &mut client,
        r#"{"op":"submit","tenant":"intern","jobs":[{"benchmark":"eos","algorithm":"DD","threshold":0.001,"budget":64}]}"#,
    );

    // Garbage is answered, never fatal.
    exchange(&mut client, r#"{"op":"frobnicate"}"#);

    // Poll status until the campaign is terminal, then show the ledger.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = client
            .request(&format!(r#"{{"op":"status","id":{id}}}"#))
            .expect("status");
        let state = doc.get("state").and_then(mixp_harness::json::Json::as_str);
        if state == Some("done") || state == Some("cancelled") {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    exchange(&mut client, &format!(r#"{{"op":"status","id":{id}}}"#));
    exchange(&mut client, r#"{"op":"list"}"#);
    exchange(&mut client, r#"{"op":"shutdown"}"#);
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
