//! The HPC-MixPBench harness driver (§III-A.c).
//!
//! The paper's harness is invoked with a YAML configuration file and "runs
//! the analysis …, compiles the application, executes the generated
//! binaries, and performs the prescribed analysis and evaluation to
//! quantify quality loss and to measure execution time". This binary is
//! that entry point:
//!
//! ```sh
//! cargo run --release --bin harness -- configs/kmeans.yaml
//! cargo run --release --bin harness -- --scale small --workers 4 configs/*.yaml
//! cargo run --release --bin harness -- --json configs/kmeans.yaml
//! cargo run --release --bin harness -- --deadline-ms 60000 --retries 3 \
//!     --checkpoint run-state.jsonl configs/*.yaml
//! ```
//!
//! Each configuration file describes one benchmark analysis (Listing 4
//! shape); multiple files are scheduled in parallel. `--json` emits the
//! FloatSmith-style interchange document instead of the text report.
//! Failed cells are rendered as `FAILED(reason)` rows and the process
//! exits with status 3 (so scripts can distinguish "campaign finished
//! with failures" from usage errors); a `--checkpoint` file makes the
//! campaign resumable after a kill.
//!
//! Observability: `--trace FILE` streams the campaign's span/event log as
//! append-only JSONL (evaluations, search phases, retries, cache shards),
//! and `--metrics` prints the aggregated counter/histogram snapshot after
//! the report. Neither flag changes any reported number or the exit code.
//! `harness trace-summary run.jsonl` turns a captured trace back into a
//! per-phase wall-clock table offline.
//!
//! `harness serve` starts the long-lived multi-tenant campaign daemon
//! (`mixp-serve`) on a Unix-domain socket:
//!
//! ```sh
//! cargo run --release --bin harness -- serve \
//!     --socket /tmp/mixp.sock --state /tmp/mixp-state \
//!     --workers 4 --queue-depth 64 --default-quota 4096 --quota vip=65536
//! ```
//!
//! It runs until a client sends `{"op":"shutdown"}`; admitted-but-
//! unfinished campaigns survive a kill via the queue journal in the state
//! directory and resume on the next start.

use mixp_core::{MetricsSnapshot, Obs};
use mixp_harness::config::AnalysisConfig;
use mixp_harness::interchange;
use mixp_harness::job::Job;
use mixp_harness::report::{fmt_evaluated, fmt_failed, fmt_quality, fmt_speedup, render_table};
use mixp_harness::{run_campaign_with_stats, CampaignOptions, RetryPolicy, Scale};
use mixp_serve::{DaemonConfig, DaemonHandle, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

struct Cli {
    scale: Scale,
    workers: usize,
    json: bool,
    deadline: Option<Duration>,
    grace: Option<Duration>,
    retries: u32,
    backoff: Duration,
    checkpoint: Option<PathBuf>,
    fsync_every: Option<usize>,
    trace: Option<PathBuf>,
    metrics: bool,
    files: Vec<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Paper,
        workers: mixp_harness::scheduler::default_workers(),
        json: false,
        deadline: None,
        grace: None,
        retries: 1,
        backoff: Duration::ZERO,
        checkpoint: None,
        fsync_every: None,
        trace: None,
        metrics: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                cli.scale = match v.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                cli.workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad deadline `{v}`"))?;
                cli.deadline = Some(Duration::from_millis(ms));
            }
            "--grace-ms" => {
                let v = args.next().ok_or("--grace-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad grace period `{v}`"))?;
                cli.grace = Some(Duration::from_millis(ms.max(1)));
            }
            "--retries" => {
                let v = args.next().ok_or("--retries needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad retry count `{v}`"))?;
                cli.retries = n.max(1);
            }
            "--backoff-ms" => {
                let v = args.next().ok_or("--backoff-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad backoff `{v}`"))?;
                cli.backoff = Duration::from_millis(ms);
            }
            "--checkpoint" => {
                let v = args.next().ok_or("--checkpoint needs a path")?;
                cli.checkpoint = Some(PathBuf::from(v));
            }
            "--fsync-every" => {
                let v = args.next().ok_or("--fsync-every needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad fsync cadence `{v}`"))?;
                cli.fsync_every = Some(n);
            }
            "--trace" => {
                let v = args.next().ok_or("--trace needs a path")?;
                cli.trace = Some(PathBuf::from(v));
            }
            "--metrics" => cli.metrics = true,
            "--json" => cli.json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => cli.files.push(file.to_string()),
        }
    }
    if cli.files.is_empty() {
        return Err("no configuration files given".to_string());
    }
    Ok(cli)
}

/// `harness trace-summary <trace.jsonl>...` — offline phase table for
/// `--trace` logs. Exits 0 on success, 2 on usage/IO errors.
fn run_trace_summary(files: &[String]) -> ! {
    if files.is_empty() {
        eprintln!("error: trace-summary needs at least one trace file");
        eprintln!("usage: harness trace-summary <trace.jsonl>...");
        std::process::exit(2);
    }
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        if files.len() > 1 {
            println!("== {file}");
        }
        print!(
            "{}",
            mixp_harness::render_trace_summary(&mixp_harness::summarize_trace(&text))
        );
    }
    std::process::exit(0);
}

/// `harness serve ...` — the campaign daemon. Blocks until a client sends
/// `shutdown`. Exits 0 on a clean stop, 2 on usage/startup errors.
/// Silences backtraces for *injected* fault panics only — the scheduler
/// catches those and turns them into typed `JobError`s, so a multi-tenant
/// daemon must not spam its stderr every time one tenant's faulted job
/// fires. Real panics still print through the previous hook.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with("injected fault"));
        if !injected {
            previous(info);
        }
    }));
}

fn run_serve(args: &[String]) -> ! {
    let usage = "usage: harness serve --socket PATH --state DIR [--workers N] \
                 [--queue-depth N] [--default-quota N] [--quota TENANT=N]...";
    let mut socket: Option<PathBuf> = None;
    let mut state_dir: Option<PathBuf> = None;
    let mut serve = ServeConfig::default();
    let mut iter = args.iter();
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => match iter.next() {
                Some(v) => socket = Some(PathBuf::from(v)),
                None => fail("--socket needs a path"),
            },
            "--state" => match iter.next() {
                Some(v) => state_dir = Some(PathBuf::from(v)),
                None => fail("--state needs a directory"),
            },
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => serve.workers = n,
                _ => fail("--workers needs a positive integer"),
            },
            "--queue-depth" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => serve.queue_depth = n,
                _ => fail("--queue-depth needs a positive integer"),
            },
            "--default-quota" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => serve.default_quota = n,
                None => fail("--default-quota needs an integer"),
            },
            "--quota" => {
                let Some((tenant, amount)) = iter.next().and_then(|v| v.split_once('=')) else {
                    fail("--quota needs TENANT=N");
                };
                match amount.parse() {
                    Ok(n) => serve.quotas.push((tenant.to_string(), n)),
                    Err(_) => fail("--quota needs TENANT=N with integer N"),
                }
            }
            other => fail(&format!("unknown serve argument `{other}`")),
        }
    }
    let Some(socket) = socket else {
        fail("--socket is required");
    };
    let Some(state_dir) = state_dir else {
        fail("--state is required");
    };
    let config = DaemonConfig {
        socket,
        state_dir,
        serve,
    };
    quiet_injected_panics();
    match DaemonHandle::start(config) {
        Ok(handle) => {
            handle.wait();
            std::process::exit(0);
        }
        Err(err) => {
            eprintln!("error: cannot start daemon: {err}");
            std::process::exit(2);
        }
    }
}

fn main() {
    // Subcommand dispatch: the first positional argument selects the
    // offline trace consumer or the daemon; everything else is the
    // campaign driver.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace-summary") {
        run_trace_summary(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(&argv[1..]);
    }

    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: harness [--scale small|paper] [--workers N] [--json] \
                 [--deadline-ms MS] [--grace-ms MS] [--retries N] [--backoff-ms MS] \
                 [--checkpoint FILE] [--fsync-every N] [--trace FILE] [--metrics] \
                 <config.yaml>...\n       harness trace-summary <trace.jsonl>...\n       \
                 harness serve --socket PATH --state DIR [--workers N] [--queue-depth N] \
                 [--default-quota N] [--quota TENANT=N]..."
            );
            std::process::exit(2);
        }
    };

    let mut jobs = Vec::new();
    for file in &cli.files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        let cfg = match AnalysisConfig::from_yaml(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                std::process::exit(2);
            }
        };
        let mut job = Job::new(&cfg.benchmark, &cfg.algorithm, cfg.threshold, cli.scale);
        if let Some(budget) = cfg.budget {
            job.budget = budget;
        }
        jobs.push(job);
    }

    // Tracing/metrics are opt-in; the default noop handle records nothing.
    // Wall-clock enrichment is enabled for human-read traces — the logical
    // sequence numbers alone stay deterministic.
    let obs = if cli.trace.is_some() || cli.metrics {
        let mut builder = Obs::builder().wall_clock(true);
        if let Some(path) = &cli.trace {
            builder = builder.trace_path(path.clone());
        }
        match builder.build() {
            Ok(obs) => obs,
            Err(e) => {
                eprintln!("warning: cannot open trace file: {e}; tracing disabled");
                Obs::noop()
            }
        }
    } else {
        Obs::noop()
    };

    let defaults = CampaignOptions::default();
    let opts = CampaignOptions {
        workers: cli.workers,
        deadline: cli.deadline,
        grace: cli.grace.unwrap_or(defaults.grace),
        retry: RetryPolicy {
            max_attempts: cli.retries,
            backoff: cli.backoff,
            ..RetryPolicy::default()
        },
        checkpoint: cli.checkpoint.clone(),
        fsync_every: cli.fsync_every.unwrap_or(defaults.fsync_every),
        obs: obs.clone(),
        ..defaults
    };
    let (outcomes, stats) = run_campaign_with_stats(&jobs, &opts);
    let metrics: Option<MetricsSnapshot> = obs.metrics_snapshot();
    let failures = outcomes.iter().filter(|o| o.outcome.is_err()).count();

    if cli.json {
        println!(
            "{}",
            interchange::outcomes_to_json_full(&outcomes, Some(&stats), metrics.as_ref())
        );
    } else {
        let rows: Vec<Vec<String>> = outcomes
            .iter()
            .map(|o| match &o.outcome {
                Ok(r) => vec![
                    r.benchmark.clone(),
                    r.algorithm.clone(),
                    format!("{:.0e}", r.threshold),
                    fmt_speedup(r.result.speedup()),
                    fmt_quality(r.result.quality()),
                    fmt_evaluated(r),
                ],
                Err(_) => vec![
                    o.job.benchmark.clone(),
                    o.job.algorithm.clone(),
                    format!("{:.0e}", o.job.threshold),
                    fmt_failed(o).unwrap_or_default(),
                    "-".to_string(),
                    "-".to_string(),
                ],
            })
            .collect();
        print!(
            "{}",
            render_table(
                &[
                    "Benchmark",
                    "Algorithm",
                    "Threshold",
                    "Speedup",
                    "Quality",
                    "Evaluated"
                ],
                &rows
            )
        );
        println!(
            "shared evaluation cache: {} hits, {} misses",
            stats.shared_cache_hits, stats.shared_cache_misses
        );
        if cli.metrics {
            match &metrics {
                Some(snap) if !snap.is_empty() => {
                    print!("{}", mixp_harness::report::metrics_footer(snap));
                }
                _ => println!("campaign metrics: (none recorded)"),
            }
        }
        for o in &outcomes {
            if let Err(e) = &o.outcome {
                eprintln!(
                    "failed: {} / {} after {} attempt(s): {e}",
                    o.job.benchmark, o.job.algorithm, o.attempts
                );
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} of {} cells failed", outcomes.len());
        std::process::exit(3);
    }
}
