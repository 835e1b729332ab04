//! The campaign service side: starting and stopping the daemon, the
//! single-threaded open-loop load generator, the `serve-open` workload
//! and the service probe of the campaign workloads.
//!
//! The generator is one thread with two connections. Submits go on one;
//! the other polls `status` for the outstanding campaigns in turn, so a
//! due submit waits at most one round trip. Campaigns are timed from when
//! they were due, not from when they were sent, so a stall in the
//! generator or the daemon counts against every campaign scheduled behind
//! it.

use crate::gen::{self, Arrival, Size};
use crate::layers;
use crate::oracle::{self, Oracle};
use crate::stats::{cpu_seconds, median, peak_rss_mb, tail};
use crate::{Run, Setting};
use mixp_core::{env_eval_workers, Obs, SpanGuard, Value};
use mixp_harness::json::Json;
use mixp_harness::{run_campaign, run_campaign_with_stats, CampaignOptions, Job};
use mixp_serve::protocol::SubmitOptions;
use mixp_serve::{Client, DaemonConfig, DaemonHandle, ServeConfig};
use std::collections::VecDeque;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon pool width, equal to the campaign workloads' pool width.
pub const WORKERS: usize = 2;

/// How a daemon is run: as a child process (the benchmark), or inside
/// this process through [`DaemonHandle::start`] (the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonMode {
    /// `mixbench daemon` as a child process.
    Process,
    /// In this process.
    InProcess,
}

fn daemon_config(socket: &Path, state: &Path) -> DaemonConfig {
    DaemonConfig {
        socket: socket.to_path_buf(),
        state_dir: state.to_path_buf(),
        serve: ServeConfig {
            workers: WORKERS,
            queue_depth: 4096,
            default_quota: 1 << 40,
            quotas: Vec::new(),
        },
    }
}

/// `mixbench daemon --socket S --state D`: the daemon the benchmark
/// spawns. It serves until its standard input closes, which happens when
/// the benchmark stops it or exits for any reason, so no daemon outlives
/// its run.
pub fn daemon_main(args: &[String]) -> i32 {
    let (Some(socket), Some(state)) = (flag(args, "--socket"), flag(args, "--state")) else {
        eprintln!("usage: mixbench daemon --socket PATH --state DIR");
        return 2;
    };
    let handle = match DaemonHandle::start(daemon_config(Path::new(socket), Path::new(state))) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("error: cannot start daemon: {err}");
            return 2;
        }
    };
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.stop();
    0
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

enum Process {
    Child(Child),
    InProcess(DaemonHandle),
}

/// A running daemon on a fresh state directory.
pub struct Daemon {
    socket: PathBuf,
    state: PathBuf,
    process: Option<Process>,
}

impl Daemon {
    /// Starts a daemon named `tag` under `dir` and waits for its first
    /// `list` answer. Returns it with the time from spawn to that answer.
    pub fn start(mode: DaemonMode, dir: &Path, tag: &str) -> std::io::Result<(Daemon, Duration)> {
        let socket = dir.join(format!("{tag}.sock"));
        let state = dir.join(format!("{tag}-state"));
        let started = Instant::now();
        let process = match mode {
            DaemonMode::Process => Process::Child(
                Command::new(std::env::current_exe()?)
                    .arg("daemon")
                    .arg("--socket")
                    .arg(&socket)
                    .arg("--state")
                    .arg(&state)
                    .env("MIXP_WORKERS", WORKERS.to_string())
                    .env_remove("MIXP_STEAL")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::null())
                    .spawn()?,
            ),
            DaemonMode::InProcess => {
                Process::InProcess(DaemonHandle::start(daemon_config(&socket, &state))?)
            }
        };
        let daemon = Daemon {
            socket,
            state,
            process: Some(process),
        };
        loop {
            match Client::connect(&daemon.socket) {
                Ok(mut client) => {
                    client.list(None)?;
                    return Ok((daemon, started.elapsed()));
                }
                Err(err) if started.elapsed() > Duration::from_secs(30) => return Err(err),
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// The process whose CPU time and memory the daemon's metrics read.
    pub fn pid(&self) -> u32 {
        match &self.process {
            Some(Process::Child(child)) => child.id(),
            _ => std::process::id(),
        }
    }

    /// Size of the daemon's queue journal, in KiB.
    pub fn journal_kb(&self) -> f64 {
        std::fs::metadata(self.state.join("queue.jsonl")).map_or(0.0, |m| m.len() as f64 / 1024.0)
    }

    /// Stops the daemon gracefully and waits until it has exited.
    pub fn stop(mut self) {
        self.shut_down(false);
    }

    fn shut_down(&mut self, kill: bool) {
        match self.process.take() {
            Some(Process::Child(mut child)) => {
                drop(child.stdin.take());
                if kill {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
            Some(Process::InProcess(handle)) => handle.stop(),
            None => {}
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached without `stop` only on an error path: do not wait for
        // in-flight cells.
        self.shut_down(true);
    }
}

/// What the generator saw of one campaign. Times are from the start of
/// its phase.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    /// How late the submit went out.
    pub late: Duration,
    /// Submit round trip.
    pub submit: Duration,
    /// The daemon's id; `None` if the submit was rejected.
    pub id: Option<u64>,
    /// First poll that found a cell running or finished.
    pub running: Option<Duration>,
    /// First poll that found the campaign terminal.
    pub terminal: Option<Duration>,
    /// Final state tag, or the rejection kind.
    pub state: String,
    /// The terminal `status` answer.
    pub status: Option<Json>,
}

/// One driven phase.
pub struct Phase {
    /// Per arrival, in schedule order.
    pub seen: Vec<Seen>,
    /// Every `status` round trip.
    pub status_rtts: Vec<Duration>,
}

impl Phase {
    /// Times from due to terminal, in ms, of campaigns that finished.
    fn latencies_ms(&self, arrivals: &[Arrival]) -> Vec<f64> {
        self.seen
            .iter()
            .zip(arrivals)
            .filter_map(|(s, a)| Some(ms(s.terminal?.saturating_sub(a.due))))
            .collect()
    }

    /// When the last campaign finished.
    fn end(&self) -> Duration {
        self.seen
            .iter()
            .filter_map(|s| s.terminal)
            .max()
            .unwrap_or_default()
    }

    /// Rejected, failed-cell or unfinished campaigns.
    fn failures(&self) -> u64 {
        self.seen.iter().filter(|s| !finished_clean(s)).count() as u64
    }

    /// Configurations evaluated across all finished campaigns.
    fn evaluated(&self) -> f64 {
        self.seen
            .iter()
            .filter_map(|s| s.status.as_ref()?.get("cells")?.as_array())
            .flatten()
            .filter_map(|c| c.get("evaluated")?.as_f64())
            .sum()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn finished_clean(seen: &Seen) -> bool {
    seen.state == "done"
        && seen
            .status
            .as_ref()
            .and_then(|s| s.get("cells")?.as_array())
            .is_some_and(|cells| {
                cells
                    .iter()
                    .all(|c| c.get("state").and_then(Json::as_str) == Some("done"))
            })
}

/// Least time between two polls of one campaign. Polling flat out would
/// keep the generator and a daemon connection thread busy on one of the
/// host's two cores, next to the daemon's two workers; at this pace the
/// polls cost a few percent of a core, and finishing times are resolved
/// to within a millisecond.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// The generator sleeps until this long before a send is due and spins
/// the rest, so wake-up delay does not make sends late.
const SPIN: Duration = Duration::from_micros(200);

fn io_error(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Drives `arrivals` against the daemon at `socket` until every admitted
/// campaign is terminal or `timeout` (from the phase start) passes.
/// Records a `client.campaign` span per campaign and a `client.submit`
/// span per submit in `obs`.
pub fn drive(
    socket: &Path,
    arrivals: &[Arrival],
    obs: &Obs,
    timeout: Duration,
) -> std::io::Result<Phase> {
    let mut submitter = Client::connect(socket)?;
    let mut poller = Client::connect(socket)?;
    let mut seen = vec![Seen::default(); arrivals.len()];
    let mut spans: Vec<Option<SpanGuard>> = (0..arrivals.len()).map(|_| None).collect();
    // Outstanding campaigns with the time each is next polled at; pushed
    // at `now + POLL_INTERVAL`, so the queue stays in time order.
    let mut outstanding: VecDeque<(Duration, usize)> = VecDeque::new();
    let mut status_rtts = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    while start.elapsed() < timeout {
        let now = start.elapsed();
        if next < arrivals.len() && arrivals[next].due <= now {
            let arrival = &arrivals[next];
            let campaign = obs.span("client.campaign", &[("index", Value::U64(next as u64))]);
            let sent = Instant::now();
            let submit = obs.span("client.submit", &[]);
            let answer = submitter.submit(
                &arrival.tenant,
                None,
                &arrival.jobs,
                &SubmitOptions::default(),
            )?;
            drop(submit);
            let s = &mut seen[next];
            s.submit = sent.elapsed();
            s.late = (sent - start).saturating_sub(arrival.due);
            match answer.get("id").and_then(Json::as_f64) {
                Some(id) if answer.get("ok") == Some(&Json::Bool(true)) => {
                    s.id = Some(id as u64);
                    spans[next] = Some(campaign);
                    outstanding.push_back((start.elapsed() + POLL_INTERVAL, next));
                }
                _ => {
                    s.state = answer
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("rejected")
                        .to_string();
                }
            }
            next += 1;
        } else if let Some(&(_, i)) = outstanding
            .front()
            .filter(|(at, _)| *at <= now)
            .filter(|_| arrivals.get(next).is_none_or(|a| a.due > now + SPIN))
        {
            // A poll never starts within SPIN of a due send.
            outstanding.pop_front();
            let id = seen[i].id.expect("outstanding campaigns were admitted");
            let asked = Instant::now();
            let answer = poller.status(id)?;
            status_rtts.push(asked.elapsed());
            let now = start.elapsed();
            let state = answer
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| io_error(format!("status without state: {answer:?}")))?
                .to_string();
            let s = &mut seen[i];
            if s.running.is_none() && state != "queued" {
                s.running = Some(now);
                obs.event("client.running", &[("index", Value::U64(i as u64))]);
            }
            if matches!(state.as_str(), "done" | "cancelled") {
                s.terminal = Some(now);
                s.status = Some(answer);
                drop(spans[i].take());
            } else {
                outstanding.push_back((now + POLL_INTERVAL, i));
            }
            s.state = state;
        } else if next == arrivals.len() && outstanding.is_empty() {
            break;
        } else {
            // Idle until the next poll or send; the last stretch before a
            // send is spun so sends stay on schedule.
            let poll = outstanding.front().map_or(Duration::MAX, |(at, _)| *at);
            let send = arrivals.get(next).map_or(Duration::MAX, |a| a.due);
            let wait = poll.min(send).saturating_sub(start.elapsed());
            if wait > SPIN {
                std::thread::sleep(if send <= poll { wait - SPIN } else { wait });
            } else {
                std::hint::spin_loop();
            }
        }
    }
    Ok(Phase { seen, status_rtts })
}

/// Campaigns per second offered in the open-loop phases: about an eighth
/// of the daemon's two cores. Near saturation, queueing multiplies every
/// fluctuation of a shared host's speed into latency (at 150/s the
/// run-to-run spread of the median was 21–27%); saturation is what the
/// bursts measure.
const RATE: f64 = 60.0;
/// A run is cut into segments of about this many seconds, each an
/// open-loop phase followed by a burst, so that every metric samples the
/// whole run rather than one stretch of it.
const SEGMENT_SECONDS: f64 = 5.0;
/// Share of a run's seconds spent in open-loop phases.
const OPEN_SHARE: f64 = 0.5;
/// Burst campaigns per second of run time; a burst then takes about two
/// fifths of its segment.
const BURST_PER_SECOND: f64 = 140.0;
/// Open-loop campaigns the oracle re-runs directly.
const ORACLE_SAMPLE: usize = 25;
/// Open-loop campaigns the digest covers.
const DIGEST_CAMPAIGNS: usize = 100;
/// Slack after the last scheduled send before unfinished campaigns count
/// as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// The per-layer service metrics of one driven phase.
fn serve_metrics(
    phase: &Phase,
    arrivals: &[Arrival],
    daemon_cpu_s: f64,
    journal_kb: f64,
    run: &mut Run,
) {
    let submit: Vec<f64> = phase.seen.iter().map(|s| ms(s.submit)).collect();
    let status: Vec<f64> = phase.status_rtts.iter().map(|d| ms(*d)).collect();
    let wait: Vec<f64> = phase
        .seen
        .iter()
        .zip(arrivals)
        .filter_map(|(s, a)| Some(ms(s.running?.saturating_sub(a.due))))
        .collect();
    let running: Vec<f64> = phase
        .seen
        .iter()
        .filter_map(|s| Some(ms(s.terminal?.saturating_sub(s.running?))))
        .collect();
    let late: Vec<f64> = phase.seen.iter().map(|s| ms(s.late)).collect();
    let finished = phase.seen.iter().filter(|s| s.terminal.is_some()).count();
    run.put("serve.submit_p50_ms", median(&submit));
    run.put_tail("serve.submit_tail_ms", &submit);
    run.put("serve.status_p50_ms", median(&status));
    run.put("serve.queue_wait_p50_ms", median(&wait));
    run.put_tail("serve.queue_wait_tail_ms", &wait);
    run.put("serve.run_p50_ms", median(&running));
    run.put_tail("serve.lat_tail_ms", &phase.latencies_ms(arrivals));
    run.put(
        "serve.daemon_cpu_ms",
        daemon_cpu_s * 1e3 / finished.max(1) as f64,
    );
    run.put("serve.journal_kb", journal_kb);
    run.put_tail("loadgen.late_tail_ms", &late);
}

fn cpu(pid: u32) -> f64 {
    cpu_seconds(pid).unwrap_or(0.0)
}

/// Concatenates phases; their arrivals concatenate the same way.
fn merge(phases: Vec<Phase>) -> Phase {
    let mut merged = Phase {
        seen: Vec::new(),
        status_rtts: Vec::new(),
    };
    for phase in phases {
        merged.seen.extend(phase.seen);
        merged.status_rtts.extend(phase.status_rtts);
    }
    merged
}

/// The `serve-open` workload: one daemon, driven in segments. Each
/// segment offers Poisson arrivals at 60 campaigns/s from 4 tenants,
/// lets them drain, then submits a burst back to back and lets that
/// drain. Latency comes from the open-loop phases, throughput from the
/// bursts. Before each segment a spare daemon is started and stopped, so
/// that set-up time is sampled across the run.
pub fn run_open(seed: u64, seconds: f64, traced: bool, setting: &Setting) -> std::io::Result<Run> {
    let mut run = Run::default();
    let size = setting.size;
    let segments = (seconds / SEGMENT_SECONDS).round().max(1.0);
    let open_len = Duration::from_secs_f64((seconds * OPEN_SHARE / segments).max(0.5));
    let burst_count = match size {
        Size::Full => (BURST_PER_SECOND * seconds / segments).ceil() as usize,
        Size::Tiny => 8,
    };
    let client_obs = layers::trace_obs(traced);

    let (daemon, took) = Daemon::start(setting.daemon, &setting.dir, "main")?;
    let mut setups = vec![took.as_secs_f64()];
    let pid = daemon.pid();
    let (mut open, mut opens) = (Vec::new(), Vec::new());
    let (mut open_cpu, mut burst_cpu, mut burst_wall) = (0.0, 0.0, 0.0);
    let mut throughputs = Vec::new();
    for segment in 0..segments as u64 {
        let (spare, took) =
            Daemon::start(setting.daemon, &setting.dir, &format!("spare{segment}"))?;
        spare.stop();
        setups.push(took.as_secs_f64());

        let arrivals = gen::open_loop(seed, segment, size, RATE, open_len);
        let cpu0 = cpu(pid);
        opens.push(drive(
            &daemon.socket,
            &arrivals,
            &client_obs,
            open_len + DRAIN_TIMEOUT,
        )?);
        let cpu1 = cpu(pid);
        open.extend(arrivals);
        let arrivals = gen::burst(seed, segment, size, burst_count);
        let phase = drive(&daemon.socket, &arrivals, &client_obs, DRAIN_TIMEOUT)?;
        let cpu2 = cpu(pid);
        let wall = phase.end().as_secs_f64();
        throughputs.push(phase.evaluated() / wall);
        open_cpu += cpu1 - cpu0;
        burst_cpu += cpu2 - cpu1;
        burst_wall += wall;
        run.attempted += arrivals.len() as u64;
        run.failed += phase.failures();
    }
    let rss = peak_rss_mb(pid).unwrap_or(0.0);
    let journal_kb = daemon.journal_kb();
    daemon.stop();
    // The digest covers the first segment's first campaigns, the same for
    // any run length long enough to offer them all.
    let digested = opens[0].seen.len() >= DIGEST_CAMPAIGNS;
    let phase1 = merge(opens);

    run.attempted += open.len() as u64;
    run.failed += phase1.failures();
    run.put("setup_s", median(&setups));
    run.put("latency_ms", median(&phase1.latencies_ms(&open)));
    run.put("evals_per_s", median(&throughputs));
    run.put("rss_peak_mb", rss);
    let late = tail(&phase1.seen.iter().map(|s| ms(s.late)).collect::<Vec<_>>());
    run.late_tail_ms = Some(late.value);
    run.notes.push(format!(
        "open-loop sends were at most {:.3} ms late at the {} of {} samples",
        late.value, late.label, late.n
    ));
    if digested {
        run.digest = oracle::digest(
            phase1
                .seen
                .iter()
                .take(DIGEST_CAMPAIGNS)
                .filter_map(|s| s.status.as_ref()?.get("cells")),
        );
    }

    // Oracle: a seeded sample of open-loop campaigns re-run directly, at
    // the daemon's widths, must report the identical cell documents. In a
    // traced run the sample runs a second time with tracing on, for the
    // scheduler, evaluator and pool metrics.
    let campaign_obs = layers::trace_obs(traced);
    let opts = CampaignOptions {
        workers: WORKERS,
        eval_workers: env_eval_workers(),
        ..CampaignOptions::default()
    };
    let mut oracle = Oracle::new();
    let mut evaluated = 0.0;
    let mut overheads = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    for i in gen::sample(seed, open.len(), ORACLE_SAMPLE) {
        let Some(status) = phase1.seen[i].status.as_ref() else {
            continue; // already counted as a failure
        };
        let jobs = &open[i].jobs;
        let plain = Instant::now();
        let (outcomes, stats) = run_campaign_with_stats(jobs, &opts);
        let plain = plain.elapsed().as_secs_f64();
        hits += stats.shared_cache_hits;
        misses += stats.shared_cache_misses;
        let mut mismatches = oracle.check_all(&outcomes);
        if let Err(err) = oracle::compare_cells(&oracle::result_docs(&outcomes), status) {
            mismatches.push(format!("campaign {i}: {err}"));
        }
        run.mismatch(mismatches);
        if traced {
            let t = Instant::now();
            let traced_outcomes = run_campaign(
                jobs,
                &CampaignOptions {
                    obs: campaign_obs.clone(),
                    ..opts.clone()
                },
            );
            overheads.push(t.elapsed().as_secs_f64() / plain - 1.0);
            evaluated += traced_outcomes
                .iter()
                .filter_map(|o| o.result())
                .map(|r| r.result.evaluated as f64)
                .sum::<f64>();
        }
    }

    if traced {
        serve_metrics(&phase1, &open, open_cpu, journal_kb, &mut run);
        run.put("pool.cpu_util", burst_cpu / (burst_wall * WORKERS as f64));
        run.put("obs.overhead_frac", median(&overheads));
        layers::obs_metrics(&campaign_obs, evaluated, &mut run);
        run.put("harness.cache_hit_ratio", layers::hit_ratio(hits, misses));
        run.put("search.evaluated", phase1.evaluated());
        let dnf = phase1
            .seen
            .iter()
            .filter_map(|s| s.status.as_ref()?.get("cells")?.as_array())
            .flatten()
            .filter(|c| c.get("dnf") == Some(&Json::Bool(true)))
            .count();
        run.put("search.dnf_cells", dnf as f64);
        let jobs: Vec<Job> = open.iter().flat_map(|a| a.jobs.clone()).collect();
        let probe_obs = layers::trace_obs(true);
        layers::probes(&gen::distinct(&jobs), seed, &probe_obs, &mut run);
        run.traces = vec![client_obs, campaign_obs, probe_obs];
    }
    Ok(run)
}

/// One-cell campaigns of the service probe, their spacing and budget cap.
const PROBE_CAMPAIGNS: usize = 24;
const PROBE_SPACING: Duration = Duration::from_millis(25);
const PROBE_BUDGET: usize = 4;

/// The service probe of a campaign workload: one-cell campaigns sampled
/// from its job list, budgets capped, submitted on a paced schedule to a
/// fresh daemon. Fills the `serve.*` and `loadgen.*` metrics.
pub fn probe(
    jobs: &[Job],
    seed: u64,
    setting: &Setting,
    obs: &Obs,
    run: &mut Run,
) -> std::io::Result<()> {
    let (daemon, _) = Daemon::start(setting.daemon, &setting.dir, "probe")?;
    let arrivals = gen::paced(jobs, seed, PROBE_CAMPAIGNS, PROBE_SPACING, PROBE_BUDGET);
    let pid = daemon.pid();
    let cpu0 = cpu(pid);
    let last_due = arrivals.last().map_or(Duration::ZERO, |a| a.due);
    let phase = drive(&daemon.socket, &arrivals, obs, last_due + DRAIN_TIMEOUT)?;
    let cpu1 = cpu(pid);
    let journal_kb = daemon.journal_kb();
    daemon.stop();
    run.mismatch(
        phase
            .seen
            .iter()
            .enumerate()
            .filter(|(_, s)| !finished_clean(s))
            .map(|(i, s)| format!("service probe campaign {i} ended `{}`", s.state))
            .collect(),
    );
    serve_metrics(&phase, &arrivals, cpu1 - cpu0, journal_kb, run);
    Ok(())
}
