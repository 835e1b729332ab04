//! The campaign daemon: a Unix-domain-socket server multiplexing many
//! tenants' campaigns over one shared work-stealing pool.
//!
//! # Thread budget
//!
//! The daemon owns exactly three kinds of threads:
//!
//! * the **accept loop** (one thread), polling a non-blocking
//!   [`UnixListener`] so it can notice shutdown;
//! * one **connection thread** per live client connection, blocking on
//!   line reads (it exits when the peer closes);
//! * the **dispatcher** (one thread), which drains the queue in waves on
//!   the shared [`Pool`] — the same pool nested evaluator batches join, so
//!   total compute threads stay capped at `workers` no matter how many
//!   campaigns are in flight. Campaigns with a deadline additionally hold
//!   one [`Watchdog`] supervisor thread for their lifetime.
//!
//! # Dispatch waves
//!
//! The dispatcher repeatedly asks the state machine for a wave of up to
//! `workers` cells ([`ServiceState::pick_wave`] — round-robin across
//! tenants), runs the wave with [`Pool::run_batch`]/[`run_cell`], then
//! records and journals every outcome before picking the next wave.
//! Each cell executes with *its own campaign's* options, shared evaluation
//! cache and watchdog, so outcomes are bit-identical to what
//! `run_campaign` would report for that campaign alone. Cancellation is
//! therefore wave-granular: cancelled cells never dispatch, in-flight
//! cells finish and are recorded.
//!
//! A `SIGKILL` between a cell finishing and the post-wave journal append
//! loses at most that wave's outcomes — the cells simply re-run after
//! restart, deterministically.
//!
//! # Progress streaming
//!
//! Every campaign runs under an [`Obs`] handle whose sink forwards each
//! rendered record to the campaign's subscribers ([`Sink::Forward`] —
//! `mixp-obs` renders the line once, the callback fans it out). With no
//! subscribers the callback drops the line after one atomic load. Tracing
//! never changes outcomes, so streaming is free of result skew by
//! construction.

use crate::journal::QueueJournal;
use crate::protocol::{
    error_line, ok_line, parse_request, scale_tag, RejectKind, Request, MAX_LINE_BYTES,
};
use crate::state::{Admission, Campaign, CellSlot, ServeConfig, ServiceState, Terminal, WaveCell};
use mixp_core::Obs;
use mixp_harness::checkpoint::{compact, failure_doc, result_doc};
use mixp_harness::json::Json;
use mixp_harness::scheduler::{run_cell, CampaignOptions, RetryPolicy};
use mixp_harness::{FaultPlan, SharedEvalCache, Watchdog};
use mixp_pool::Pool;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-subscriber stream buffer (records). A subscriber that cannot keep
/// up loses intermediate records (lossy streaming), never blocks a worker.
const SUBSCRIBER_BUFFER: usize = 1024;

/// How long the accept loop and an idle dispatcher sleep between checks.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Everything the daemon's threads share.
struct Shared {
    state: Mutex<ServiceState>,
    /// Wakes the dispatcher when work arrives or shutdown is requested.
    work: Condvar,
    journal: Mutex<QueueJournal>,
    /// Per-campaign live resources, created at first dispatch, dropped at
    /// terminal.
    runtimes: Mutex<BTreeMap<u64, CampaignRuntime>>,
    /// Per-campaign subscriber channels. Dropping a campaign's senders is
    /// what ends its subscribers' streams.
    subscribers: Mutex<BTreeMap<u64, Vec<SyncSender<String>>>>,
    /// Graceful-stop flag: refuse new work, finish the in-flight wave,
    /// sync, exit.
    stop: AtomicBool,
    pool: Pool,
}

/// One live campaign's execution resources.
struct CampaignRuntime {
    opts: Arc<CampaignOptions>,
    cache: Option<Arc<SharedEvalCache>>,
    watchdog: Option<Arc<Watchdog>>,
}

/// Daemon configuration: where to listen, where to persist, how to admit.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path (created at start, removed at stop).
    pub socket: PathBuf,
    /// State directory holding the queue journal (`queue.jsonl`).
    pub state_dir: PathBuf,
    /// Admission/fairness configuration.
    pub serve: ServeConfig,
}

/// A running daemon. Obtain with [`DaemonHandle::start`]; stop gracefully
/// with [`DaemonHandle::stop`] or block on a client-issued `shutdown` with
/// [`DaemonHandle::wait`].
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    dispatch_thread: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl DaemonHandle {
    /// Binds the socket, replays the queue journal, and spawns the accept
    /// loop and the dispatcher. Campaigns interrupted by a previous kill
    /// resume dispatching immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the state directory, journal or
    /// socket cannot be set up.
    pub fn start(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        std::fs::create_dir_all(&config.state_dir)?;
        let (journal, restored) = QueueJournal::open(&config.state_dir.join("queue.jsonl"))?;
        let mut state = ServiceState::new(config.serve.clone());
        for campaign in restored {
            state.restore(campaign);
        }
        // A stale socket file from a killed daemon would make bind fail.
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let workers = config.serve.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            journal: Mutex::new(journal),
            runtimes: Mutex::new(BTreeMap::new()),
            subscribers: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
            pool: Pool::new(workers, Obs::noop()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        let dispatch_shared = Arc::clone(&shared);
        let dispatch_thread = std::thread::Builder::new()
            .name("serve-dispatch".to_string())
            .spawn(move || dispatch_loop(&dispatch_shared))?;
        Ok(DaemonHandle {
            shared,
            accept_thread: Some(accept_thread),
            dispatch_thread: Some(dispatch_thread),
            socket: config.socket,
        })
    }

    /// Blocks until the daemon stops (a client sent `shutdown`, or
    /// [`DaemonHandle::stop`] ran on another handle path), then cleans up
    /// the socket file.
    pub fn wait(mut self) {
        self.join();
    }

    /// Requests a graceful stop and blocks until the daemon is down: the
    /// in-flight wave finishes, the journal is synced, the socket file is
    /// removed. Admitted-but-unfinished campaigns stay in the journal and
    /// resume on the next start.
    pub fn stop(mut self) {
        self.shared.request_stop();
        self.join();
    }

    fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shared.request_stop();
        self.join();
    }
}

impl Shared {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the dispatcher out of its condvar wait.
        let _guard = lock(&self.state);
        self.work.notify_all();
    }

    /// Drops a terminal campaign's live resources and closes its
    /// subscriber streams.
    fn finalize_campaign(&self, id: u64) {
        if let Some(runtime) = lock(&self.runtimes).remove(&id) {
            drop(runtime);
        }
        lock(&self.subscribers).remove(&id);
    }
}

/// Locks a mutex, recovering from a poisoned lock (a panicking connection
/// thread must not wedge the daemon).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let shared = Arc::clone(shared);
                // Connection threads are detached: they exit when the peer
                // hangs up (or shortly after stop, once their read ends).
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || serve_connection(stream, &shared));
                if let Err(err) = spawned {
                    eprintln!("warning: connection thread spawn failed: {err}");
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(err) => {
                eprintln!("warning: accept failed: {err}");
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// The per-connection request/response loop. Malformed lines answer with
/// `bad-request` and keep the connection open; an oversized line or EOF
/// closes it.
fn serve_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        match read_bounded_line(&mut reader, &mut buffer) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(_) => {
                let _ = send_line(
                    &mut writer,
                    &error_line(RejectKind::BadRequest, "request line too long"),
                );
                return;
            }
        }
        let line = String::from_utf8_lossy(&buffer);
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        let request = match parse_request(trimmed) {
            Ok(request) => request,
            Err(reason) => {
                if send_line(&mut writer, &error_line(RejectKind::BadRequest, &reason)).is_err() {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit {
                tenant,
                key,
                jobs,
                options,
            } => {
                let response = handle_submit(shared, &tenant, key, jobs, options);
                send_line(&mut writer, &response).is_ok()
            }
            Request::Status { id } => {
                let response = {
                    let state = lock(&shared.state);
                    match state.campaign(id) {
                        None => {
                            error_line(RejectKind::UnknownCampaign, &format!("no campaign {id}"))
                        }
                        Some(campaign) => ok_line(campaign_doc(campaign, true)),
                    }
                };
                send_line(&mut writer, &response).is_ok()
            }
            Request::Subscribe { id } => {
                // Takes over the connection until the campaign is terminal.
                serve_subscription(shared, &mut writer, id).is_ok()
            }
            Request::Cancel { id } => {
                let response = handle_cancel(shared, id);
                send_line(&mut writer, &response).is_ok()
            }
            Request::List { tenant } => {
                let response = {
                    let state = lock(&shared.state);
                    list_doc(&state, tenant.as_deref())
                };
                send_line(&mut writer, &ok_line(response)).is_ok()
            }
            Request::Shutdown => {
                let _ = send_line(&mut writer, &ok_line(vec![]));
                shared.request_stop();
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// `BufRead::read_until` with a hard byte bound: a peer streaming an
/// unterminated line cannot balloon daemon memory.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut total = 0usize;
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        };
        if available.is_empty() {
            return Ok(total);
        }
        let newline = available.iter().position(|b| *b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if total + take > MAX_LINE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request line exceeds MAX_LINE_BYTES",
            ));
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        total += take;
        if newline.is_some() {
            return Ok(total);
        }
    }
}

fn send_line(writer: &mut UnixStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_submit(
    shared: &Arc<Shared>,
    tenant: &str,
    key: Option<String>,
    jobs: Vec<mixp_harness::Job>,
    options: crate::protocol::SubmitOptions,
) -> String {
    let admission = {
        let mut state = lock(&shared.state);
        let admission = state.admit(tenant, key, jobs, options);
        if let Admission::Admitted { id } = &admission {
            // Journal the admission before acknowledging it, while still
            // holding the state lock: once the client sees `ok`, a killed
            // and restarted daemon must still know about the campaign (and
            // its quota charge).
            let campaign = state.campaign(*id).expect("just admitted");
            if let Err(err) = lock(&shared.journal).record_admission(campaign) {
                eprintln!("warning: queue journal append failed: {err}");
            }
            shared.work.notify_all();
        }
        admission
    };
    match admission {
        Admission::Admitted { id } => ok_line(vec![
            ("id".to_string(), Json::Number(id as f64)),
            ("duplicate".to_string(), Json::Bool(false)),
        ]),
        Admission::Duplicate { id } => ok_line(vec![
            ("id".to_string(), Json::Number(id as f64)),
            ("duplicate".to_string(), Json::Bool(true)),
        ]),
        Admission::Rejected { kind, message } => error_line(kind, &message),
    }
}

fn handle_cancel(shared: &Arc<Shared>, id: u64) -> String {
    let (known, now_terminal) = {
        let mut state = lock(&shared.state);
        let known = state.cancel(id);
        if known {
            if let Err(err) = lock(&shared.journal).record_cancel(id) {
                eprintln!("warning: queue journal append failed: {err}");
            }
        }
        (
            known,
            known && state.campaign(id).and_then(Campaign::terminal).is_some(),
        )
    };
    if !known {
        return error_line(RejectKind::UnknownCampaign, &format!("no campaign {id}"));
    }
    if now_terminal {
        // Nothing was in flight: the campaign is terminal right now, so
        // release its resources and end its subscriber streams.
        shared.finalize_campaign(id);
    }
    ok_line(vec![("id".to_string(), Json::Number(id as f64))])
}

/// Streams a campaign's observability records to this connection until the
/// campaign is terminal, then writes the `{"done":...}` trailer.
fn serve_subscription(
    shared: &Arc<Shared>,
    writer: &mut UnixStream,
    id: u64,
) -> std::io::Result<()> {
    let receiver: Option<Receiver<String>> = {
        // Subscribe under the state lock so a terminal transition cannot
        // slip between the check and the registration.
        let state = lock(&shared.state);
        match state.campaign(id) {
            None => {
                return send_line(
                    writer,
                    &error_line(RejectKind::UnknownCampaign, &format!("no campaign {id}")),
                );
            }
            Some(campaign) if campaign.terminal().is_some() => None,
            Some(_) => {
                let (sender, receiver) = sync_channel(SUBSCRIBER_BUFFER);
                lock(&shared.subscribers)
                    .entry(id)
                    .or_default()
                    .push(sender);
                Some(receiver)
            }
        }
    };
    send_line(
        writer,
        &ok_line(vec![("id".to_string(), Json::Number(id as f64))]),
    )?;
    if let Some(receiver) = receiver {
        // The stream ends when the dispatcher drops the campaign's senders
        // at terminal (recv errs), or earlier if the peer hangs up.
        while let Ok(record) = receiver.recv() {
            send_line(writer, &record)?;
        }
    }
    let trailer = {
        let state = lock(&shared.state);
        let tag = state
            .campaign(id)
            .map_or("unknown", |campaign| campaign.state_tag());
        compact(&Json::Object(vec![
            ("done".to_string(), Json::Bool(true)),
            ("id".to_string(), Json::Number(id as f64)),
            ("state".to_string(), Json::String(tag.to_string())),
        ]))
    };
    send_line(writer, &trailer)
}

/// The dispatcher: waves of cells picked fairly across tenants, executed
/// on the shared pool, recorded and journaled. Exits on stop once the
/// current wave has drained, leaving remaining cells journaled as pending.
fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let wave = {
            let mut state = lock(&shared.state);
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = lock(&shared.journal).sync();
                    return;
                }
                let workers = state.config.workers.max(1);
                let wave = state.pick_wave(workers);
                if !wave.is_empty() {
                    break wave;
                }
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(state, POLL_INTERVAL)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                state = guard;
            }
        };
        run_wave(shared, &wave);
    }
}

/// Executes one wave: clone each cell's inputs, fan out on the pool, then
/// record, journal and (for campaigns that turned terminal) finalize.
fn run_wave(shared: &Arc<Shared>, wave: &[WaveCell]) {
    struct Work {
        cell: WaveCell,
        job: mixp_harness::Job,
        opts: Arc<CampaignOptions>,
        cache: Option<Arc<SharedEvalCache>>,
        watchdog: Option<Arc<Watchdog>>,
    }
    let work: Vec<Work> = {
        let state = lock(&shared.state);
        let mut runtimes = lock(&shared.runtimes);
        wave.iter()
            .filter_map(|cell| {
                let campaign = state.campaign(cell.campaign)?;
                let runtime = runtimes
                    .entry(cell.campaign)
                    .or_insert_with(|| campaign_runtime(shared, campaign));
                Some(Work {
                    cell: cell.clone(),
                    job: campaign.jobs.get(cell.index)?.clone(),
                    opts: Arc::clone(&runtime.opts),
                    cache: runtime.cache.clone(),
                    watchdog: runtime.watchdog.clone(),
                })
            })
            .collect()
    };
    let slots: Vec<Mutex<Option<(u32, Result<mixp_harness::JobResult, mixp_harness::JobError>)>>> =
        work.iter().map(|_| Mutex::new(None)).collect();
    let pool = &shared.pool;
    pool.run_batch(work.len(), |i| {
        let item = &work[i];
        let outcome = run_cell(
            item.cell.index,
            &item.job,
            &item.opts,
            item.cache.as_ref(),
            None,
            item.watchdog.as_deref(),
            Some(pool),
        );
        *lock(&slots[i]) = Some(outcome);
    });
    // Record the whole wave: state first, then the journal, then stream
    // teardown for campaigns that just turned terminal.
    let mut newly_terminal: Vec<(u64, Terminal)> = Vec::new();
    {
        let mut state = lock(&shared.state);
        let mut journal = lock(&shared.journal);
        for (item, slot) in work.iter().zip(&slots) {
            let (attempts, outcome) = lock(slot).take().unwrap_or((
                0,
                Err(mixp_harness::JobError::Panicked(
                    "worker thread lost before storing a result".to_string(),
                )),
            ));
            if let Err(err) = journal.record_cell(
                item.cell.campaign,
                item.cell.index,
                attempts,
                &item.job,
                &outcome,
            ) {
                eprintln!("warning: queue journal append failed: {err}");
            }
            if let Some(terminal) =
                state.record(item.cell.campaign, item.cell.index, attempts, outcome)
            {
                newly_terminal.push((item.cell.campaign, terminal));
            }
        }
    }
    newly_terminal.sort_unstable_by_key(|(id, _)| *id);
    newly_terminal.dedup_by_key(|(id, _)| *id);
    for (id, _terminal) in newly_terminal {
        shared.finalize_campaign(id);
    }
}

/// Builds a campaign's live resources the first time one of its cells
/// dispatches: its options (with the forwarding obs), its shared
/// evaluation cache, and — only if it has a deadline — its watchdog.
fn campaign_runtime(shared: &Arc<Shared>, campaign: &Campaign) -> CampaignRuntime {
    let id = campaign.id;
    let subscribers = Arc::downgrade(shared);
    let obs = Obs::builder()
        .forward(move |record: &str| {
            let Some(shared) = subscribers.upgrade() else {
                return;
            };
            let mut map = lock(&shared.subscribers);
            let Some(senders) = map.get_mut(&id) else {
                return;
            };
            // Lossy fan-out: a full buffer drops the record for that
            // subscriber, a hung-up subscriber is pruned.
            senders.retain(|sender| {
                !matches!(
                    sender.try_send(record.to_string()),
                    Err(TrySendError::Disconnected(_))
                )
            });
        })
        .build()
        .expect("forward sink cannot fail to open");
    let options = &campaign.options;
    let mut faults = FaultPlan::new();
    for spec in &options.faults {
        faults = faults.inject(spec.job, spec.fault, spec.attempts);
    }
    let opts = CampaignOptions {
        workers: 1, // the daemon's pool does the fanning out, not run_cell
        eval_workers: 0,
        deadline: options.deadline_ms.map(Duration::from_millis),
        grace: options
            .grace_ms
            .map_or_else(|| CampaignOptions::default().grace, Duration::from_millis),
        retry: RetryPolicy::attempts(options.retries.unwrap_or(1)),
        faults,
        checkpoint: None, // the queue journal is the service's checkpoint
        fsync_every: 0,
        shared_cache: true,
        obs,
    };
    let cache = Some(Arc::new(SharedEvalCache::new()));
    let watchdog = opts.deadline.map(|deadline| {
        Arc::new(Watchdog::new(
            deadline,
            opts.grace,
            Some(shared.pool.clone()),
            opts.obs.clone(),
        ))
    });
    CampaignRuntime {
        opts: Arc::new(opts),
        cache,
        watchdog,
    }
}

/// Renders one campaign as response members; with `with_cells`, includes
/// the per-cell outcome documents (the same documents the checkpoint
/// journal writes, so clients can compare them against a direct
/// `run_campaign` bit for bit).
fn campaign_doc(campaign: &Campaign, with_cells: bool) -> Vec<(String, Json)> {
    let mut members = vec![
        ("id".to_string(), Json::Number(campaign.id as f64)),
        ("tenant".to_string(), Json::String(campaign.tenant.clone())),
        (
            "state".to_string(),
            Json::String(campaign.state_tag().to_string()),
        ),
        ("cost".to_string(), Json::Number(campaign.cost as f64)),
        ("jobs".to_string(), Json::Number(campaign.jobs.len() as f64)),
    ];
    if !with_cells {
        return members;
    }
    let cells: Vec<Json> = campaign
        .cells
        .iter()
        .enumerate()
        .map(|(index, cell)| match cell {
            CellSlot::Pending => state_only_cell("pending"),
            CellSlot::InFlight => state_only_cell("running"),
            CellSlot::Skipped => state_only_cell("skipped"),
            CellSlot::Done { attempts, outcome } => {
                let job = &campaign.jobs[index];
                let mut doc = match outcome {
                    Ok(result) => {
                        let Json::Object(mut m) = result_doc(index, job, result) else {
                            unreachable!("result_doc always yields an object")
                        };
                        m.insert(0, ("state".to_string(), Json::String("done".to_string())));
                        m
                    }
                    Err(error) => {
                        let Json::Object(mut m) = failure_doc(index, job, error) else {
                            unreachable!("failure_doc always yields an object")
                        };
                        m.insert(0, ("state".to_string(), Json::String("failed".to_string())));
                        m
                    }
                };
                doc.push(("attempts".to_string(), Json::Number(f64::from(*attempts))));
                doc.push((
                    "scale".to_string(),
                    Json::String(scale_tag(job.scale).to_string()),
                ));
                Json::Object(doc)
            }
        })
        .collect();
    members.push(("cells".to_string(), Json::Array(cells)));
    members
}

fn state_only_cell(tag: &str) -> Json {
    Json::Object(vec![("state".to_string(), Json::String(tag.to_string()))])
}

/// Renders the `list` response: campaign summaries plus tenant ledgers.
fn list_doc(state: &ServiceState, tenant: Option<&str>) -> Vec<(String, Json)> {
    let campaigns: Vec<Json> = state
        .campaigns()
        .filter(|c| tenant.is_none_or(|t| c.tenant == t))
        .map(|c| Json::Object(campaign_doc(c, false)))
        .collect();
    let tenants: Vec<Json> = state
        .tenants()
        .filter(|(name, _)| tenant.is_none_or(|t| name.as_str() == t))
        .map(|(name, ledger)| {
            Json::Object(vec![
                ("tenant".to_string(), Json::String(name.clone())),
                ("quota".to_string(), Json::Number(ledger.quota as f64)),
                ("used".to_string(), Json::Number(ledger.used as f64)),
            ])
        })
        .collect();
    vec![
        ("campaigns".to_string(), Json::Array(campaigns)),
        ("tenants".to_string(), Json::Array(tenants)),
    ]
}
