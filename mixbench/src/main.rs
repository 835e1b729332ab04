//! `mixbench` — the end-to-end and per-layer benchmark of the
//! HPC-MixPBench engine and its campaign service.
//!
//! ```text
//! mixbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out FILE]
//! mixbench compare A.jsonl B.jsonl
//! ```
//!
//! Each workload runs in a fresh child process (`mixbench` re-executes
//! itself), so peak memory and every program cache are per run and cold,
//! as for a user's `harness` run. Children run with `MIXP_WORKERS=2` and
//! without `MIXP_STEAL`. An untraced run prints the end-to-end metrics, a
//! traced one (`--trace 1` or `--traced`) the per-layer metrics; names,
//! units and bounds come from `BENCHMARK.json`. Every run re-checks the
//! program's outputs; the last line of standard output is a one-line JSON
//! summary, and `--out FILE` appends each workload's full record to a
//! JSON-lines file that `mixbench compare` reads. See README.md.

mod campaign;
mod gen;
mod layers;
mod oracle;
mod record;
mod serve;
mod stats;

use gen::{Size, Workload};
use mixp_core::Obs;
use record::{MetricDef, Record};
use serve::DaemonMode;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Metric values by name.
pub type Measured = BTreeMap<&'static str, f64>;

/// Where and how a workload runs.
pub struct Setting {
    /// Input size.
    pub size: Size,
    /// Directory for daemon sockets and state.
    pub dir: PathBuf,
    /// How daemons are started.
    pub daemon: DaemonMode,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Every metric measured.
    pub metrics: Measured,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed plus oracle mismatches.
    pub failed: u64,
    /// Tail percentiles used and mismatch descriptions.
    pub notes: Vec<String>,
    /// Digest of the first round's (or first campaigns') results; empty
    /// when the run was too short to cover them.
    pub digest: String,
    /// How late the open-loop generator sent, at its tail percentile.
    pub late_tail_ms: Option<f64>,
    /// Traces to write out at exit.
    pub traces: Vec<Obs>,
}

impl Run {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the tail of `values` (see [`stats::tail`]) and notes which
    /// percentile it is and of how many samples.
    pub fn put_tail(&mut self, name: &'static str, values: &[f64]) {
        let t = stats::tail(values);
        self.put(name, t.value);
        self.notes
            .push(format!("{name} is the {} of {} samples", t.label, t.n));
    }

    /// Counts each message as a failed check and keeps it.
    pub fn mismatch(&mut self, messages: Vec<String>) {
        self.failed += messages.len() as u64;
        self.notes.extend(messages);
    }
}

/// Parsed command line.
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: mixbench [--workload W]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--traced] [--out FILE]\n       \
                     mixbench compare A.jsonl B.jsonl";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: record::default_seed(),
        seconds: record::spec().run_seconds,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workloads
                    .push(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => cli.traced = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    Ok(cli)
}

/// Scratch space for runs and their traces: `run/` next to this package.
fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in a fresh child process and returns its record.
fn run_child(cli: &Cli, workload: Workload) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate mixbench: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.traced { "1" } else { "0" }])
        .env("MIXP_WORKERS", serve::WORKERS.to_string())
        .env_remove("MIXP_STEAL")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .last()
        .and_then(|line| mixp_harness::json::parse(line).ok())
        .and_then(|doc| Record::from_json(&doc));
    match record {
        Some(record) if output.status.success() => Ok(record),
        _ => Err(format!(
            "{} run failed ({}) without a record",
            workload.name(),
            output.status
        )),
    }
}

fn parent_main(args: &[String]) -> i32 {
    let cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return 2;
        }
    };
    let spec = record::spec();
    let defs = if cli.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut records = Vec::new();
    for &workload in &cli.workloads {
        let record = match run_child(&cli, workload) {
            Ok(record) => record,
            Err(msg) => {
                eprintln!("error: {msg}");
                return 1;
            }
        };
        for note in &record.notes {
            println!("# {} {note}", record.workload);
        }
        if !record.valid {
            println!(
                "# {} run INVALID: fewer than 2 CPUs or a late generator",
                record.workload
            );
        }
        for (name, value) in &record.metrics {
            let unit = defs
                .iter()
                .find(|d| &d.name == name)
                .map_or("", |d| d.unit.as_str());
            println!("{} {name} {value} {unit}", record.workload);
        }
        if let Some(path) = &cli.out {
            let line = mixp_harness::checkpoint::compact(&record.to_json());
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("error: cannot append to {}: {e}", path.display());
                return 1;
            }
        }
        records.push(record);
    }
    println!("{}", record::summary_line(&records, defs));
    i32::from(!records.iter().all(Record::correct))
}

/// Runs one workload in this process and turns the outcome into a
/// record holding exactly the metrics of `defs`.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    setting: &Setting,
    defs: &[MetricDef],
) -> Result<(Record, Run), String> {
    let s = seconds as f64;
    let mut run = match workload {
        Workload::ServeOpen => serve::run_open(seed, s, traced, setting),
        w => campaign::run(w, seed, s, traced, setting),
    }
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    if setting.size == Size::Full && seed == record::default_seed() && !run.digest.is_empty() {
        if let Some(expected) = record::expected_digest(workload.name()) {
            if expected != run.digest {
                run.mismatch(vec![format!(
                    "result digest {} differs from the committed {expected}",
                    run.digest
                )]);
            }
        }
    }
    let metrics = defs
        .iter()
        .map(|d| {
            let value = run.metrics.get(d.name.as_str()).copied();
            value
                .filter(|v| v.is_finite())
                .map(|v| (d.name.clone(), v))
                .ok_or(format!(
                    "{}: metric {} not measured",
                    workload.name(),
                    d.name
                ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let valid = host_parallelism() >= 2 && run.late_tail_ms.is_none_or(|late| late <= 2.0);
    let record = Record {
        workload: workload.name().to_string(),
        seed,
        seconds,
        traced,
        attempted: run.attempted,
        failed: run.failed,
        valid,
        host_parallelism: host_parallelism(),
        widths: (serve::WORKERS, mixp_core::env_eval_workers()),
        digest: run.digest.clone(),
        notes: run.notes.clone(),
        metrics,
    };
    Ok((record, run))
}

/// `mixbench child ...`: one workload, in this process; prints the
/// record as the last line of standard output.
fn child_main(args: &[String]) -> i32 {
    let cli = match parse_cli(args) {
        Ok(cli) if cli.workloads.len() == 1 => cli,
        _ => {
            eprintln!("error: the child runs exactly one workload");
            return 2;
        }
    };
    let workload = cli.workloads[0];
    let spec = record::spec();
    let defs = if cli.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    // Daemon sockets live in a per-run directory entered as the working
    // directory, so socket paths stay short wherever the checkout is.
    let root = run_root();
    let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::env::set_current_dir(&dir)) {
        eprintln!("error: cannot enter {}: {e}", dir.display());
        return 1;
    }
    let setting = Setting {
        size: Size::Full,
        dir: PathBuf::from("."),
        daemon: DaemonMode::Process,
    };
    let result = measure(workload, cli.seed, cli.seconds, cli.traced, &setting, defs);
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&dir);
    let (record, run) = match result {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 1;
        }
    };
    if !run.traces.is_empty() {
        let path = root.join(format!("trace-{}-{}.jsonl", workload.name(), cli.seed));
        let lines: Vec<String> = run.traces.iter().flat_map(Obs::trace_lines).collect();
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", mixp_harness::checkpoint::compact(&record.to_json()));
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => record::compare_files(&args[1..]),
        Some("child") => child_main(&args[1..]),
        Some("daemon") => serve::daemon_main(&args[1..]),
        _ => parent_main(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads at smoke-test size, untraced and traced, with
    /// the daemon in this process: every metric `BENCHMARK.json` names
    /// is measured and every output checks out.
    #[test]
    fn every_workload_measures_every_metric() {
        let spec = record::spec();
        let dir = run_root().join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create smoke dir");
        let setting = Setting {
            size: Size::Tiny,
            dir: dir.clone(),
            daemon: DaemonMode::InProcess,
        };
        for workload in Workload::ALL {
            for (traced, defs) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
                let (record, _) = measure(workload, 11, 0, traced, &setting, defs)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert!(record.correct(), "{record:?}");
                assert!(record.attempted > 0);
                assert_eq!(record.metrics.len(), defs.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
