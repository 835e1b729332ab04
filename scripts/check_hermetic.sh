#!/usr/bin/env bash
# Hermetic-build gate for the HPC-MixPBench workspace.
#
# The workspace has a zero-external-dependency policy: every crate must be
# buildable and testable fully offline, with an *empty* registry cache.
# This script enforces both halves of that policy:
#
#   1. A grep guard that fails if any Cargo.toml declares a dependency that
#      is not a path dependency (i.e. anything that would hit crates.io).
#   2. `cargo build --release --offline && cargo test -q --offline` with
#      CARGO_HOME pointed at a fresh empty directory, proving no cached
#      registry state is being silently relied upon.
#
# The same empty CARGO_HOME then runs the unit tests of `mixbench`, the
# repository's benchmark package, which lives outside the workspace.
#
# It also smoke-runs every `[[bench]]` target with MIXP_BENCH_QUICK=1
# (single sample, no warmup) so a broken bench fails the gate instead of
# rotting until the next manual `cargo bench` — including
# `bench_obs_overhead`, the noop-tracer-costs-nothing watchdog.
#
# A format guard holds the workspace to `cargo fmt --all --check`, and a
# lint guard to `cargo clippy --all-targets -- -D warnings`.
#
# Structural guards ride along: the fault-tolerant harness paths must
# stay panic-free, the `mixp-obs` crate must stay dependency-free with
# wall-clock access confined to its clock.rs module, raw thread creation
# must stay confined to `crates/pool` (plus the sanctioned watchdog
# supervisor thread in crates/harness/src/watchdog.rs and the campaign
# daemon's accept/dispatch/connection threads in crates/serve) so
# MIXP_WORKERS remains the single bound on campaign parallelism, the
# `mixp-ir` crate must stay dependency-free with precision semantics
# confined to its round.rs/plan.rs so plans stay bit-identical to the
# direct path, and Unix-domain-socket use must stay confined to
# `crates/serve` so the batch harness keeps zero network surface, and
# fsync/rename/OpenOptions must stay confined to the one crash-safe
# journal module.
#
# Finally the loadgen fleet runs in quick mode (MIXP_LOADGEN_QUICK=1):
# a real daemon, concurrent multi-tenant clients, fault injection, a
# SIGKILL-and-restart, and bit-identity spot checks — the campaign
# service's end-to-end gate.
#
# Run from anywhere: scripts/check_hermetic.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/14] grep guard: only path dependencies allowed =="
violations=$(find . -name Cargo.toml -not -path './target/*' -print0 | xargs -0 awk '
  FNR == 1 { section = "" }
  /^\[/ { section = $0 }
  section ~ /dependencies/ && /=/ && !/^[[:space:]]*#/ {
    if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/)
      printf "%s:%d: %s\n", FILENAME, FNR, $0
  }
')
if [ -n "$violations" ]; then
  echo "$violations"
  echo "error: non-path dependencies found — the workspace must stay hermetic" >&2
  exit 1
fi
echo "ok: no non-path dependencies"

echo "== [2/14] format guard: the workspace is rustfmt-clean =="
# Formatting drifts with every change unless a gate holds it; one
# `cargo fmt --all` restores it. mixbench/ is a workspace of its own and
# is not covered.
if ! fmt_diff=$(cargo fmt --all --check 2>&1); then
  echo "$fmt_diff" | head -40
  echo "error: the workspace is not rustfmt-clean — run cargo fmt --all" >&2
  exit 1
fi
echo "ok: cargo fmt --all --check is clean"

echo "== [3/14] lint guard: the workspace is clippy-clean =="
# Lint warnings drift in unseen unless a gate holds them at zero, like the
# format gate above. Covers every target (libs, bins, tests, benches,
# examples); mixbench/ is a workspace of its own and is not covered.
if ! clippy_out=$(cargo clippy --offline --all-targets -- -D warnings 2>&1); then
  echo "$clippy_out" | grep -E -A12 '^(warning|error)' | head -60
  echo "error: clippy reports warnings — fix them (no #[allow] where a real fix exists)" >&2
  exit 1
fi
echo "ok: cargo clippy --all-targets -D warnings is clean"

echo "== [4/14] panic guard: fault-tolerant harness paths must not panic =="
# The campaign execution path promises typed errors instead of aborts:
# no unwrap()/expect()/panic! in non-test code of the scheduler, job,
# checkpoint, journal, faultplan, watchdog and cancellation modules. Test modules
# (below the #[cfg(test)] marker) are exempt, as is the deliberate
# `injected fault` panic that the fault injector uses to *simulate* a
# crashing benchmark.
panic_violations=$(for f in crates/harness/src/job.rs \
                            crates/harness/src/scheduler.rs \
                            crates/harness/src/checkpoint.rs \
                            crates/harness/src/journal.rs \
                            crates/harness/src/faultplan.rs \
                            crates/harness/src/evalcache.rs \
                            crates/harness/src/watchdog.rs \
                            crates/mpfloat/src/cancel.rs; do
  awk -v file="$f" '
    /#\[cfg\(test\)\]/ { exit }
    /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/ {
      if ($0 !~ /injected fault/)
        printf "%s:%d: %s\n", file, FNR, $0
    }
  ' "$f"
done)
if [ -n "$panic_violations" ]; then
  echo "$panic_violations"
  echo "error: panicking call in a fault-isolated code path — return a JobError instead" >&2
  exit 1
fi
echo "ok: campaign execution paths are panic-free"

echo "== [5/14] fast-path guard: benchmark hot loops must use the bulk layer =="
# The speedup model's wall-clock claims rest on benchmarks going through
# the MpVec fast path: per-handle cached rounding and bulk accounting.
# Reaching around it — rounding manually with `round_to`, or reading
# storage with the test-only `.peek(` accessor — silently desynchronises
# values or op counts from the traced run. Since the batched-tracing
# refactor, the same holds for the raw tracing layer: per-element
# `trace_float`/`trace_untyped` calls and direct `record_loads`/
# `record_stores` accounting in benchmark code reintroduce the traced
# slow path that `StreamGroup::commit` and the bulk primitives replaced
# (the sanctioned data-dependent escape hatch is `MpVec::trace_element`
# plus `bulk_loads`). Test modules (below the #[cfg(test)] marker) are
# exempt: peeking is exactly what tests are for.
fastpath_violations=$(find crates/kernels/src crates/apps/src -name '*.rs' -print0 | \
  xargs -0 -n1 awk '
    /#\[cfg\(test\)\]/ { exit }
    /round_to[[:space:]]*\(|\.peek[[:space:]]*\(|trace_float[[:space:]]*\(|trace_untyped[[:space:]]*\(|record_loads[[:space:]]*\(|record_stores[[:space:]]*\(/ && !/^[[:space:]]*\/\// {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ')
if [ -n "$fastpath_violations" ]; then
  echo "$fastpath_violations"
  echo "error: kernel/app non-test code bypasses the MpVec fast path — use the bulk primitives or StreamGroup::commit (trace_element for gathers)" >&2
  exit 1
fi
echo "ok: kernels and apps stay on the bulk/fast-path API"

echo "== [6/14] obs purity guard: zero deps, wall clock quarantined in clock.rs =="
# The observability crate underpins the determinism story twice over: it
# must stay dependency-free (it is linked into every other crate), and its
# trace/metrics layers must never read wall-clock time themselves — all
# ordering comes from logical sequence numbers, and the *only* module
# allowed to touch `Instant`/`SystemTime` is the opt-in clock.rs
# enrichment. A violation here silently turns every trace nondeterministic.
obs_dep_violations=$(awk '
  /^\[/ { section = $0 }
  section ~ /dependencies/ && /=/ && !/^[[:space:]]*#/ {
    printf "crates/obs/Cargo.toml:%d: %s\n", FNR, $0
  }
' crates/obs/Cargo.toml)
if [ -n "$obs_dep_violations" ]; then
  echo "$obs_dep_violations"
  echo "error: crates/obs must have no dependencies at all — not even path ones" >&2
  exit 1
fi
# Comment lines are exempt: the modules document the very rule enforced here.
obs_clock_violations=$(awk '
  /Instant|SystemTime/ && $0 !~ /^[[:space:]]*\/\// {
    printf "%s:%d: %s\n", FILENAME, FNR, $0
  }
' crates/obs/src/trace.rs crates/obs/src/metrics.rs crates/obs/src/sink.rs \
  crates/obs/src/json.rs)
if [ -n "$obs_clock_violations" ]; then
  echo "$obs_clock_violations"
  echo "error: wall-clock access outside crates/obs/src/clock.rs — use the logical clock" >&2
  exit 1
fi
echo "ok: crates/obs is dependency-free and logically clocked"

echo "== [7/14] thread-confinement guard: raw threads only inside crates/pool =="
# The oversubscription fix rests on one invariant: all parallelism flows
# through the work-stealing pool, sized once by MIXP_WORKERS. Raw
# `thread::spawn`/`thread::scope`/`thread::Builder` anywhere else quietly
# reintroduces a second thread population the pool cannot see or bound.
# Sanctioned exceptions, each accounted for in the DESIGN.md thread
# budgets: the harness watchdog's single supervisor thread (so it can
# cancel jobs whose own threads are wedged), the campaign daemon's
# accept/dispatch/connection threads (control plane only — cell
# *execution* still flows through the one shared pool), and the loadgen
# binary's client fleet (a test driver, not harness code). Test modules
# (below the #[cfg(test)] marker) are exempt — tests may spin up threads
# to exercise concurrency — as are comment lines.
thread_violations=$(find crates -name '*.rs' -not -path 'crates/pool/*' \
    -not -path 'crates/harness/src/watchdog.rs' \
    -not -path 'crates/serve/src/daemon.rs' \
    -not -path 'crates/serve/src/bin/loadgen.rs' -print0 | \
  xargs -0 -n1 awk '
    /#\[cfg\(test\)\]/ { exit }
    /thread::spawn|thread::scope|thread::Builder/ && !/^[[:space:]]*\/\// {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ')
if [ -n "$thread_violations" ]; then
  echo "$thread_violations"
  echo "error: raw thread creation outside crates/pool — run the work on mixp_pool::Pool instead" >&2
  exit 1
fi
echo "ok: thread creation is confined to the pool crate"

echo "== [8/14] IR purity guard: crates/ir dependency-free and precision-agnostic =="
# The program IR is the layer future backends hang off, so it must know
# nothing about ExecCtx, tracers or benchmarks: its Cargo.toml declares no
# dependencies at all (not even workspace ones). Precision semantics are
# likewise confined: numeric rounding lives in round.rs (RoundMode), and
# the one sanctioned consumer that inlines those semantics is the plan
# interpreter's fused loops in plan.rs. Everywhere else — prog, analyze,
# compile, lib — the IR must stay pure f64 with symbolic precision only,
# or config-specialized plans quietly stop being bit-identical to the
# hand-written execution path. Test modules and comments are exempt.
ir_dep_violations=$(awk '
  /^\[/ { section = $0 }
  section ~ /dependencies/ && /=/ && !/^[[:space:]]*#/ {
    printf "crates/ir/Cargo.toml:%d: %s\n", FNR, $0
  }
' crates/ir/Cargo.toml)
if [ -n "$ir_dep_violations" ]; then
  echo "$ir_dep_violations"
  echo "error: crates/ir must have no dependencies at all — not even path ones" >&2
  exit 1
fi
ir_purity_violations=$(find crates/ir/src -name '*.rs' \
    -not -name round.rs -not -name plan.rs -print0 | \
  xargs -0 -n1 awk '
    /#\[cfg\(test\)\]/ { exit }
    /f32|round_to[[:space:]]*\(/ && !/^[[:space:]]*\/\// {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ')
if [ -n "$ir_purity_violations" ]; then
  echo "$ir_purity_violations"
  echo "error: precision-specific code outside crates/ir round.rs/plan.rs — express it as a RoundMode" >&2
  exit 1
fi
echo "ok: crates/ir is dependency-free and precision-agnostic outside round.rs/plan.rs"

echo "== [9/14] socket-confinement guard: Unix sockets only inside crates/serve =="
# The campaign service is deliberately the workspace's only network-ish
# surface, and a Unix-domain one at that. `UnixListener`/`UnixStream`
# creeping into any other crate would give the batch harness an ambient
# I/O capability its determinism and hermeticity story doesn't account
# for. Test modules and comments are exempt (integration tests connect
# to the daemon on purpose).
socket_violations=$(find crates -name '*.rs' -not -path 'crates/serve/*' -print0 | \
  xargs -0 -n1 awk '
    /#\[cfg\(test\)\]/ { exit }
    /UnixListener|UnixStream/ && !/^[[:space:]]*\/\// {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ')
if [ -n "$socket_violations" ]; then
  echo "$socket_violations"
  echo "error: Unix-domain-socket use outside crates/serve — the harness proper must stay I/O-free" >&2
  exit 1
fi
echo "ok: socket use is confined to the serve crate"

echo "== [10/14] durable-file guard: fsync, rename and OpenOptions only in the journal =="
# Every crash-safe campaign file (run-state, eval cache, queue journal)
# goes through crates/harness/src/journal.rs, which owns the header
# check, the tmp + fsync + rename restart, the append/fsync cadence and
# the torn-tail cut. `sync_data`/`sync_all`/`fs::rename`/`OpenOptions`
# anywhere else means a second durable-file path with its own crash
# rules. Test modules and comments are exempt.
durable_violations=$(find crates -name '*.rs' -not -path 'crates/harness/src/journal.rs' -print0 | \
  xargs -0 -n1 awk '
    /#\[cfg\(test\)\]/ { exit }
    /sync_data|sync_all|fs::rename|OpenOptions/ && !/^[[:space:]]*\/\// {
      printf "%s:%d: %s\n", FILENAME, FNR, $0
    }
  ')
if [ -n "$durable_violations" ]; then
  echo "$durable_violations"
  echo "error: durable-file I/O outside crates/harness/src/journal.rs — append through JsonlJournal instead" >&2
  exit 1
fi
echo "ok: durable-file I/O is confined to the journal module"

echo "== [11/14] offline build + test with an empty CARGO_HOME =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export CARGO_HOME="$tmp/cargo_home"
mkdir -p "$CARGO_HOME"

cargo build --release --offline
cargo test -q --offline

echo "== [12/14] mixbench unit tests under the same empty CARGO_HOME =="
# mixbench is a package of its own (outside the workspace), so the steps
# above never build it. Its unit tests include a smoke run of all four
# workloads, so a crate change that breaks the benchmark fails here.
cargo test --release --offline --manifest-path mixbench/Cargo.toml

echo "== [13/14] bench smoke: every [[bench]] target runs under MIXP_BENCH_QUICK =="
MIXP_BENCH_QUICK=1 cargo bench --offline

echo "== [14/14] loadgen smoke: the campaign-service fleet in quick mode =="
# Spawns a real daemon, drives it with concurrent multi-tenant clients,
# SIGKILLs and restarts it mid-run, and asserts terminal states, exact
# quota accounting and bit-identical outcomes. Quick mode keeps it to a
# couple hundred campaigns.
MIXP_LOADGEN_QUICK=1 ./target/release/loadgen

echo "hermetic check passed"
