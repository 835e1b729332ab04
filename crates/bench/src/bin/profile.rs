//! Per-variable memory-traffic profile of one benchmark — the
//! instrumentation/profiling role of the paper's runtime library (§III-A).
//!
//! ```sh
//! cargo run --release --bin profile -- lavamd
//! ```
//!
//! Prints the hottest variables of the all-double run: the candidates whose
//! lowering actually moves the memory system.

use mixp_core::perf::{attribute, AccessProfiler};
use mixp_core::ExecCtx;
use mixp_harness::report::render_table;
use mixp_harness::{benchmark_by_name, Scale};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "lavamd".to_string());
    let bench = benchmark_by_name(&name, Scale::Paper).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(2);
    });
    let cfg = bench.program().config_all_double();
    let mut profiler = AccessProfiler::new();
    let mut ctx = ExecCtx::with_tracer(&cfg, &mut profiler);
    let _ = bench.run(&mut ctx);
    let allocations = ctx.allocations().to_vec();
    drop(ctx);

    let report = attribute(&profiler, &allocations);
    let program = bench.program();
    let rows: Vec<Vec<String>> = report
        .iter()
        .filter(|t| t.total() > 0)
        .map(|t| {
            let cluster = program
                .clustering()
                .cluster_of(t.var)
                .map_or("untunable".to_string(), |c| c.to_string());
            vec![
                program.registry().name(t.var).to_string(),
                cluster,
                t.bytes_reserved.to_string(),
                t.lines_touched.to_string(),
                t.reads.to_string(),
                t.writes.to_string(),
            ]
        })
        .collect();
    println!(
        "Memory profile of {} (all-double, {} accesses over {} lines)\n",
        bench.name(),
        profiler.total_accesses(),
        profiler.lines_touched()
    );
    print!(
        "{}",
        render_table(
            &["Variable", "Cluster", "Bytes", "Lines", "Reads", "Writes"],
            &rows
        )
    );
}
