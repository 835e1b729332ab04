//! Runs the complete application evaluation once and emits every derived
//! artefact: Table V for all three thresholds, plus the Figure 2 and
//! Figure 3 CSV series — without re-running any search.

use mixp_bench::options_from_env;
use mixp_harness::experiments::{table5, TABLE5_ALGOS, TABLE5_THRESHOLDS};
use mixp_harness::job::JobResult;
use mixp_harness::report::render_grouped;

fn csv_line(r: &JobResult) -> String {
    format!(
        "{},{},{:e},{},{},{}",
        r.benchmark,
        r.algorithm,
        r.threshold,
        r.clusters,
        r.result.evaluated,
        r.result
            .speedup()
            .map_or("NA".to_string(), |s| format!("{s:.4}"))
    )
}

fn main() {
    let opts = options_from_env();
    let mut all: Vec<JobResult> = Vec::new();
    for threshold in TABLE5_THRESHOLDS {
        println!(
            "Table V: application evaluation (threshold {threshold:.0e}, scale {:?})\n",
            opts.scale
        );
        let groups = table5(threshold, opts.scale, opts.workers);
        print!("{}", render_grouped(&groups, &TABLE5_ALGOS));
        println!();
        // Failed cells already render as FAILED(reason) in the table; the
        // CSV series plot completed cells only.
        all.extend(groups.into_iter().flatten().filter_map(|o| o.outcome.ok()));
    }

    println!(
        "\nFigure 2 series (DD vs GA; benchmark,algorithm,threshold,clusters,evaluated,speedup):"
    );
    for r in all
        .iter()
        .filter(|r| r.algorithm == "DD" || r.algorithm == "GA")
    {
        println!("{}", csv_line(r));
    }
    println!("\nFigure 3 scatter (benchmark,algorithm,threshold,clusters,evaluated,speedup):");
    for r in &all {
        println!("{}", csv_line(r));
    }
}
