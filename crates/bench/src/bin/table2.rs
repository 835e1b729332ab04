//! Regenerates Table II: Total Variables (TV) and Total Clusters (TC)
//! identified by the type-dependence analysis for every benchmark.

use mixp_core::BenchmarkKind;
use mixp_harness::experiments::table2;
use mixp_harness::report::render_table;

fn main() {
    let all = table2();
    println!("Table II: Total Variables (TV) and Total Clusters (TC)\n");
    for (kind, title) in [
        (BenchmarkKind::Kernel, "Kernels"),
        (BenchmarkKind::Application, "Applications"),
    ] {
        let rows: Vec<Vec<String>> = all
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.total_variables.to_string(),
                    r.total_clusters.to_string(),
                ]
            })
            .collect();
        println!("{title}:");
        print!("{}", render_table(&["Name", "TV", "TC"], &rows));
        println!();
    }
}
