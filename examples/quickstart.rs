//! Quickstart: tune one benchmark with one search algorithm.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Picks the K-means application (the paper's running example, Listing 4),
//! runs the delta-debugging search under a 1e-3 quality threshold, and
//! prints the mixed-precision configuration it finds.

use mixp_core::{Evaluator, Granularity, QualityThreshold};
use mixp_harness::{benchmark_by_name, Scale};
use mixp_search::{DeltaDebug, SearchAlgorithm};

fn main() {
    // 1. Pick a benchmark from the suite (17 available; see
    //    `mixp_harness::benchmark_names()`).
    let bench = benchmark_by_name("kmeans", Scale::Paper).expect("kmeans is in the registry");
    println!("benchmark: {} — {}", bench.name(), bench.description());

    // 2. The program model is what the type-dependence analysis computed:
    //    tunable variables grouped into must-share-type clusters.
    let program = bench.program();
    println!(
        "search space: {} variables in {} clusters",
        program.total_variables(),
        program.total_clusters()
    );

    // 3. Build an evaluator: it runs the all-double reference and then
    //    verifies every candidate against it under the quality threshold.
    let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));

    // 4. Run a search.
    let result = DeltaDebug::new().search(&mut ev);
    println!("search finished: {result}");

    // 5. Inspect the best configuration: which clusters went single?
    if let Some(best) = &result.best {
        let space = SpaceView::new(program);
        println!(
            "lowered variables ({} of {}):",
            best.config.lowered_count(),
            program.total_variables()
        );
        for v in best.config.lowered_vars() {
            println!(
                "  {} ({})",
                program.registry().name(v),
                space.cluster_label(v)
            );
        }
    }
}

/// Small helper to label a variable's cluster.
struct SpaceView<'p> {
    program: &'p mixp_core::ProgramModel,
}

impl<'p> SpaceView<'p> {
    fn new(program: &'p mixp_core::ProgramModel) -> Self {
        let _ = Granularity::Clusters; // the granularity DD searched at
        SpaceView { program }
    }

    fn cluster_label(&self, v: mixp_core::VarId) -> String {
        match self.program.clustering().cluster_of(v) {
            Some(c) => format!("cluster {c}"),
            None => "untunable".to_string(),
        }
    }
}
