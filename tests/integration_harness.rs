//! Integration tests for the harness pipeline: YAML → config → job →
//! scheduler → report.

use mixp_harness::config::AnalysisConfig;
use mixp_harness::job::Job;
use mixp_harness::report::render_grouped;
use mixp_harness::{run_jobs, Scale};

/// A YAML configuration drives a complete analysis end-to-end, exactly as
/// the paper's `python harness.py config.yaml` flow does.
#[test]
fn yaml_config_drives_an_analysis() {
    let yaml = "
kmeans:
  build_dir: 'kmeans'
  build: [ 'make' ]
  clean: [ 'make clean' ]
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
  metric: 'MCR'
  threshold: '1e-3'
  budget: '100'
  bin: 'kmeans'
  args: '-i kdd_bin -k 5 -n 5'
";
    let cfg = AnalysisConfig::from_yaml(yaml).expect("the Listing 4 shape parses");
    let mut job = Job::new(&cfg.benchmark, &cfg.algorithm, cfg.threshold, Scale::Small);
    if let Some(budget) = cfg.budget {
        job.budget = budget;
    }
    let result = job.execute(None, None).expect("kmeans analysis succeeds");
    assert_eq!(result.benchmark, "kmeans");
    assert_eq!(result.algorithm, "DD");
    assert!(!result.result.dnf);
    // K-means is insensitive to precision: DD lowers everything at once.
    let best = result.result.best.expect("kmeans passes at 1e-3");
    assert_eq!(best.quality, 0.0, "MCR of the separated clusters is zero");
}

/// The scheduler handles a heterogeneous batch and the report renders it.
#[test]
fn scheduler_and_report_round_trip() {
    let jobs: Vec<Job> = ["tridiag", "eos", "hydro-1d"]
        .iter()
        .flat_map(|b| {
            ["DD", "GA"]
                .iter()
                .map(|a| Job::new(b, a, 1e-3, Scale::Small))
        })
        .collect();
    let results = run_jobs(&jobs, 2);
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(|o| o.outcome.is_ok()));
    let groups: Vec<Vec<_>> = results.chunks(2).map(<[_]>::to_vec).collect();
    let table = render_grouped(&groups, &["DD", "GA"]);
    assert!(table.contains("tridiag"));
    assert!(table.contains("SU:DD"));
    assert!(table.contains("Quality:GA"));
    // Every line of the rendered table has equal width.
    let lines: Vec<&str> = table.lines().collect();
    assert!(lines.iter().all(|l| l.len() == lines[0].len()));
}

/// Configuration files for every benchmark in the repository's `configs/`
/// directory parse and reference real benchmarks and algorithms.
#[test]
fn shipped_config_files_are_valid() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let entries = std::fs::read_dir(dir).expect("configs directory exists");
    let mut seen = 0;
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let cfg =
            AnalysisConfig::from_yaml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            mixp_harness::benchmark_by_name(&cfg.benchmark, Scale::Small).is_some(),
            "{}: unknown benchmark {}",
            path.display(),
            cfg.benchmark
        );
        assert!(
            mixp_search::algorithm_by_name(&cfg.algorithm).is_some(),
            "{}: unknown algorithm {}",
            path.display(),
            cfg.algorithm
        );
        seen += 1;
    }
    assert_eq!(seen, 17, "one config per benchmark");
}

/// Table II data exposed through the experiments module matches the
/// hard-coded expectations of the paper for every benchmark.
#[test]
fn experiments_table2_is_complete() {
    let rows = mixp_harness::experiments::table2();
    let expect: &[(&str, usize, usize)] = &[
        ("banded-lin-eq", 2, 1),
        ("diff-predictor", 5, 1),
        ("eos", 7, 2),
        ("gen-lin-recur", 4, 1),
        ("hydro-1d", 6, 2),
        ("iccg", 2, 1),
        ("innerprod", 3, 2),
        ("int-predict", 9, 2),
        ("planckian", 6, 2),
        ("tridiag", 3, 1),
        ("blackscholes", 59, 50),
        ("cfd", 195, 25),
        ("hotspot", 36, 22),
        ("hpccg", 54, 27),
        ("kmeans", 26, 15),
        ("lavamd", 47, 11),
        ("srad", 29, 14),
    ];
    assert_eq!(rows.len(), expect.len());
    for (row, (name, tv, tc)) in rows.iter().zip(expect) {
        assert_eq!(row.name, *name);
        assert_eq!(row.total_variables, *tv, "{name} TV");
        assert_eq!(row.total_clusters, *tc, "{name} TC");
    }
}
