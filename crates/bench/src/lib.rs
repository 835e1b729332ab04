//! Table/figure regenerators and in-tree benches for the HPC-MixPBench
//! reproduction.
//!
//! The binaries under `src/bin/` regenerate the artefacts of the paper's
//! evaluation (see `DESIGN.md` for the experiment index):
//!
//! * `table1` — the kernel inventory (Table I)
//! * `table2` — TV/TC per benchmark (Table II)
//! * `table3` — kernels × 6 algorithms at threshold 1e-8 (Table III)
//! * `table4` — all-single vs all-double per application (Table IV)
//! * `evalsuite` — applications × 5 algorithms × 3 thresholds (Table V),
//!   plus the Figure 2 DD-vs-GA series and the Figure 3 scatter as CSV,
//!   all from one pass over the campaign
//!
//! All binaries take `--scale small|paper` (default `paper`) and
//! `--workers N` (default: available parallelism).

use mixp_harness::Scale;

/// Command-line options shared by the regenerator binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Problem scale.
    pub scale: Scale,
    /// Worker threads for the scheduler.
    pub workers: usize,
}

/// Parses `--scale small|paper` and `--workers N` from an argument list.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or malformed values.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Paper,
        workers: mixp_harness::scheduler::default_workers(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                opts.scale = match v.as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers = v
                    .parse::<usize>()
                    .map_err(|_| format!("malformed worker count `{v}`"))?;
                if opts.workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Parses options from `std::env::args`, exiting with usage on error.
pub fn options_from_env() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: --scale small|paper --workers N");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.scale, Scale::Paper);
        assert!(o.workers > 0);
    }

    #[test]
    fn parses_scale_and_workers() {
        let o = parse_options(&strs(&["--scale", "small", "--workers", "3"])).unwrap();
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.workers, 3);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse_options(&strs(&["--frobnicate"])).is_err());
        assert!(parse_options(&strs(&["--scale", "huge"])).is_err());
        assert!(parse_options(&strs(&["--workers", "0"])).is_err());
    }
}
