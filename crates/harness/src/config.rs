//! Typed analysis configuration parsed from a YAML file (Listing 4).

use crate::yamlish::{self, Value};
use std::fmt;

/// A benchmark-analysis description, as the paper's YAML configuration
/// files express it: which benchmark, which search algorithm, which metric
/// and threshold, plus the (informational) build/run instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Benchmark name (the root key of the YAML document).
    pub benchmark: String,
    /// Build directory (informational in this reproduction).
    pub build_dir: String,
    /// Search algorithm name (e.g. `ddebug`, `genetic`).
    pub algorithm: String,
    /// Quality metric name (`MAE`, `MCR`, …).
    pub metric: String,
    /// Quality threshold for acceptance.
    pub threshold: f64,
    /// Optional evaluation budget (the 24-hour analogue); `None` means the
    /// scheduler default.
    pub budget: Option<usize>,
    /// Run arguments (informational).
    pub args: String,
}

/// Error raised for missing keys or malformed values.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// Human-readable reason.
    pub message: String,
    /// The configuration key the error is about, when one is known.
    pub key: Option<String>,
    /// 1-based input line, when the underlying YAML parser reported one.
    pub line: Option<usize>,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
            key: None,
            line: None,
        }
    }

    fn for_key(key: &str, message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
            key: Some(key.to_string()),
            line: None,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid analysis configuration: {}", self.message)?;
        if let Some(key) = &self.key {
            write!(f, " (key `{key}`)")?;
        }
        if let Some(line) = self.line {
            write!(f, " at line {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigError {}

impl From<yamlish::ParseError> for ConfigError {
    fn from(err: yamlish::ParseError) -> Self {
        ConfigError {
            message: err.message.clone(),
            key: err.key,
            line: Some(err.line),
        }
    }
}

fn str_at<'v>(root: &'v Value, path: &[&str]) -> Option<&'v str> {
    root.path(path).and_then(Value::as_str)
}

impl AnalysisConfig {
    /// Parses one analysis configuration from YAML text.
    ///
    /// The document must have a single root key (the benchmark name) whose
    /// map carries at least an `analysis.<tool>.extra_args.algorithm`
    /// entry; `metric` defaults to `MAE`, `threshold` to `1e-8`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on parse failures, a missing algorithm, or a
    /// malformed threshold.
    pub fn from_yaml(text: &str) -> Result<Self, ConfigError> {
        let root = yamlish::parse(text)?;
        let entries = root
            .entries()
            .ok_or_else(|| ConfigError::new("document root must be a map"))?;
        let (benchmark, body) = entries
            .first()
            .ok_or_else(|| ConfigError::new("document must contain one benchmark entry"))?;

        // The analysis clause names the tool; we need its algorithm.
        let analysis = body
            .get("analysis")
            .ok_or_else(|| ConfigError::for_key("analysis", "missing `analysis` clause"))?;
        let tool_entries = analysis
            .entries()
            .ok_or_else(|| ConfigError::for_key("analysis", "`analysis` must be a map of tools"))?;
        let (_, tool_body) = tool_entries
            .first()
            .ok_or_else(|| ConfigError::for_key("analysis", "`analysis` must name a tool"))?;
        let algorithm = str_at(tool_body, &["extra_args", "algorithm"])
            .ok_or_else(|| {
                ConfigError::for_key("extra_args.algorithm", "missing `extra_args.algorithm`")
            })?
            .to_string();

        let threshold = match str_at(body, &["threshold"]) {
            None => 1e-8,
            Some(raw) => raw.parse::<f64>().map_err(|_| {
                ConfigError::for_key("threshold", format!("malformed threshold `{raw}`"))
            })?,
        };
        let budget = match str_at(body, &["budget"]) {
            None => None,
            Some(raw) => Some(raw.parse::<usize>().map_err(|_| {
                ConfigError::for_key("budget", format!("malformed budget `{raw}`"))
            })?),
        };

        Ok(AnalysisConfig {
            benchmark: benchmark.clone(),
            build_dir: str_at(body, &["build_dir"])
                .unwrap_or(benchmark)
                .to_string(),
            algorithm,
            metric: str_at(body, &["metric"]).unwrap_or("MAE").to_string(),
            threshold,
            budget,
            args: str_at(body, &["args"]).unwrap_or("").to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "
kmeans:
  build_dir: 'kmeans'
  build: [ 'make' ]
  clean: [ 'make clean' ]
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  threshold: '1e-6'
  budget: '500'
  bin: 'kmeans'
  args: '-i kdd_bin -k 5 -n 5'
";

    #[test]
    fn full_config_round_trips() {
        let cfg = AnalysisConfig::from_yaml(FULL).unwrap();
        assert_eq!(cfg.benchmark, "kmeans");
        assert_eq!(cfg.build_dir, "kmeans");
        assert_eq!(cfg.algorithm, "ddebug");
        assert_eq!(cfg.metric, "MCR");
        assert_eq!(cfg.threshold, 1e-6);
        assert_eq!(cfg.budget, Some(500));
        assert!(cfg.args.contains("kdd_bin"));
    }

    #[test]
    fn defaults_apply() {
        let cfg = AnalysisConfig::from_yaml(
            "srad:\n  analysis:\n    fs:\n      extra_args:\n        algorithm: 'genetic'\n",
        )
        .unwrap();
        assert_eq!(cfg.metric, "MAE");
        assert_eq!(cfg.threshold, 1e-8);
        assert_eq!(cfg.budget, None);
        assert_eq!(cfg.build_dir, "srad");
    }

    #[test]
    fn missing_algorithm_is_an_error() {
        let err =
            AnalysisConfig::from_yaml("x:\n  analysis:\n    fs:\n      name: 'f'\n").unwrap_err();
        assert!(err.message.contains("algorithm"));
        assert_eq!(err.key.as_deref(), Some("extra_args.algorithm"));
        assert!(err.to_string().contains("`extra_args.algorithm`"));
    }

    #[test]
    fn malformed_threshold_is_an_error() {
        let err = AnalysisConfig::from_yaml(
            "x:\n  threshold: 'abc'\n  analysis:\n    fs:\n      extra_args:\n        algorithm: 'dd'\n",
        )
        .unwrap_err();
        assert!(err.message.contains("threshold"));
        assert_eq!(err.key.as_deref(), Some("threshold"));
    }

    #[test]
    fn malformed_budget_is_an_error() {
        let err = AnalysisConfig::from_yaml(
            "x:\n  budget: '-3'\n  analysis:\n    fs:\n      extra_args:\n        algorithm: 'dd'\n",
        )
        .unwrap_err();
        assert!(err.message.contains("budget"));
        assert_eq!(err.key.as_deref(), Some("budget"));
    }

    #[test]
    fn missing_analysis_is_an_error() {
        let err = AnalysisConfig::from_yaml("x:\n  metric: 'MAE'\n").unwrap_err();
        assert!(err.message.contains("analysis"));
        assert_eq!(err.key.as_deref(), Some("analysis"));
    }

    #[test]
    fn yaml_errors_surface_line_and_key_context() {
        let err = AnalysisConfig::from_yaml("x:\n  analysis:\n    not a mapping\n").unwrap_err();
        assert_eq!(err.line, Some(3));
        assert_eq!(err.key.as_deref(), Some("analysis"));
        let text = err.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("`analysis`"), "{text}");
    }

    #[test]
    fn root_errors_have_no_key_or_line() {
        let err = AnalysisConfig::from_yaml("# empty\n").unwrap_err();
        assert_eq!(err.key, None);
        assert_eq!(err.line, None);
        assert!(err.message.contains("benchmark entry"));
    }
}
