//! Plain-text table rendering for the regenerated paper artefacts.

use crate::job::JobResult;
use crate::scheduler::JobOutcome;
use mixp_core::MetricsSnapshot;

/// Renders the campaign's observability snapshot as a report footer:
/// a heading line plus [`MetricsSnapshot::render_text`]'s indented body.
/// Returns an empty string for an empty snapshot so callers can append
/// unconditionally.
pub fn metrics_footer(snapshot: &MetricsSnapshot) -> String {
    if snapshot.is_empty() {
        return String::new();
    }
    format!("campaign metrics:\n{}", snapshot.render_text())
}

/// Renders a fixed-width text table. The first row of `rows` is not
/// special; pass column names via `headers`.
///
/// # Panics
///
/// Panics if any row's length differs from the header length.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:w$} |"));
        }
        line.push('\n');
        line
    };
    let sep = {
        let mut line = String::from("|");
        for w in &widths {
            line.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(headers.to_vec(), &widths));
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(
            row.iter().map(String::as_str).collect(),
            &widths,
        ));
    }
    out
}

/// Formats a quality value the way the paper's tables print it:
/// `-` for DNF/absent, `NaN` for destroyed output, exponent notation
/// otherwise (exact zeros as `0`).
pub fn fmt_quality(q: Option<f64>) -> String {
    match q {
        None => "-".to_string(),
        Some(v) if v.is_nan() => "NaN".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) => format!("{v:.2e}"),
    }
}

/// Formats a speedup value (`-` for DNF/absent).
pub fn fmt_speedup(s: Option<f64>) -> String {
    match s {
        None => "-".to_string(),
        Some(v) => format!("{v:.2}"),
    }
}

/// Formats an evaluated-configurations count (`-` only when absent).
pub fn fmt_evaluated(r: &JobResult) -> String {
    if r.result.dnf {
        format!("DNF({})", r.result.evaluated)
    } else {
        r.result.evaluated.to_string()
    }
}

/// Formats a failed cell the way the campaign tables print it: the
/// paper's grey DNF boxes become explicit `FAILED(reason)` entries.
pub fn fmt_failed(outcome: &JobOutcome) -> Option<String> {
    outcome
        .outcome
        .as_ref()
        .err()
        .map(|e| format!("FAILED({})", e.code()))
}

/// Renders one grouped table (Table III or Table V layout): per benchmark,
/// a speedup / evaluated / quality triple for each algorithm. Cells whose
/// job failed render as `FAILED(reason)` in the SU column (with `-`
/// elsewhere) instead of aborting the table.
pub fn render_grouped(groups: &[Vec<JobOutcome>], algos: &[&str]) -> String {
    let mut headers: Vec<String> = vec!["Application".to_string()];
    for metric in ["SU", "EV", "Quality"] {
        for a in algos {
            headers.push(format!("{metric}:{a}"));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|group| {
            let mut row = vec![group
                .first()
                .map(|o| o.job.benchmark.clone())
                .unwrap_or_default()];
            row.extend(group.iter().map(|o| match o.result() {
                Some(r) => fmt_speedup(r.result.speedup()),
                None => fmt_failed(o).unwrap_or_default(),
            }));
            row.extend(group.iter().map(|o| match o.result() {
                Some(r) => fmt_evaluated(r),
                None => "-".to_string(),
            }));
            row.extend(group.iter().map(|o| match o.result() {
                Some(r) => fmt_quality(r.result.quality()),
                None => "-".to_string(),
            }));
            row
        })
        .collect();
    render_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            &["name", "x"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "22".to_string()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        render_table(&["a"], &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn quality_formats() {
        assert_eq!(fmt_quality(None), "-");
        assert_eq!(fmt_quality(Some(f64::NAN)), "NaN");
        assert_eq!(fmt_quality(Some(0.0)), "0");
        assert_eq!(fmt_quality(Some(1.23e-9)), "1.23e-9");
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(fmt_speedup(None), "-");
        assert_eq!(fmt_speedup(Some(1.5)), "1.50");
    }

    #[test]
    fn metrics_footer_renders_counters_and_is_empty_when_empty() {
        use mixp_core::Obs;
        assert_eq!(metrics_footer(&MetricsSnapshot::default()), "");
        let obs = Obs::in_memory();
        obs.counter_add("campaign.completed", 3);
        let snap = obs.metrics_snapshot().unwrap();
        let footer = metrics_footer(&snap);
        assert!(footer.starts_with("campaign metrics:"));
        assert!(footer.contains("campaign.completed = 3"), "{footer}");
    }

    #[test]
    fn failed_cells_render_reason_without_aborting() {
        use crate::job::{Job, JobError};
        use crate::registry::Scale;
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let ok = JobOutcome {
            job: job.clone(),
            attempts: 1,
            from_checkpoint: false,
            outcome: job.execute(None, None),
        };
        let failed = JobOutcome {
            job: Job::new("tridiag", "HC", 1e-3, Scale::Small),
            attempts: 2,
            from_checkpoint: false,
            outcome: Err(JobError::Panicked("boom".to_string())),
        };
        let table = render_grouped(&[vec![ok, failed]], &["DD", "HC"]);
        assert!(table.contains("FAILED(panic)"), "{table}");
        assert!(table.contains("tridiag"));
    }
}
