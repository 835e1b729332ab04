//! Offline summariser for `--trace` JSONL logs.
//!
//! The campaign driver streams its span/event log as append-only JSONL
//! (see `mixp_obs`); this module is the matching in-tree consumer. It
//! pairs every `span` record with its `end` by id, aggregates wall-clock
//! per span name, and tallies bare events — turning a multi-megabyte
//! trace into a one-screen phase table without any external tooling.
//!
//! Wall-clock enrichment (`wall_us`) is opt-in at capture time; spans
//! recorded without it still count, they just contribute no duration.
//! Malformed lines (including the torn final line a killed process can
//! leave behind) are skipped and reported, never fatal.

use crate::json::{parse, Json};
use std::collections::HashMap;

/// Aggregated statistics for one span or event name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Completed spans (or emitted events) with this name.
    pub count: u64,
    /// Spans that started but never ended (crash, or still running).
    pub open: u64,
    /// Total wall-clock across completed spans, in microseconds. Zero
    /// when the trace was captured without wall-clock enrichment.
    pub total_us: f64,
    /// How many completed spans carried wall-clock on both endpoints.
    pub timed: u64,
    /// Every timed span's duration in microseconds, sorted ascending.
    /// Exact — the summariser is offline, so unlike the live metrics
    /// histograms it can afford to keep the raw values and report true
    /// order statistics instead of bucket upper bounds.
    pub durations_us: Vec<f64>,
}

impl NameStats {
    /// Mean wall-clock per timed span, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.total_us / self.timed as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`, clamped, nearest-rank) of the timed
    /// spans' durations in microseconds; `0.0` when nothing was timed.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.durations_us.is_empty() {
            return 0.0;
        }
        let n = self.durations_us.len();
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize;
        self.durations_us[rank.min(n) - 1]
    }
}

/// The result of summarising one trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-span-name aggregates, sorted by descending total wall-clock
    /// (ties broken by name).
    pub spans: Vec<(String, NameStats)>,
    /// Per-event-name counts, sorted by descending count (ties by name).
    pub events: Vec<(String, u64)>,
    /// Lines that failed to parse (torn tail, corruption).
    pub skipped: u64,
    /// Total lines read, including skipped ones.
    pub lines: u64,
}

/// Summarises the JSONL text of one trace file.
pub fn summarize_trace(input: &str) -> TraceSummary {
    // Open spans by id: (name, start wall_us if enriched).
    let mut open: HashMap<u64, (String, Option<f64>)> = HashMap::new();
    let mut spans: HashMap<String, NameStats> = HashMap::new();
    let mut events: HashMap<String, u64> = HashMap::new();
    let mut skipped = 0u64;
    let mut lines = 0u64;

    for line in input.lines() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        // A torn, malformed or non-object line has no `t` and is skipped.
        let Ok(record) = parse(line) else {
            skipped += 1;
            continue;
        };
        let Some(kind) = record.get("t").and_then(Json::as_str) else {
            skipped += 1;
            continue;
        };
        let num = |key| record.get(key).and_then(Json::as_f64);
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let wall = num("wall_us");
        match kind {
            "span" => {
                if let Some(id) = num("id") {
                    open.insert(id as u64, (name, wall));
                }
            }
            "end" => {
                let Some(id) = num("id") else {
                    skipped += 1;
                    continue;
                };
                // An end without its start (trace truncated at the head)
                // still counts under its own name, just untimed.
                let (name, start) = open.remove(&(id as u64)).unwrap_or((name, None));
                let stat = spans.entry(name).or_default();
                stat.count += 1;
                if let (Some(s), Some(e)) = (start, wall) {
                    let duration = (e - s).max(0.0);
                    stat.total_us += duration;
                    stat.timed += 1;
                    stat.durations_us.push(duration);
                }
            }
            "event" => *events.entry(name).or_default() += 1,
            _ => skipped += 1,
        }
    }
    for (_, (name, _)) in open.drain() {
        spans.entry(name).or_default().open += 1;
    }

    let mut spans: Vec<_> = spans.into_iter().collect();
    for (_, stat) in spans.iter_mut() {
        stat.durations_us.sort_by(f64::total_cmp);
    }
    spans.sort_by(|a, b| {
        b.1.total_us
            .total_cmp(&a.1.total_us)
            .then_with(|| b.1.count.cmp(&a.1.count))
            .then_with(|| a.0.cmp(&b.0))
    });
    let mut events: Vec<_> = events.into_iter().collect();
    events.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    TraceSummary {
        spans,
        events,
        skipped,
        lines,
    }
}

/// Renders the summary as the text report printed by
/// `harness trace-summary`.
pub fn render_trace_summary(summary: &TraceSummary) -> String {
    let mut out = String::new();
    if summary.spans.is_empty() {
        out.push_str("no completed spans\n");
    } else {
        let rows: Vec<Vec<String>> = summary
            .spans
            .iter()
            .map(|(name, s)| {
                vec![
                    name.clone(),
                    s.count.to_string(),
                    if s.open > 0 {
                        s.open.to_string()
                    } else {
                        "-".to_string()
                    },
                    if s.timed > 0 {
                        format!("{:.3}", s.total_us / 1000.0)
                    } else {
                        "-".to_string()
                    },
                    if s.timed > 0 {
                        format!("{:.3}", s.mean_us() / 1000.0)
                    } else {
                        "-".to_string()
                    },
                    if s.timed > 0 {
                        format!("{:.3}", s.quantile_us(0.5) / 1000.0)
                    } else {
                        "-".to_string()
                    },
                    if s.timed > 0 {
                        format!("{:.3}", s.quantile_us(0.9) / 1000.0)
                    } else {
                        "-".to_string()
                    },
                ]
            })
            .collect();
        out.push_str(&crate::report::render_table(
            &[
                "Span", "Count", "Open", "Total ms", "Mean ms", "P50 ms", "P90 ms",
            ],
            &rows,
        ));
    }
    if !summary.events.is_empty() {
        let rows: Vec<Vec<String>> = summary
            .events
            .iter()
            .map(|(name, n)| vec![name.clone(), n.to_string()])
            .collect();
        out.push_str(&crate::report::render_table(&["Event", "Count"], &rows));
    }
    out.push_str(&format!(
        "{} lines, {} skipped\n",
        summary.lines, summary.skipped
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_spans_and_aggregates_wall_clock() {
        let trace = "\
{\"seq\":0,\"t\":\"span\",\"id\":0,\"name\":\"eval\",\"wall_us\":100}\n\
{\"seq\":1,\"t\":\"end\",\"id\":0,\"name\":\"eval\",\"wall_us\":350}\n\
{\"seq\":2,\"t\":\"span\",\"id\":2,\"name\":\"eval\",\"wall_us\":400}\n\
{\"seq\":3,\"t\":\"end\",\"id\":2,\"name\":\"eval\",\"wall_us\":500}\n\
{\"seq\":4,\"t\":\"event\",\"name\":\"job.attempt\"}\n";
        let s = summarize_trace(trace);
        assert_eq!(s.lines, 5);
        assert_eq!(s.skipped, 0);
        assert_eq!(s.spans.len(), 1);
        let (name, stat) = &s.spans[0];
        assert_eq!(name, "eval");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.timed, 2);
        assert_eq!(stat.total_us, 350.0);
        assert_eq!(stat.mean_us(), 175.0);
        assert_eq!(stat.durations_us, vec![100.0, 250.0], "sorted ascending");
        assert_eq!(stat.quantile_us(0.5), 100.0, "nearest-rank median");
        assert_eq!(stat.quantile_us(0.9), 250.0);
        assert_eq!(s.events, vec![("job.attempt".to_string(), 1)]);
        let rendered = render_trace_summary(&s);
        assert!(rendered.contains("P50 ms"), "{rendered}");
        assert!(rendered.contains("P90 ms"), "{rendered}");
        assert!(rendered.contains("0.100"), "p50 column: {rendered}");
        assert!(rendered.contains("0.250"), "p90 column: {rendered}");
    }

    #[test]
    fn unpaired_spans_count_as_open_and_torn_lines_are_skipped() {
        let trace = "\
{\"seq\":0,\"t\":\"span\",\"id\":0,\"name\":\"search\"}\n\
{\"seq\":1,\"t\":\"span\",\"id\":1,\"name\":\"eval\"}\n\
{\"seq\":2,\"t\":\"end\",\"id\":1,\"name\":\"eval\"}\n\
{\"seq\":3,\"t\":\"sp";
        let s = summarize_trace(trace);
        assert_eq!(s.skipped, 1);
        let search = s.spans.iter().find(|(n, _)| n == "search").unwrap();
        assert_eq!(search.1.open, 1);
        assert_eq!(search.1.count, 0);
        let eval = s.spans.iter().find(|(n, _)| n == "eval").unwrap();
        assert_eq!(eval.1.count, 1);
        assert_eq!(eval.1.timed, 0, "no wall clock captured");
    }

    #[test]
    fn untimed_traces_render_dashes() {
        let trace = "{\"seq\":0,\"t\":\"span\",\"id\":0,\"name\":\"x\"}\n\
{\"seq\":1,\"t\":\"end\",\"id\":0,\"name\":\"x\"}\n";
        let s = summarize_trace(trace);
        let rendered = render_trace_summary(&s);
        assert!(rendered.contains('x'), "{rendered}");
        assert!(rendered.contains('-'), "{rendered}");
        assert!(rendered.contains("2 lines, 0 skipped"), "{rendered}");
    }

    #[test]
    fn real_capture_round_trips() {
        // Produce a genuine trace through the public Obs API and make
        // sure the summariser understands its own producer.
        let obs = mixp_core::Obs::in_memory();
        {
            let span = obs.span("phase", &[]);
            let inner = obs.span("step", &[]);
            inner.end_with(&[]);
            span.end_with(&[]);
        }
        obs.event("tick", &[]);
        let text = obs.trace_lines().join("\n");
        let s = summarize_trace(&text);
        assert_eq!(s.skipped, 0);
        assert_eq!(
            s.spans
                .iter()
                .map(|(n, st)| (n.as_str(), st.count))
                .collect::<Vec<_>>(),
            vec![("phase", 1), ("step", 1)]
        );
        assert_eq!(s.events, vec![("tick".to_string(), 1)]);
    }

    #[test]
    fn torn_tail_and_non_object_lines_are_skipped() {
        let obs = mixp_core::Obs::in_memory();
        obs.span("phase", &[]).end_with(&[]);
        obs.event("tick", &[]);
        let lines = obs.trace_lines();
        let (last, whole) = lines.split_last().expect("three records");
        let whole = whole.join("\n");
        for cut in 1..last.len() {
            let s = summarize_trace(&format!("{whole}\n[1,2]\n{}", &last[..cut]));
            assert_eq!((s.lines, s.skipped), (4, 2), "tail cut at {cut}");
            assert_eq!(s.spans.len(), 1);
            assert!(s.events.is_empty(), "a torn event is not counted");
        }
    }
}
