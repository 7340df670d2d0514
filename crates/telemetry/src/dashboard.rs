//! Terminal/markdown run dashboard: the at-a-glance summary of one
//! recorded run, designed to append to the `characterize` trace report
//! so a replay's input characterization and its observed behaviour land
//! in the same document.

use crate::event::{ticks_to_seconds, Event, EventKind};
use crate::histogram::{completion_time_histograms, LogHistogram, DEFAULT_SUB_BITS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts one run's lifecycle edges and gauge peaks.
#[derive(Debug, Clone, Default, PartialEq)]
struct RunSummary {
    /// Lifecycle edge counts, by event name.
    edges: BTreeMap<&'static str, u64>,
    /// Peak wait-queue depth per tenant.
    peak_queue_depth: BTreeMap<u32, u64>,
    /// Peak running-batch size.
    peak_batch: u64,
    /// Peak KV occupancy, bytes (with its capacity).
    peak_kv: (u64, u64),
    /// Last event tick, seconds.
    span_seconds: f64,
}

/// Scans an event stream into a [`RunSummary`].
fn summarize(events: &[Event]) -> RunSummary {
    let mut out = RunSummary::default();
    for event in events {
        out.span_seconds = out.span_seconds.max(ticks_to_seconds(event.tick));
        match event.kind {
            EventKind::QueueDepth { tenant, depth } => {
                let peak = out.peak_queue_depth.entry(tenant).or_insert(0);
                *peak = (*peak).max(depth);
            }
            EventKind::RunningBatch { size } => out.peak_batch = out.peak_batch.max(size),
            EventKind::KvOccupancy { used, capacity } => {
                if used >= out.peak_kv.0 {
                    out.peak_kv = (used, capacity);
                }
            }
            EventKind::DrrDeficit { .. } => {}
            ref kind => *out.edges.entry(kind.name()).or_insert(0) += 1,
        }
    }
    out
}

fn ms(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e3)
}

fn histogram_row(label: &str, h: &LogHistogram) -> String {
    format!(
        "| {label} | {} | {} | {} | {} | {} |\n",
        h.count(),
        ms(ticks_to_seconds(1) * h.mean()), // mean is in ticks
        ms(h.percentile_seconds(0.50)),
        ms(h.percentile_seconds(0.95)),
        ms(h.percentile_seconds(0.99)),
    )
}

/// Renders the markdown dashboard for one recorded run.
pub fn render_dashboard(events: &[Event]) -> String {
    let summary = summarize(events);
    let latency = completion_time_histograms(events, DEFAULT_SUB_BITS);
    let mut out = String::new();
    out.push_str("## Run dashboard\n\n");
    let _ = writeln!(
        out,
        "Simulated span: {:.3} s · events: {}\n",
        summary.span_seconds,
        events.len()
    );

    out.push_str("| lifecycle edge | count |\n|---|---|\n");
    for (name, count) in &summary.edges {
        let _ = writeln!(out, "| {name} | {count} |");
    }
    out.push('\n');

    out.push_str("### Completion time (enqueue → last token)\n\n");
    out.push_str("| tenant | completed | mean ms | p50 ms | p95 ms | p99 ms |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for (tenant, histogram) in &latency {
        let label = if *tenant == u32::MAX {
            "all".to_string()
        } else {
            format!("t{tenant}")
        };
        out.push_str(&histogram_row(&label, histogram));
    }
    out.push('\n');

    // Fault/recovery section, only when the run saw any such edge.
    let fault_edges = [
        "replica_crashed",
        "replica_recovered",
        "straggler_started",
        "straggler_ended",
        "retry_scheduled",
        "request_shed",
        "checkpoint_lost",
        "dead_lettered",
    ];
    if fault_edges.iter().any(|e| summary.edges.contains_key(e)) {
        out.push_str("### Faults & recovery\n\n");
        for name in fault_edges {
            if let Some(count) = summary.edges.get(name) {
                let _ = writeln!(out, "- {name}: {count}");
            }
        }
        out.push('\n');
    }

    out.push_str("### Peaks\n\n");
    let _ = writeln!(out, "- running batch: {}", summary.peak_batch);
    let _ = writeln!(
        out,
        "- kv occupancy: {} / {} bytes",
        summary.peak_kv.0, summary.peak_kv.1
    );
    for (tenant, depth) in &summary.peak_queue_depth {
        let _ = writeln!(out, "- queue depth t{tenant}: {depth}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind as K, Tick};

    fn ev(tick: Tick, kind: K) -> Event {
        Event {
            tick,
            replica: 0,
            kind,
        }
    }

    #[test]
    fn dashboard_counts_edges_and_peaks() {
        let events = vec![
            ev(
                0,
                K::Enqueued {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                2,
                K::QueueDepth {
                    tenant: 0,
                    depth: 3,
                },
            ),
            ev(3, K::RunningBatch { size: 2 }),
            ev(
                4,
                K::KvOccupancy {
                    used: 10,
                    capacity: 100,
                },
            ),
            ev(
                9,
                K::Completed {
                    request: 1,
                    tenant: 0,
                },
            ),
        ];
        let md = render_dashboard(&events);
        assert!(md.contains("| enqueued | 1 |"));
        assert!(md.contains("queue depth t0: 3"));
        assert!(md.contains("running batch: 2"));
        assert!(md.contains("| all | 1 |"));
    }
}
