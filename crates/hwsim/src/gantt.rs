//! ASCII Gantt rendering of span timelines.
//!
//! Turns a list of [`Span`]s — from an
//! [`EventSim`] record list or any other
//! producer — into the kind of two-stream timeline diagram the paper
//! draws in Fig. 7, so benches and examples can show *where* the overlap
//! happens, not just the makespan.

use crate::event::{EventSim, Span, StreamId};

/// Renders a span list as one row per stream, `width` characters wide.
///
/// Each span paints its interval with the first letter of its label
/// (after the last `.`); idle time is `.`. Spans shorter than one cell
/// still paint one cell, so very short ops remain visible (at the cost
/// of slight horizontal distortion).
fn render_spans(spans: &[Span], streams: &[(StreamId, &str)], width: usize) -> String {
    let width = width.max(10);
    let makespan = spans
        .iter()
        .map(|s| s.end)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let scale = width as f64 / makespan;
    let mut out = String::new();
    for &(stream, name) in streams {
        let mut row = vec!['.'; width];
        for s in spans {
            if s.stream != stream {
                continue;
            }
            let a = ((s.start * scale) as usize).min(width - 1);
            let b = (((s.end * scale) as usize).max(a + 1)).min(width);
            let c = s
                .label
                .rsplit('.')
                .next()
                .and_then(|s| s.chars().next())
                .unwrap_or('#');
            for cell in row.iter_mut().take(b).skip(a) {
                *cell = c;
            }
        }
        out.push_str(&format!("{name:>8} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>8}  0{}{:.2} ms\n",
        "",
        " ".repeat(width.saturating_sub(9)),
        makespan * 1e3
    ));
    out
}

/// Renders an event simulator's timeline ([`EventSim::spans`]), one row
/// per stream.
pub fn render(sim: &EventSim, streams: &[(StreamId, &str)], width: usize) -> String {
    render_spans(&sim.spans(), streams, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{COMPUTE, COPY};

    #[test]
    fn renders_two_streams_with_overlap() {
        let mut sim = EventSim::new(2);
        let f = sim.submit("L0.fetch", COPY, 1.0, &[]);
        sim.submit("L0.attn", COMPUTE, 0.5, &[f]);
        sim.submit("L0.ffn", COMPUTE, 0.5, &[]);
        let g = render(&sim, &[(COMPUTE, "compute"), (COPY, "copy")], 40);
        assert!(g.contains("compute"));
        assert!(g.contains("copy"));
        // The copy row is busy (f) for the first ~2/3 of the width.
        let copy_row = g.lines().nth(1).unwrap();
        assert!(copy_row.matches('f').count() > 10);
    }

    #[test]
    fn idle_time_is_dotted() {
        let mut sim = EventSim::new(1);
        let a = sim.submit("a", COMPUTE, 0.1, &[]);
        // Big gap enforced through a fake dependency on a later op.
        let b = sim.submit("wait", COMPUTE, 0.8, &[a]);
        sim.submit("z", COMPUTE, 0.1, &[b]);
        let g = render(&sim, &[(COMPUTE, "compute")], 30);
        assert!(!g.contains(".........................."), "row mostly busy");
    }

    #[test]
    fn tiny_ops_still_visible() {
        // A near-zero-duration op at the end of the row still paints a
        // cell (later ops would otherwise be invisible).
        let mut sim = EventSim::new(1);
        sim.submit("later", COMPUTE, 1.0, &[]);
        sim.submit("x", COMPUTE, 1e-9, &[]);
        let g = render(&sim, &[(COMPUTE, "c")], 50);
        assert!(g.contains('x'));
    }

    #[test]
    fn bare_spans_render_without_a_simulator() {
        let spans = vec![
            Span::new(COMPUTE, 0.0, 0.5, "attn"),
            Span::new(COPY, 0.25, 1.0, "fetch"),
        ];
        let g = render_spans(&spans, &[(COMPUTE, "compute"), (COPY, "copy")], 40);
        assert!(g.lines().next().unwrap().contains('a'));
        assert!(g.lines().nth(1).unwrap().contains('f'));
    }

    #[test]
    fn render_matches_render_spans_on_sim_records() {
        let mut sim = EventSim::new(2);
        let f = sim.submit("L0.fetch", COPY, 1.0, &[]);
        sim.submit("L0.attn", COMPUTE, 0.7, &[f]);
        let streams = [(COMPUTE, "compute"), (COPY, "copy")];
        assert_eq!(
            render(&sim, &streams, 60),
            render_spans(&sim.spans(), &streams, 60)
        );
    }
}
