//! In-memory spans recorded from outside, around the calls into each
//! layer, and written out once when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that was open when
/// this one started (0 = none); spans of one op share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: u32,
    /// Enclosing span's id, 0 at the top.
    pub parent: u32,
    /// The op this span belongs to.
    pub request: u32,
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread with stack discipline.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording inside a
    /// counted region never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            request: 0,
        }
    }

    /// Tags the spans recorded from now on with op `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, child of the span open now. `f`
    /// gets the tracer back to record its own children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, in start order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes `id parent request name start_ns end_ns self_ns`, one span a
    /// line, tab-separated.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (s, own) in self.spans.iter().zip(self_ns(&self.spans)) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part its children
/// cover (children of one parent never overlap — one thread, one stack).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] { a [10,40] { a1 [15,25] }, b [50,90] }
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 2, "a1", 15, 25),
            span(4, 1, "b", 50, 90),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add up to its root's duration.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_nesting_and_requests() {
        let mut t = Tracer::with_capacity(8);
        t.set_request(3);
        let got = t.scope("op", |t| {
            t.scope("inner", |_| std::hint::black_box(7));
            t.scope("inner", |_| 35)
        });
        assert_eq!(got, 35);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("op", 0, 3));
        assert_eq!((s[1].parent, s[2].parent), (1, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
        assert_eq!(t.durations_us("inner").len(), 2);
    }
}
