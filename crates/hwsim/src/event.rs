//! Two-stream discrete-event simulator.
//!
//! Models CUDA-style streams: operations on the same stream serialize;
//! operations on different streams run concurrently unless ordered by an
//! explicit dependency (the analogue of a CUDA event wait). This is the
//! substrate on which the runtime lays out the five dataflow paradigms of
//! paper Fig. 7.
//!
//! A simulator may carry `W` timelines side by side ([`Lanes`]): one op
//! graph whose durations differ per lane, laid out once. Lane `i` sees
//! exactly the operations a one-lane simulator fed lane `i`'s durations
//! would perform, so its instants carry the same bits.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Index};

/// Identifies a stream in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamId(pub usize);

/// The compute stream (convention used by the runtime).
pub const COMPUTE: StreamId = StreamId(0);
/// The copy/prefetch stream.
pub const COPY: StreamId = StreamId(1);

/// An op's name: an optional layer plus a static op kind. `Copy`, so
/// recording a timeline allocates nothing; the text (`"L3.attn"`,
/// `"lm_head"`) is rendered by `Display` only where someone reads it —
/// gantt, Perfetto, tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLabel {
    /// The layer the op belongs to, if any.
    pub layer: Option<u32>,
    /// The op kind.
    pub name: &'static str,
}

impl OpLabel {
    /// The label of op `name` in layer `layer`, rendered `"L{layer}.{name}"`.
    pub fn layer(layer: usize, name: &'static str) -> Self {
        Self {
            layer: Some(layer as u32),
            name,
        }
    }
}

impl From<&'static str> for OpLabel {
    /// A label outside any layer, rendered as `name` itself.
    fn from(name: &'static str) -> Self {
        Self { layer: None, name }
    }
}

impl std::fmt::Display for OpLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.layer {
            Some(l) => write!(f, "L{l}.{}", self.name),
            None => f.write_str(self.name),
        }
    }
}

/// A completed-op record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Op label (renders as e.g. `"L3.attn"`, `"L3.kv_fetch"`).
    pub label: OpLabel,
    /// Stream it ran on.
    pub stream: StreamId,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// One labelled interval on a stream — the timeline model shared by the
/// ASCII gantt renderer ([`crate::gantt::render`]) and the
/// `spec_telemetry` Perfetto exporter: anything that can describe its
/// activity as spans can be drawn by either backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Stream (track/row) the interval belongs to.
    pub stream: StreamId,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Human-readable label.
    pub label: String,
}

impl Span {
    /// Builds a span from its fields.
    pub fn new(stream: StreamId, start: f64, end: f64, label: impl Into<String>) -> Self {
        Self {
            stream,
            start,
            end,
            label: label.into(),
        }
    }
}

impl From<&OpRecord> for Span {
    fn from(r: &OpRecord) -> Self {
        Span::new(r.stream, r.start, r.end, r.label.to_string())
    }
}

/// Handle returned by [`EventSim::submit`], usable as a dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpHandle(usize);

impl OpHandle {
    /// The handle of the `n`-th op submitted after this one (handles
    /// follow submission order), so a builder that submits a run of ops
    /// back to back need not store each handle.
    pub fn nth_after(self, n: usize) -> OpHandle {
        OpHandle(self.0 + n)
    }
}

/// The later of two instants on a timeline: `f64::max` where neither
/// NaN nor `-0.0` can occur (an instant is `0.0` plus durations asserted
/// `>= 0.0`), which spares the NaN handling on the one dependent chain a
/// step price is — stream free → start → end → stream free.
#[inline(always)]
fn later(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// `W` instants or durations, one per timeline of an [`EventSim<W>`]:
/// every operation acts lane by lane, so a lane holds the bits the same
/// scalar operations would. An `f64` converts by filling every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes<const W: usize>(pub [f64; W]);

impl<const W: usize> Lanes<W> {
    /// Lane `i` is `f(i)`.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        Self(std::array::from_fn(f))
    }

    /// `f` applied to every lane.
    #[inline(always)]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self(self.0.map(f))
    }

    /// Lane `i` where `mask[i]`, `0.0` elsewhere.
    #[inline(always)]
    pub fn or_zero(self, mask: [bool; W]) -> Self {
        Self::from_fn(|i| if mask[i] { self.0[i] } else { 0.0 })
    }

    /// [`later`] lane by lane.
    #[inline(always)]
    fn later(self, other: Self) -> Self {
        Self::from_fn(|i| later(self.0[i], other.0[i]))
    }
}

impl<const W: usize> Default for Lanes<W> {
    fn default() -> Self {
        Self([0.0; W])
    }
}

impl<const W: usize> From<f64> for Lanes<W> {
    #[inline(always)]
    fn from(x: f64) -> Self {
        Self([x; W])
    }
}

impl<const W: usize> Index<usize> for Lanes<W> {
    type Output = f64;

    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const W: usize, T: Into<Lanes<W>>> Add<T> for Lanes<W> {
    type Output = Self;

    #[inline(always)]
    fn add(self, other: T) -> Self {
        let other = other.into();
        Self::from_fn(|i| self.0[i] + other.0[i])
    }
}

impl<const W: usize, T: Into<Lanes<W>>> AddAssign<T> for Lanes<W> {
    #[inline(always)]
    fn add_assign(&mut self, other: T) {
        *self = *self + other;
    }
}

/// The simulator, over `W` timelines of one op graph (one by default).
///
/// Every op's end time and every stream's free instant are always kept,
/// in every lane — that is all a dependency or a price needs. The labelled
/// [`OpRecord`]s are kept too, for lane 0 only, unless the simulator was
/// built with [`EventSim::price_only`]: only the things that *draw* a
/// timeline (gantt, Perfetto, the `fig07_dataflow` bench) or break it
/// down per stream read them, and they draw one.
///
/// # Example
///
/// ```
/// use spec_hwsim::event::{EventSim, COMPUTE, COPY};
///
/// let mut sim = EventSim::new(2);
/// let load = sim.submit("load", COPY, 1.0, &[]);
/// let attn = sim.submit("attn", COMPUTE, 0.5, &[load]); // waits for load
/// let ffn = sim.submit("ffn", COMPUTE, 0.5, &[]);        // independent
/// assert_eq!(sim.end_of(attn), 1.5);
/// assert_eq!(sim.makespan(), 2.0);
/// # let _ = ffn;
/// ```
#[derive(Debug, Clone)]
pub struct EventSim<const W: usize = 1> {
    stream_free: Vec<Lanes<W>>,
    /// End time per op, in submission order ([`OpHandle`]s index it).
    ends: Vec<Lanes<W>>,
    price_only: bool,
    records: Vec<OpRecord>,
}

impl<const W: usize> Default for EventSim<W> {
    /// A recording simulator with no streams: call
    /// [`reset`](Self::reset) before use.
    fn default() -> Self {
        const { assert!(W > 0, "a simulator needs a lane") };
        Self {
            stream_free: Vec::new(),
            ends: Vec::new(),
            price_only: false,
            records: Vec::new(),
        }
    }
}

impl EventSim {
    /// Creates a one-lane simulator with `streams` streams, all free at
    /// t=0.
    pub fn new(streams: usize) -> Self {
        let mut sim = Self::default();
        sim.reset(streams);
        sim
    }
}

impl<const W: usize> EventSim<W> {
    /// A simulator that prices a timeline without recording it: op ends
    /// and the makespan as usual (same floats, same order), no
    /// [`OpRecord`]s — [`records`](Self::records), [`spans`](Self::spans)
    /// and the per-stream busy times stay empty. What a step-price miss
    /// lays its ops out on. Call [`reset`](Self::reset) before use.
    pub fn price_only() -> Self {
        Self {
            price_only: true,
            ..Self::default()
        }
    }

    /// Forgets every op and frees all `streams` streams at t=0, keeping
    /// the buffers: a loop that prices many timelines reuses one
    /// simulator and allocates only on the first.
    pub fn reset(&mut self, streams: usize) {
        self.records.clear();
        self.ends.clear();
        self.stream_free.clear();
        self.stream_free.resize(streams.max(1), Lanes::default());
    }

    /// Submits an op of `duration` seconds on `stream` — one duration for
    /// every lane, or one per lane — starting no earlier than the end of
    /// every op in `deps`. Returns a handle.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist, a lane's `duration` is
    /// negative, or a dependency handle is invalid.
    #[inline(always)]
    pub fn submit(
        &mut self,
        label: impl Into<OpLabel>,
        stream: StreamId,
        duration: impl Into<Lanes<W>>,
        deps: &[OpHandle],
    ) -> OpHandle {
        let duration = duration.into();
        assert!(stream.0 < self.stream_free.len(), "unknown stream");
        assert!(
            duration.0.iter().fold(true, |ok, d| ok & (*d >= 0.0)),
            "negative duration"
        );
        let start = deps
            .iter()
            .map(|h| self.ends[h.0])
            .fold(self.stream_free[stream.0], Lanes::later);
        let end = start + duration;
        self.stream_free[stream.0] = end;
        self.ends.push(end);
        if !self.price_only {
            self.records.push(OpRecord {
                label: label.into(),
                stream,
                start: start[0],
                end: end[0],
            });
        }
        OpHandle(self.ends.len() - 1)
    }

    /// End time of a submitted op, in lane 0.
    ///
    /// # Panics
    ///
    /// Panics if the handle is invalid.
    pub fn end_of(&self, h: OpHandle) -> f64 {
        self.ends[h.0][0]
    }

    /// Time at which every submitted op has finished, in lane 0.
    pub fn makespan(&self) -> f64 {
        self.makespans()[0]
    }

    /// [`makespan`](Self::makespan) in every lane: the latest instant a
    /// stream is free at, since an op ends no earlier than the ops before
    /// it on its stream (it starts after them, and durations are
    /// non-negative), and with neither NaN nor `-0.0` among instants the
    /// latest is the same value whichever order it is taken in.
    pub fn makespans(&self) -> Lanes<W> {
        self.stream_free
            .iter()
            .fold(Lanes::default(), |latest, free| latest.later(*free))
    }

    /// All op records, in submission order (lane 0's instants; none on a
    /// [`price_only`](Self::price_only) simulator).
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// The timeline as [`Span`]s, in submission order.
    pub fn spans(&self) -> Vec<Span> {
        self.records.iter().map(Span::from).collect()
    }

    /// Total busy time of one stream.
    pub fn busy_time(&self, stream: StreamId) -> f64 {
        self.records
            .iter()
            .filter(|r| r.stream == stream)
            .map(|r| r.end - r.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_serializes() {
        let mut sim = EventSim::new(1);
        let a = sim.submit("a", StreamId(0), 1.0, &[]);
        let b = sim.submit("b", StreamId(0), 1.0, &[]);
        assert_eq!(sim.end_of(a), 1.0);
        assert_eq!(sim.end_of(b), 2.0);
    }

    #[test]
    fn different_streams_overlap() {
        let mut sim = EventSim::new(2);
        sim.submit("a", COMPUTE, 1.0, &[]);
        sim.submit("b", COPY, 1.0, &[]);
        assert_eq!(sim.makespan(), 1.0);
    }

    #[test]
    fn dependency_across_streams_orders_ops() {
        let mut sim = EventSim::new(2);
        let load = sim.submit("load", COPY, 2.0, &[]);
        let attn = sim.submit("attn", COMPUTE, 0.5, &[load]);
        assert_eq!(sim.records()[1].start, 2.0);
        assert_eq!(sim.end_of(attn), 2.5);
    }

    #[test]
    fn makespan_bounds_busy_time() {
        let mut sim = EventSim::new(2);
        for i in 0..5 {
            sim.submit(OpLabel::layer(i, "c"), COMPUTE, 0.3, &[]);
            sim.submit(OpLabel::layer(i, "t"), COPY, 0.4, &[]);
        }
        assert!(sim.makespan() >= sim.busy_time(COMPUTE).max(sim.busy_time(COPY)) - 1e-12);
    }

    #[test]
    fn labels_render_only_when_read_and_reset_keeps_nothing() {
        let mut sim = EventSim::new(2);
        let first = sim.submit("retrieval_head", COMPUTE, 1.0, &[]);
        sim.submit(OpLabel::layer(3, "attn"), COMPUTE, 1.0, &[]);
        let labels: Vec<String> = sim.spans().into_iter().map(|s| s.label).collect();
        assert_eq!(labels, ["retrieval_head", "L3.attn"]);
        assert_eq!(sim.end_of(first.nth_after(1)), 2.0);
        sim.reset(2);
        assert!(sim.records().is_empty());
        assert_eq!(sim.makespan(), 0.0);
        let again = sim.submit("x", COPY, 0.5, &[]);
        assert_eq!(sim.end_of(again), 0.5, "streams are free again at t=0");
    }

    #[test]
    fn price_only_keeps_ends_and_makespan_and_records_nothing() {
        let lay_out = |sim: &mut EventSim| {
            sim.reset(2);
            let load = sim.submit("load", COPY, 0.7, &[]);
            let attn = sim.submit(OpLabel::layer(0, "attn"), COMPUTE, 0.5, &[load]);
            sim.submit("ffn", COMPUTE, 0.25, &[attn]);
            sim.submit("tail", COPY, 0.1, &[]);
            (sim.end_of(load), sim.end_of(attn), sim.makespan())
        };
        let mut recorded = EventSim::default();
        let mut priced = EventSim::price_only();
        for _ in 0..2 {
            assert_eq!(lay_out(&mut priced), lay_out(&mut recorded));
        }
        assert_eq!(recorded.records().len(), 4);
        assert!(priced.records().is_empty());
        assert!(priced.spans().is_empty());
        assert_eq!(priced.busy_time(COMPUTE), 0.0);
    }

    #[test]
    fn each_lane_is_the_one_lane_timeline_of_its_durations() {
        // Lane i's durations: a load that grows with i, so the critical
        // path moves from the compute stream to the copy stream across
        // the lanes.
        let durations = |i: usize| (0.2 + 0.3 * i as f64, 0.5, 0.25 * i as f64);
        let mut lanes = EventSim::<4>::default();
        lanes.reset(2);
        let load = lanes.submit("load", COPY, Lanes::from_fn(|i| durations(i).0), &[]);
        let attn = lanes.submit("attn", COMPUTE, 0.5, &[]);
        let ffn = lanes.submit(
            OpLabel::layer(0, "ffn"),
            COMPUTE,
            Lanes::from_fn(|i| durations(i).2),
            &[load, attn],
        );
        for i in 0..4 {
            let (load_t, attn_t, ffn_t) = durations(i);
            let mut one = EventSim::new(2);
            let load = one.submit("load", COPY, load_t, &[]);
            let attn = one.submit("attn", COMPUTE, attn_t, &[]);
            one.submit(OpLabel::layer(0, "ffn"), COMPUTE, ffn_t, &[load, attn]);
            assert_eq!(lanes.makespans()[i].to_bits(), one.makespan().to_bits());
            if i == 0 {
                assert_eq!(lanes.records(), one.records(), "lane 0 is recorded");
                assert_eq!(lanes.end_of(ffn), one.end_of(ffn));
            }
        }
        assert_eq!(lanes.records().len(), 3);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn a_negative_duration_in_any_lane_is_rejected() {
        let mut sim = EventSim::<2>::default();
        sim.reset(1);
        sim.submit("x", COMPUTE, Lanes([1.0, -1.0]), &[]);
    }

    #[test]
    fn later_is_max_over_instants() {
        let instants = [
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1e-9,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for a in instants {
            for b in instants {
                assert_eq!(later(a, b).to_bits(), a.max(b).to_bits(), "{a} vs {b}");
            }
        }
        // A `-0.0` duration is legal and still ends on `+0.0`.
        let mut sim = EventSim::new(1);
        let h = sim.submit("sync", COMPUTE, -0.0, &[]);
        assert_eq!(sim.end_of(h).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn zero_duration_ops_allowed() {
        let mut sim = EventSim::new(1);
        let h = sim.submit("sync", COMPUTE, 0.0, &[]);
        assert_eq!(sim.end_of(h), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown stream")]
    fn bad_stream_rejected() {
        let mut sim = EventSim::new(1);
        sim.submit("x", StreamId(5), 1.0, &[]);
    }
}
