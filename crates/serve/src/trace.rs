//! Compact binary traces: record any [`ArrivalSource`], replay it
//! bit-for-bit, at ~10 bytes/request.
//!
//! Million-request workloads are only practical to commit and share if
//! the on-disk format is tight and the replay path never materializes
//! the whole trace. The format here delta-encodes arrival times on an
//! integer tick grid and LEB128-varint-encodes everything else:
//!
//! ```text
//! header: "SPTR" magic (4 bytes) · version u8 (=1) · varint tick_ns
//! record: varint Δticks · varint input_len · varint output_len
//!         · varint tenant · varint session          (until end of buffer)
//! ```
//!
//! There is no record-count field — the stream ends at the end of the
//! buffer, so a recorder can append forever and a replayer can stream
//! from the front. Request ids are not stored; replay re-assigns
//! `0..n`, which is what generation produced in the first place.
//!
//! The canonical arrival representation is *integer ticks* (default
//! 1 µs): [`TraceWriter`] quantizes once at record time, and from then
//! on encode → decode → re-encode is lossless, which is what makes
//! "replays bit-for-bit" a checkable property rather than a float-
//! rounding hope.
//!
//! [`ReplayArrivals`] is the [`ArrivalSource`] over a recorded buffer —
//! it validates the whole buffer once up front (so a corrupt byte is an
//! error at load, not a panic mid-simulation), then streams requests
//! with O(1) memory. [`RecordingSource`] is the tee: it wraps any
//! source and records what the cluster actually consumed.

use crate::arrivals::{ArrivalSource, ClusterRequest, TraceConfig};
use spec_runtime::{CompletedRequest, Request, Workload};

/// Trace-format version this build reads and writes.
pub const VERSION: u8 = 1;

/// The four magic bytes opening every trace.
pub const MAGIC: [u8; 4] = *b"SPTR";

/// Default arrival-time grid: 1 µs ticks. At serving timescales
/// (milliseconds per token) this is far below measurement noise, and it
/// keeps typical inter-arrival deltas in 2–3 varint bytes.
pub const DEFAULT_TICK_NS: u64 = 1_000;

/// Everything that can be wrong with a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// Arrivals are not nondecreasing; `index` is the first offending
    /// request.
    Unsorted {
        /// Index of the first request that arrives before its
        /// predecessor.
        index: usize,
    },
    /// The buffer does not start with the `SPTR` magic.
    BadMagic,
    /// The format version is one this build cannot read.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The buffer ends mid-record (or mid-header); `offset` is where
    /// decoding stopped.
    Truncated {
        /// Byte offset at which the buffer ran out.
        offset: usize,
    },
    /// A varint ran past 10 bytes (or overflowed u64) at `offset`.
    Overflow {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// The header declares a zero tick size.
    ZeroTick,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Unsorted { index } => {
                write!(
                    f,
                    "trace must be sorted by arrival (request {index} regresses)"
                )
            }
            TraceError::BadMagic => write!(f, "not a trace: missing SPTR magic"),
            TraceError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (this build reads {VERSION})"
                )
            }
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated mid-record at byte {offset}")
            }
            TraceError::Overflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            TraceError::ZeroTick => write!(f, "trace header declares a zero tick size"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Converts an arrival in seconds to grid ticks (round-to-nearest;
/// monotone, so sorted seconds stay sorted ticks).
fn seconds_to_ticks(seconds: f64, tick_ns: u64) -> u64 {
    (seconds * 1e9 / tick_ns as f64).round() as u64
}

/// Converts grid ticks back to seconds.
pub fn ticks_to_seconds(ticks: u64, tick_ns: u64) -> f64 {
    ticks as f64 * tick_ns as f64 * 1e-9
}

/// Appends `v` as a LEB128 varint (low 7 bits first, high bit =
/// continuation).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint at `*pos`, advancing it.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let start = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(TraceError::Truncated { offset: start });
        };
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(TraceError::Overflow { offset: start });
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Overflow { offset: start });
        }
    }
}

/// One decoded trace record, arrivals in absolute grid ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Absolute arrival time, grid ticks.
    pub ticks: u64,
    /// Prompt length, tokens.
    pub input_len: usize,
    /// Generation length, tokens.
    pub output_len: usize,
    /// Tenant id.
    pub tenant: u32,
    /// Session id.
    pub session: u64,
}

impl TraceRecord {
    /// The record as a [`ClusterRequest`] with the given id, arrival
    /// mapped back to seconds on the `tick_ns` grid.
    fn to_request(self, id: usize, tick_ns: u64) -> ClusterRequest {
        ClusterRequest {
            request: Request::new(
                id,
                self.tenant,
                self.input_len,
                self.output_len,
                ticks_to_seconds(self.ticks, tick_ns),
            ),
            session: self.session,
        }
    }
}

/// Streaming trace encoder: feed it requests in arrival order, take the
/// bytes at the end. Appending is O(1) per request; nothing but the
/// output buffer is retained.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    buf: Vec<u8>,
    tick_ns: u64,
    last_ticks: u64,
    recorded: usize,
}

impl Default for TraceWriter {
    fn default() -> Self {
        Self::new(DEFAULT_TICK_NS)
    }
}

impl TraceWriter {
    /// A writer on the given arrival grid.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is zero.
    fn new(tick_ns: u64) -> Self {
        assert!(tick_ns > 0, "tick size must be positive");
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        put_varint(&mut buf, tick_ns);
        Self {
            buf,
            tick_ns,
            last_ticks: 0,
            recorded: 0,
        }
    }

    /// Appends one request.
    ///
    /// # Panics
    ///
    /// Panics if the request arrives (on the tick grid) before the
    /// previously recorded one — the [`ArrivalSource`] contract
    /// guarantees nondecreasing emission, so a regression here is a
    /// recorder bug, not bad input data (that case is
    /// [`crate::arrivals::from_trace`]'s, which returns an error).
    pub fn record(&mut self, cr: &ClusterRequest) {
        let ticks = seconds_to_ticks(cr.request.arrival, self.tick_ns);
        assert!(
            ticks >= self.last_ticks,
            "trace must be sorted by arrival (request {} regresses)",
            self.recorded
        );
        put_varint(&mut self.buf, ticks - self.last_ticks);
        put_varint(&mut self.buf, cr.request.input_len as u64);
        put_varint(&mut self.buf, cr.request.output_len as u64);
        put_varint(&mut self.buf, u64::from(cr.request.tenant));
        put_varint(&mut self.buf, cr.session);
        self.last_ticks = ticks;
        self.recorded += 1;
    }

    /// Requests recorded so far.
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Average payload bytes per recorded request (header excluded).
    pub fn bytes_per_request(&self) -> f64 {
        if self.recorded == 0 {
            return 0.0;
        }
        (self.buf.len() - header_len(&self.buf)) as f64 / self.recorded as f64
    }

    /// Finishes recording and returns the encoded trace.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Byte length of the header at the front of `buf` (magic + version +
/// the tick varint). Only called on buffers this module wrote.
fn header_len(buf: &[u8]) -> usize {
    let mut pos = MAGIC.len() + 1;
    let _ = get_varint(buf, &mut pos);
    pos
}

/// Streaming trace decoder: an iterator of [`TraceRecord`]s over an
/// encoded buffer. Each `next()` decodes one record; memory use is O(1)
/// regardless of trace length.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    tick_ns: u64,
    ticks: u64,
}

impl<'a> TraceCursor<'a> {
    /// Opens a trace, checking magic and version.
    pub fn new(bytes: &'a [u8]) -> Result<Self, TraceError> {
        if bytes.len() < MAGIC.len() + 1 {
            return Err(
                if bytes.get(..bytes.len().min(4)) == Some(&MAGIC[..bytes.len().min(4)])
                    && !bytes.is_empty()
                {
                    TraceError::Truncated {
                        offset: bytes.len(),
                    }
                } else {
                    TraceError::BadMagic
                },
            );
        }
        if bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(TraceError::BadVersion { found: version });
        }
        let mut pos = 5;
        let tick_ns = get_varint(bytes, &mut pos)?;
        if tick_ns == 0 {
            return Err(TraceError::ZeroTick);
        }
        Ok(Self {
            bytes,
            pos,
            tick_ns,
            ticks: 0,
        })
    }

    /// The arrival grid declared in the header, nanoseconds per tick.
    pub fn tick_ns(&self) -> u64 {
        self.tick_ns
    }

    /// Decodes the next record, `Ok(None)` at a clean end of buffer.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.pos == self.bytes.len() {
            return Ok(None);
        }
        let delta = get_varint(self.bytes, &mut self.pos)?;
        let input_len = get_varint(self.bytes, &mut self.pos)? as usize;
        let output_len = get_varint(self.bytes, &mut self.pos)? as usize;
        let tenant = u32::try_from(get_varint(self.bytes, &mut self.pos)?)
            .map_err(|_| TraceError::Overflow { offset: self.pos })?;
        let session = get_varint(self.bytes, &mut self.pos)?;
        self.ticks += delta;
        Ok(Some(TraceRecord {
            ticks: self.ticks,
            input_len,
            output_len,
            tenant,
            session,
        }))
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Encodes a stream of requests into a fresh trace buffer on the
/// default grid.
pub fn encode<I: IntoIterator<Item = ClusterRequest>>(requests: I) -> Vec<u8> {
    let mut w = TraceWriter::default();
    for cr in requests {
        w.record(&cr);
    }
    w.into_bytes()
}

/// Decodes a whole trace into materialized requests, ids `0..n`.
/// Convenience for tests and small traces — million-request replays
/// should stream through [`ReplayArrivals`] instead.
pub fn decode(bytes: &[u8]) -> Result<Vec<ClusterRequest>, TraceError> {
    let mut cursor = TraceCursor::new(bytes)?;
    let tick_ns = cursor.tick_ns();
    let mut out = Vec::new();
    while let Some(rec) = cursor.next_record()? {
        out.push(rec.to_request(out.len(), tick_ns));
    }
    Ok(out)
}

/// The [`ArrivalSource`] over a recorded trace: validates the whole
/// buffer once at construction (corruption is a load-time error), then
/// replays with O(1) memory. Replays of the same buffer are identical
/// by construction — the bytes *are* the trace.
#[derive(Debug, Clone)]
pub struct ReplayArrivals {
    bytes: Vec<u8>,
    count: usize,
    body: usize,
    tick_ns: u64,
    pos: usize,
    ticks: u64,
    next_id: usize,
}

impl ReplayArrivals {
    /// Opens and fully validates a trace buffer.
    pub fn new(bytes: Vec<u8>) -> Result<Self, TraceError> {
        let mut cursor = TraceCursor::new(&bytes)?;
        let tick_ns = cursor.tick_ns();
        let body = cursor.pos;
        let mut count = 0;
        while cursor.next_record()?.is_some() {
            count += 1;
        }
        Ok(Self {
            bytes,
            count,
            body,
            tick_ns,
            pos: body,
            ticks: 0,
            next_id: 0,
        })
    }

    /// Total requests in the trace.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Average payload bytes per request (header excluded).
    pub fn bytes_per_request(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.bytes.len() - self.body) as f64 / self.count as f64
    }

    /// Rewinds to the start of the trace (replay it again).
    pub fn rewind(&mut self) {
        self.pos = self.body;
        self.ticks = 0;
        self.next_id = 0;
    }

    /// Decodes the record at the cursor without advancing the stream
    /// state. Validation at construction makes the unwraps safe.
    fn peek_record(&self) -> Option<TraceRecord> {
        if self.pos == self.bytes.len() {
            return None;
        }
        let mut pos = self.pos;
        let delta = get_varint(&self.bytes, &mut pos).unwrap();
        let input_len = get_varint(&self.bytes, &mut pos).unwrap() as usize;
        let output_len = get_varint(&self.bytes, &mut pos).unwrap() as usize;
        let tenant = get_varint(&self.bytes, &mut pos).unwrap() as u32;
        let session = get_varint(&self.bytes, &mut pos).unwrap();
        Some(TraceRecord {
            ticks: self.ticks + delta,
            input_len,
            output_len,
            tenant,
            session,
        })
    }
}

impl ArrivalSource for ReplayArrivals {
    fn peek_arrival(&mut self) -> Option<f64> {
        self.peek_record()
            .map(|r| ticks_to_seconds(r.ticks, self.tick_ns))
    }

    fn next_request(&mut self) -> Option<ClusterRequest> {
        if self.pos == self.bytes.len() {
            return None;
        }
        let delta = get_varint(&self.bytes, &mut self.pos).unwrap();
        let input_len = get_varint(&self.bytes, &mut self.pos).unwrap() as usize;
        let output_len = get_varint(&self.bytes, &mut self.pos).unwrap() as usize;
        let tenant = get_varint(&self.bytes, &mut self.pos).unwrap() as u32;
        let session = get_varint(&self.bytes, &mut self.pos).unwrap();
        self.ticks += delta;
        let id = self.next_id;
        self.next_id += 1;
        Some(ClusterRequest {
            request: Request::new(
                id,
                tenant,
                input_len,
                output_len,
                ticks_to_seconds(self.ticks, self.tick_ns),
            ),
            session,
        })
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.count - self.next_id)
    }
}

/// A recording tee: wraps any [`ArrivalSource`] and records every
/// request the consumer actually pulls. Closed-loop behaviour passes
/// straight through, so recording a closed-loop run captures the
/// *realized* open-loop trace — which is exactly what makes closed-loop
/// experiments replayable on different fleets.
#[derive(Debug)]
pub struct RecordingSource<S> {
    inner: S,
    writer: TraceWriter,
}

impl<S: ArrivalSource> RecordingSource<S> {
    /// Tees `inner` into a fresh default-grid recorder.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            writer: TraceWriter::default(),
        }
    }

    /// Finishes, returning the encoded trace of everything consumed.
    pub fn into_bytes(self) -> Vec<u8> {
        self.writer.into_bytes()
    }
}

impl<S: ArrivalSource> ArrivalSource for RecordingSource<S> {
    fn peek_arrival(&mut self) -> Option<f64> {
        self.inner.peek_arrival()
    }

    fn next_request(&mut self) -> Option<ClusterRequest> {
        let cr = self.inner.next_request()?;
        self.writer.record(&cr);
        Some(cr)
    }

    fn on_complete(&mut self, done: &CompletedRequest) {
        self.inner.on_complete(done);
    }

    fn on_reject(&mut self, req: &Request) {
        self.inner.on_reject(req);
    }

    fn closed_loop(&self) -> bool {
        self.inner.closed_loop()
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

/// The pinned config behind `results/sample_trace.sptr`: a bursty
/// two-tenant mix. The golden-file test regenerates the trace from this
/// config and compares bytes, so any codec or generator drift fails
/// loudly instead of silently invalidating the committed sample.
pub fn sample_trace_config() -> TraceConfig {
    TraceConfig::bursty(2.0, 40.0, 0.05)
        .tenants(vec![
            crate::arrivals::TenantClass::new(
                0,
                3,
                vec![Workload::new(2048, 1024, 3), Workload::new(8192, 512, 1)],
            ),
            crate::arrivals::TenantClass::new(1, 1, vec![Workload::new(512, 4096, 1)]),
        ])
        .count(4096)
        .seed(0x5EED_7ACE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{generate, TraceConfig};
    use spec_tensor::SimRng;

    fn small_trace() -> Vec<ClusterRequest> {
        let cfg = TraceConfig::poisson(3.0)
            .shapes(vec![
                Workload::new(2048, 1024, 3),
                Workload::new(256, 64, 1),
            ])
            .count(200)
            .seed(11);
        generate(&cfg, &mut SimRng::seed(11))
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encode_decode_round_trips_on_the_tick_grid() {
        let trace = small_trace();
        let bytes = encode(trace.iter().copied());
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.request.id, b.request.id);
            assert_eq!(a.request.tenant, b.request.tenant);
            assert_eq!(a.request.input_len, b.request.input_len);
            assert_eq!(a.request.output_len, b.request.output_len);
            assert_eq!(a.session, b.session);
            // Arrivals land on the 1 µs grid.
            assert!((a.request.arrival - b.request.arrival).abs() < 1e-6);
        }
        // Re-encoding the decoded trace is lossless: the grid is the
        // canonical representation.
        assert_eq!(encode(back), bytes);
    }

    #[test]
    fn replay_matches_decode_and_is_rewindable() {
        let bytes = encode(small_trace());
        let eager = decode(&bytes).unwrap();
        let mut replay = ReplayArrivals::new(bytes).unwrap();
        assert_eq!(replay.len(), eager.len());
        let mut streamed = Vec::new();
        while let Some(cr) = replay.next_request() {
            streamed.push(cr);
        }
        assert_eq!(streamed, eager);
        replay.rewind();
        assert_eq!(replay.peek_arrival(), Some(eager[0].request.arrival));
        assert_eq!(replay.remaining_hint(), Some(eager.len()));
    }

    #[test]
    fn recording_tee_captures_what_was_consumed() {
        let cfg = TraceConfig::poisson(2.0)
            .shapes(vec![Workload::new(1024, 256, 1)])
            .count(50)
            .seed(5);
        let mut tee = RecordingSource::new(cfg.source());
        let mut consumed = Vec::new();
        while let Some(cr) = tee.next_request() {
            consumed.push(cr);
        }
        assert_eq!(consumed.len(), 50);
        let bytes = tee.into_bytes();
        let replayed = decode(&bytes).unwrap();
        assert_eq!(replayed.len(), consumed.len());
        for (a, b) in consumed.iter().zip(&replayed) {
            assert_eq!(a.request.input_len, b.request.input_len);
            assert_eq!(a.session, b.session);
        }
    }

    #[test]
    fn corrupt_traces_fail_at_load() {
        assert_eq!(TraceCursor::new(b"").unwrap_err(), TraceError::BadMagic);
        assert_eq!(
            TraceCursor::new(b"NOPE\x01\x00").unwrap_err(),
            TraceError::BadMagic
        );
        let mut wrong_version = encode(small_trace());
        wrong_version[4] = 9;
        assert_eq!(
            TraceCursor::new(&wrong_version).unwrap_err(),
            TraceError::BadVersion { found: 9 }
        );
        let mut truncated = encode(small_trace());
        truncated.pop();
        // Force a continuation bit so the final varint is incomplete.
        let end = truncated.len();
        truncated[end - 1] |= 0x80;
        let err = ReplayArrivals::new(truncated).unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn sample_trace_stays_under_the_size_budget() {
        let trace = generate(
            &sample_trace_config(),
            &mut SimRng::seed(sample_trace_config().seed),
        );
        let mut w = TraceWriter::default();
        for cr in &trace {
            w.record(cr);
        }
        assert!(
            w.bytes_per_request() <= 16.0,
            "{:.2} bytes/request breaks the format's budget",
            w.bytes_per_request()
        );
    }
}
