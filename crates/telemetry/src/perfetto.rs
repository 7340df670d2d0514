//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Turns a recorded event stream into a JSON document loadable in
//! `ui.perfetto.dev` (or `chrome://tracing`): one process per replica,
//! one thread per tenant, complete (`X`) slices for each request's
//! running segments, instant events for lifecycle edges, counter (`C`)
//! tracks for the gauges, and flow (`s`/`f`) arrows linking each
//! preemption to its restore. Timestamps are simulated microseconds —
//! the telemetry tick grid is 1 µs, exactly the `ts` unit the format
//! expects — so the viewer shows the run on the simulated clock.
//!
//! The slice layer is built through the shared
//! [`spec_hwsim::event::Span`] timeline model (the same type the ASCII
//! gantt renderer draws), so any other span producer can be exported the
//! same way.

use crate::event::{ticks_to_seconds, Event, EventKind, Tick};
use serde::Value;
use spec_hwsim::event::{Span, StreamId};
use std::collections::BTreeMap;

/// A span timeline extracted from an event stream: the shared
/// [`Span`] model plus the table mapping each span's [`StreamId`] back
/// to the `(replica, tenant)` track it belongs to.
#[derive(Debug, Clone, PartialEq, Default)]
struct RequestTimeline {
    /// Running segments (admit/restore → preempt/complete), in close
    /// order.
    spans: Vec<Span>,
    /// `streams[span.stream.0] == (replica, tenant)`.
    streams: Vec<(u32, u32)>,
}

impl RequestTimeline {
    /// The `(replica, tenant)` track of `span`.
    fn track(&self, span: &Span) -> (u32, u32) {
        self.streams[span.stream.0]
    }
}

/// Extracts each request's running segments from an event stream: a
/// span opens at `Admitted`/`Restored` and closes at the same request's
/// next `Preempted`/`Completed`. Streams are `(replica, tenant)` pairs
/// in sorted order, so the extraction is deterministic for a
/// deterministic stream. Segments still open when the stream ends are
/// dropped.
fn request_spans(events: &[Event]) -> RequestTimeline {
    let mut stream_of: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for event in events {
        if let EventKind::Admitted { tenant, .. } | EventKind::Restored { tenant, .. } = event.kind
        {
            let next = stream_of.len();
            stream_of.entry((event.replica, tenant)).or_insert(next);
        }
    }
    // Re-key in sorted-track order (BTreeMap iteration) so stream ids do
    // not depend on first-admission order.
    for (index, (_, slot)) in stream_of.iter_mut().enumerate() {
        *slot = index;
    }
    let streams: Vec<(u32, u32)> = stream_of.keys().copied().collect();

    let mut open: BTreeMap<u64, (usize, Tick)> = BTreeMap::new();
    let mut spans = Vec::new();
    for event in events {
        match event.kind {
            EventKind::Admitted { request, tenant } | EventKind::Restored { request, tenant } => {
                let stream = stream_of[&(event.replica, tenant)];
                open.insert(request, (stream, event.tick));
            }
            EventKind::Preempted { request, .. } | EventKind::Completed { request, .. } => {
                if let Some((stream, start)) = open.remove(&request) {
                    spans.push(Span::new(
                        StreamId(stream),
                        ticks_to_seconds(start),
                        ticks_to_seconds(event.tick),
                        format!("req {request}"),
                    ));
                }
            }
            _ => {}
        }
    }
    RequestTimeline { spans, streams }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn u(v: u64) -> Value {
    Value::UInt(v)
}

/// Perfetto thread id of a tenant track (0 is the replica's scheduler
/// track for process-scoped instants).
fn tenant_tid(tenant: u32) -> u64 {
    tenant as u64 + 1
}

fn metadata(pid: u64, tid: Option<u64>, what: &str, name: String) -> Value {
    let mut fields = vec![
        ("ph", s("M")),
        ("pid", u(pid)),
        ("name", s(what)),
        ("args", obj(vec![("name", s(name))])),
    ];
    if let Some(tid) = tid {
        fields.insert(2, ("tid", u(tid)));
    }
    obj(fields)
}

fn instant(event: &Event, tid: u64, scope: &str, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("ph", s("i")),
        ("name", s(event.kind.name())),
        ("cat", s("lifecycle")),
        ("pid", u(event.replica as u64)),
        ("tid", u(tid)),
        ("ts", u(event.tick)),
        ("s", s(scope)),
        ("args", obj(args)),
    ])
}

/// Serializes an event stream to Chrome/Perfetto `trace_event` JSON.
pub fn export_trace(events: &[Event]) -> String {
    let timeline = request_spans(events);
    let mut out: Vec<Value> = Vec::new();

    // Track metadata: process per replica, thread per tenant.
    let mut replicas: Vec<u32> = events.iter().map(|e| e.replica).collect();
    replicas.sort_unstable();
    replicas.dedup();
    for &replica in &replicas {
        out.push(metadata(
            replica as u64,
            None,
            "process_name",
            format!("replica {replica}"),
        ));
        out.push(metadata(
            replica as u64,
            Some(0),
            "thread_name",
            "scheduler".to_string(),
        ));
    }
    for &(replica, tenant) in &timeline.streams {
        out.push(metadata(
            replica as u64,
            Some(tenant_tid(tenant)),
            "thread_name",
            format!("tenant {tenant}"),
        ));
    }

    // Complete slices: each running segment of each request.
    for span in &timeline.spans {
        let (replica, tenant) = timeline.track(span);
        let ts = (span.start * 1e6).round() as u64;
        let end = (span.end * 1e6).round() as u64;
        out.push(obj(vec![
            ("ph", s("X")),
            ("name", s(span.label.clone())),
            ("cat", s("running")),
            ("pid", u(replica as u64)),
            ("tid", u(tenant_tid(tenant))),
            ("ts", u(ts)),
            ("dur", u(end.saturating_sub(ts))),
            ("args", obj(vec![("tenant", u(tenant as u64))])),
        ]));
    }

    // Instants, counters, preempt→restore and prefill→decode flows.
    let mut pending_flow: BTreeMap<u64, (u32, u32, Tick)> = BTreeMap::new();
    let mut pending_handoff: BTreeMap<u64, (u32, u32, Tick)> = BTreeMap::new();
    let mut flow_seq: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        let pid = event.replica as u64;
        match event.kind {
            EventKind::Arrived { request, tenant }
            | EventKind::Enqueued { request, tenant }
            | EventKind::FirstToken { request, tenant }
            | EventKind::Rejected { request, tenant } => {
                out.push(instant(
                    event,
                    tenant_tid(tenant),
                    "t",
                    vec![("request", u(request))],
                ));
            }
            EventKind::ReplicaScaledUp | EventKind::ReplicaScaledDown => {
                out.push(instant(event, 0, "p", Vec::new()));
            }
            EventKind::ReplicaCrashed { lost, checkpointed } => {
                out.push(instant(
                    event,
                    0,
                    "p",
                    vec![
                        ("lost", u(lost as u64)),
                        ("checkpointed", u(checkpointed as u64)),
                    ],
                ));
            }
            EventKind::ReplicaRecovered | EventKind::StragglerEnded => {
                out.push(instant(event, 0, "p", Vec::new()));
            }
            EventKind::StragglerStarted { permille } => {
                out.push(instant(
                    event,
                    0,
                    "p",
                    vec![("slowdown_permille", u(permille as u64))],
                ));
            }
            EventKind::RetryScheduled {
                request,
                tenant,
                attempt,
            } => {
                out.push(instant(
                    event,
                    tenant_tid(tenant),
                    "t",
                    vec![("request", u(request)), ("attempt", u(attempt as u64))],
                ));
            }
            EventKind::RequestShed { request, tenant }
            | EventKind::DeadLettered { request, tenant } => {
                out.push(instant(
                    event,
                    tenant_tid(tenant),
                    "t",
                    vec![("request", u(request))],
                ));
            }
            EventKind::CheckpointLost { request, bytes } => {
                out.push(instant(
                    event,
                    0,
                    "t",
                    vec![("request", u(request)), ("bytes", u(bytes))],
                ));
            }
            EventKind::HandoffEmitted {
                request,
                tenant,
                bytes,
            } => {
                out.push(instant(
                    event,
                    tenant_tid(tenant),
                    "t",
                    vec![("request", u(request)), ("bytes", u(bytes))],
                ));
                pending_handoff.insert(request, (event.replica, tenant, event.tick));
            }
            EventKind::HandoffDelivered {
                request,
                tenant,
                bytes,
            } => {
                out.push(instant(
                    event,
                    tenant_tid(tenant),
                    "t",
                    vec![("request", u(request)), ("bytes", u(bytes))],
                ));
                if let Some((from_replica, from_tenant, from_tick)) =
                    pending_handoff.remove(&request)
                {
                    let seq = flow_seq.entry(request).or_insert(0);
                    let id = request * 16 + *seq;
                    *seq += 1;
                    let flow = |ph: &str, pid: u64, tid: u64, ts: Tick| {
                        let mut fields = vec![
                            ("ph", s(ph)),
                            ("id", u(id)),
                            ("name", s("handoff")),
                            ("cat", s("handoff")),
                            ("pid", u(pid)),
                            ("tid", u(tid)),
                            ("ts", u(ts)),
                        ];
                        if ph == "f" {
                            fields.push(("bp", s("e")));
                        }
                        obj(fields)
                    };
                    out.push(flow(
                        "s",
                        from_replica as u64,
                        tenant_tid(from_tenant),
                        from_tick,
                    ));
                    out.push(flow("f", pid, tenant_tid(tenant), event.tick));
                }
            }
            EventKind::Preempted { request, tenant } => {
                pending_flow.insert(request, (event.replica, tenant, event.tick));
            }
            EventKind::Restored { request, tenant } => {
                if let Some((from_replica, from_tenant, from_tick)) = pending_flow.remove(&request)
                {
                    let seq = flow_seq.entry(request).or_insert(0);
                    let id = request * 16 + *seq;
                    *seq += 1;
                    let flow = |ph: &str, pid: u64, tid: u64, ts: Tick| {
                        let mut fields = vec![
                            ("ph", s(ph)),
                            ("id", u(id)),
                            ("name", s("preempt")),
                            ("cat", s("preempt")),
                            ("pid", u(pid)),
                            ("tid", u(tid)),
                            ("ts", u(ts)),
                        ];
                        if ph == "f" {
                            fields.push(("bp", s("e")));
                        }
                        obj(fields)
                    };
                    out.push(flow(
                        "s",
                        from_replica as u64,
                        tenant_tid(from_tenant),
                        from_tick,
                    ));
                    out.push(flow("f", pid, tenant_tid(tenant), event.tick));
                }
            }
            EventKind::QueueDepth { tenant, depth } => {
                out.push(obj(vec![
                    ("ph", s("C")),
                    ("name", s(format!("queue_depth/t{tenant}"))),
                    ("pid", u(pid)),
                    ("ts", u(event.tick)),
                    ("args", obj(vec![("depth", u(depth))])),
                ]));
            }
            EventKind::RunningBatch { size } => {
                out.push(obj(vec![
                    ("ph", s("C")),
                    ("name", s("running_batch")),
                    ("pid", u(pid)),
                    ("ts", u(event.tick)),
                    ("args", obj(vec![("size", u(size))])),
                ]));
            }
            EventKind::KvOccupancy { used, .. } => {
                out.push(obj(vec![
                    ("ph", s("C")),
                    ("name", s("kv_used_bytes")),
                    ("pid", u(pid)),
                    ("ts", u(event.tick)),
                    ("args", obj(vec![("used", u(used))])),
                ]));
            }
            EventKind::DrrDeficit { tenant, deficit } => {
                out.push(obj(vec![
                    ("ph", s("C")),
                    ("name", s(format!("drr_deficit/t{tenant}"))),
                    ("pid", u(pid)),
                    ("ts", u(event.tick)),
                    ("args", obj(vec![("deficit", u(deficit))])),
                ]));
            }
            _ => {}
        }
    }

    let doc = obj(vec![
        ("traceEvents", Value::Seq(out)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string(&doc).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind as K;

    fn ev(tick: Tick, replica: u32, kind: K) -> Event {
        Event {
            tick,
            replica,
            kind,
        }
    }

    fn lifecycle() -> Vec<Event> {
        vec![
            ev(
                0,
                0,
                K::Enqueued {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                10,
                0,
                K::Admitted {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                20,
                0,
                K::FirstToken {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                30,
                0,
                K::Preempted {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                30,
                0,
                K::CheckpointWritten {
                    request: 1,
                    bytes: 4096,
                },
            ),
            ev(
                50,
                0,
                K::Restored {
                    request: 1,
                    tenant: 0,
                },
            ),
            ev(
                80,
                0,
                K::Completed {
                    request: 1,
                    tenant: 0,
                },
            ),
        ]
    }

    #[test]
    fn spans_cover_running_segments() {
        let timeline = request_spans(&lifecycle());
        assert_eq!(timeline.spans.len(), 2);
        assert_eq!(timeline.streams, vec![(0, 0)]);
        let (a, b) = (&timeline.spans[0], &timeline.spans[1]);
        assert!((a.start - 10e-6).abs() < 1e-12 && (a.end - 30e-6).abs() < 1e-12);
        assert!((b.start - 50e-6).abs() < 1e-12 && (b.end - 80e-6).abs() < 1e-12);
    }

    #[test]
    fn export_is_valid_json_with_flows() {
        let json = export_trace(&lifecycle());
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = match doc.get_field("traceEvents").unwrap() {
            Value::Seq(items) => items.clone(),
            other => panic!("traceEvents not a list: {other:?}"),
        };
        let phase = |e: &Value| match e.get_field("ph") {
            Ok(Value::Str(p)) => p.clone(),
            _ => panic!("event without ph"),
        };
        assert!(events.iter().any(|e| phase(e) == "X"));
        assert!(events.iter().any(|e| phase(e) == "s"));
        assert!(events.iter().any(|e| phase(e) == "f"));
        assert!(events.iter().any(|e| phase(e) == "M"));
    }

    #[test]
    fn handoffs_export_cross_replica_flows() {
        let events = vec![
            ev(
                10,
                0,
                K::HandoffEmitted {
                    request: 9,
                    tenant: 1,
                    bytes: 1 << 20,
                },
            ),
            ev(
                25,
                2,
                K::HandoffDelivered {
                    request: 9,
                    tenant: 1,
                    bytes: 1 << 20,
                },
            ),
        ];
        let json = export_trace(&events);
        assert!(json.contains("\"handoff_emitted\""));
        assert!(json.contains("\"handoff_delivered\""));
        assert!(json.contains("\"cat\":\"handoff\""));
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let items = match doc.get_field("traceEvents").unwrap() {
            Value::Seq(items) => items.clone(),
            other => panic!("traceEvents not a list: {other:?}"),
        };
        let phases: Vec<String> = items
            .iter()
            .filter_map(|e| match e.get_field("ph") {
                Ok(Value::Str(p)) => Some(p.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| *p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|p| *p == "f").count(), 1);
    }

    #[test]
    fn counters_become_counter_events() {
        let events = vec![ev(
            5,
            2,
            K::QueueDepth {
                tenant: 3,
                depth: 7,
            },
        )];
        let json = export_trace(&events);
        assert!(json.contains("\"queue_depth/t3\""));
        assert!(json.contains("\"ph\":\"C\""));
    }
}
