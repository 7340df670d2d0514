//! Request arrival generation behind the streaming [`ArrivalSource`] API.
//!
//! The single-node experiments drive the scheduler closed-loop: a fixed
//! batch of requests, all present from the start. Cluster serving claims
//! only hold up under *open-loop* load — requests keep arriving whether
//! or not the fleet keeps up — and under realistic arrival processes, so
//! this module generates Poisson, bursty (Markov-modulated), diurnal and
//! flash-crowd traffic over the runtime's [`Workload`] shapes, plus
//! closed-loop sessions whose next request departs only after the
//! previous response. Everything draws from a seeded
//! [`SimRng`], so every trace is reproducible bit-for-bit.
//!
//! # The `ArrivalSource` contract
//!
//! Arrivals are *streamed*, never materialized: an [`ArrivalSource`] is a
//! peekable queue of future requests the cluster event loop pulls from
//! one decision at a time, so million-request runs hold O(1) requests in
//! memory. The contract:
//!
//! * [`peek_arrival`](ArrivalSource::peek_arrival) reports the arrival
//!   instant of the next pending request without consuming it;
//!   [`next_request`](ArrivalSource::next_request) consumes it. Emitted
//!   arrival stamps are nondecreasing (closed-loop sources clamp, see
//!   below), which is what lets every consumer — routers, autoscaling,
//!   SLO accounting — process arrivals as one ordered event stream.
//! * A source may answer `peek_arrival() == None` while still expecting
//!   to emit more requests later: a *closed-loop* source
//!   ([`closed_loop`](ArrivalSource::closed_loop) returns `true`) releases
//!   a session's next request only once
//!   [`on_complete`](ArrivalSource::on_complete) observes the previous
//!   response. The cluster event loop keeps stepping replicas and
//!   feeding completions back until the source runs dry.
//! * The eager [`generate`] helper drains a [`GeneratedArrivals`] source,
//!   so the streaming API and the historical `Vec<ClusterRequest>` path
//!   produce byte-identical traces from the same seed (pinned by tests).

use crate::trace::TraceError;
use serde::{Deserialize, Serialize};
use spec_runtime::{CompletedRequest, Request, Workload};
use spec_tensor::SimRng;
use std::collections::BinaryHeap;

/// A cluster-level request: the runtime request plus the session it
/// belongs to (the affinity key routers may exploit).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterRequest {
    /// The underlying serving request.
    pub request: Request,
    /// Session (user/conversation) id; requests of one session share
    /// prefix state, so affinity routing keeps them on one replica.
    pub session: u64,
}

/// The arrival process shaping request inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals: exponential inter-arrival times at
    /// `rate` requests/second.
    Poisson {
        /// Mean arrival rate, requests/second.
        rate: f64,
    },
    /// Markov-modulated on/off Poisson: before each arrival the process
    /// flips between a calm and a burst phase with probability
    /// `switch_prob`, then samples the inter-arrival time at the active
    /// phase's rate. Models flash crowds and diurnal spikes.
    Bursty {
        /// Calm-phase arrival rate, requests/second.
        base_rate: f64,
        /// Burst-phase arrival rate, requests/second.
        burst_rate: f64,
        /// Per-arrival probability of switching phase.
        switch_prob: f32,
    },
    /// Diurnal cycle: a nonhomogeneous Poisson process whose rate swings
    /// sinusoidally between `base_rate` (trough) and `peak_rate` (crest)
    /// with period `period_s` — the multi-hour day/night traffic shape.
    /// Each inter-arrival is sampled at the rate in effect at the
    /// previous arrival (a step-wise approximation that stays exact in
    /// the limit of rates ≫ 1/period).
    Diurnal {
        /// Trough arrival rate, requests/second (rate at t = 0).
        base_rate: f64,
        /// Crest arrival rate, requests/second (rate at t = period/2).
        peak_rate: f64,
        /// Cycle length, seconds.
        period_s: f64,
    },
    /// Flash crowd: steady `base_rate` except for one window
    /// `[start_s, start_s + duration_s)` served at `flash_rate` — the
    /// retweeted-link / product-launch stampede.
    FlashCrowd {
        /// Steady-state arrival rate, requests/second.
        base_rate: f64,
        /// In-window arrival rate, requests/second.
        flash_rate: f64,
        /// Window start, seconds.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
}

/// One tenant class in a multi-tenant mix: who sends, how often
/// relative to the others, and what their requests look like.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantClass {
    /// Tenant id stamped on the generated requests.
    pub tenant: u32,
    /// Mixture weight: the fraction of arrivals billed to this tenant is
    /// `weight / Σ weights`.
    pub weight: usize,
    /// Shape mixture for this tenant's requests (each [`Workload`]'s
    /// `requests` field is its weight within the class). Must be
    /// non-empty.
    pub shapes: Vec<Workload>,
}

impl TenantClass {
    /// Convenience constructor.
    pub fn new(tenant: u32, weight: usize, shapes: Vec<Workload>) -> Self {
        Self {
            tenant,
            weight,
            shapes,
        }
    }
}

/// The default session assignment: one session per four requests — the
/// single helper every constructor and generator shares (it used to be
/// duplicated across three constructors).
fn default_sessions(count: usize) -> usize {
    (count / 4).max(1)
}

/// An open-loop trace generator configuration, built fluently:
///
/// ```
/// use spec_runtime::Workload;
/// use spec_serve::arrivals::TraceConfig;
///
/// let cfg = TraceConfig::poisson(2.0)
///     .shapes(vec![Workload::new(2048, 1024, 1)])
///     .count(64)
///     .seed(7);
/// let trace: Vec<_> = cfg.source().collect();
/// assert_eq!(trace.len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Request-shape mixture; each [`Workload`]'s `requests` field is its
    /// mixture weight (Table-3 shapes reused verbatim have weight equal
    /// to their batch size).
    pub shapes: Vec<Workload>,
    /// Multi-tenant mix. Empty (the default) stamps every request with
    /// tenant 0 and draws shapes from `shapes`, leaving the RNG stream —
    /// and therefore every pre-tenant trace — byte-identical. Non-empty
    /// draws each arrival's tenant class by weight, then its shape from
    /// that class's own mixture (`shapes` above is ignored).
    pub tenants: Vec<TenantClass>,
    /// Number of distinct sessions to spread requests over; `None`
    /// falls back to one session per four requests.
    pub sessions: Option<usize>,
    /// Number of requests to generate.
    pub count: usize,
    /// Seed for [`TraceConfig::source`] (callers that thread their own
    /// [`SimRng`] through [`generate`] / [`TraceConfig::source_with`]
    /// ignore it).
    pub seed: u64,
}

impl TraceConfig {
    /// A config over the given process with everything else defaulted;
    /// chain the builder methods to fill it in.
    pub fn new(process: ArrivalProcess) -> Self {
        Self {
            process,
            shapes: Vec::new(),
            tenants: Vec::new(),
            sessions: None,
            count: 0,
            seed: 0,
        }
    }

    /// Open-loop Poisson arrivals at `rate` requests/second.
    pub fn poisson(rate: f64) -> Self {
        Self::new(ArrivalProcess::Poisson { rate })
    }

    /// Markov-modulated bursty arrivals (see [`ArrivalProcess::Bursty`]).
    pub fn bursty(base_rate: f64, burst_rate: f64, switch_prob: f32) -> Self {
        Self::new(ArrivalProcess::Bursty {
            base_rate,
            burst_rate,
            switch_prob,
        })
    }

    /// Sinusoidal diurnal-cycle arrivals (see [`ArrivalProcess::Diurnal`]).
    pub fn diurnal(base_rate: f64, peak_rate: f64, period_s: f64) -> Self {
        Self::new(ArrivalProcess::Diurnal {
            base_rate,
            peak_rate,
            period_s,
        })
    }

    /// Steady arrivals with one flash-crowd window (see
    /// [`ArrivalProcess::FlashCrowd`]).
    pub fn flash_crowd(base_rate: f64, flash_rate: f64, start_s: f64, duration_s: f64) -> Self {
        Self::new(ArrivalProcess::FlashCrowd {
            base_rate,
            flash_rate,
            start_s,
            duration_s,
        })
    }

    /// Sets the request-shape mixture.
    pub fn shapes(mut self, shapes: Vec<Workload>) -> Self {
        self.shapes = shapes;
        self
    }

    /// Sets the multi-tenant mix (shapes then come from each class).
    pub fn tenants(mut self, tenants: Vec<TenantClass>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Overrides the session count (one per four requests otherwise).
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = Some(sessions);
        self
    }

    /// Sets the number of requests to generate.
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the seed [`TraceConfig::source`] builds its RNG from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The session count in effect: the explicit override or
    /// `default_sessions`.
    fn effective_sessions(&self) -> usize {
        self.sessions
            .unwrap_or_else(|| default_sessions(self.count))
    }

    /// A streaming source over this config, seeded from `self.seed`.
    pub fn source(&self) -> GeneratedArrivals {
        self.source_with(SimRng::seed(self.seed))
    }

    /// A streaming source over this config drawing from an explicit RNG
    /// (continuing whatever stream the caller owns).
    fn source_with(&self, rng: SimRng) -> GeneratedArrivals {
        GeneratedArrivals::new(self.clone(), rng)
    }
}

/// A streaming, peekable queue of future requests: the arrivals API the
/// cluster event loop consumes (see the [module docs](self) for the
/// contract).
pub trait ArrivalSource {
    /// Arrival instant of the next pending request, or `None` when no
    /// request is currently pending (which for a
    /// [closed-loop](ArrivalSource::closed_loop) source may mean
    /// "waiting on a completion", not "exhausted").
    fn peek_arrival(&mut self) -> Option<f64>;

    /// Consumes and returns the next pending request.
    fn next_request(&mut self) -> Option<ClusterRequest>;

    /// Observes a completion. Closed-loop sources use this to release
    /// the session's next request after think time; open-loop sources
    /// ignore it (and the cluster skips the calls entirely).
    fn on_complete(&mut self, _done: &CompletedRequest) {}

    /// Observes a rejection (a request the fleet can never admit).
    /// Closed-loop sources end the session — a user whose request was
    /// refused does not keep typing follow-ups.
    fn on_reject(&mut self, _req: &Request) {}

    /// Whether [`on_complete`](ArrivalSource::on_complete) can release
    /// new arrivals. Drives the cluster's fine-grained event loop;
    /// `false` (the default) lets it batch replica advancement exactly
    /// like the historical trace walk.
    fn closed_loop(&self) -> bool {
        false
    }

    /// Requests still to come, when the source knows.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Streaming generator over a [`TraceConfig`]: Poisson / bursty /
/// diurnal / flash-crowd arrivals, optionally multi-tenant. Produces the
/// byte-identical request stream (same RNG draw order) as the eager
/// [`generate`] helper.
#[derive(Debug, Clone)]
pub struct GeneratedArrivals {
    cfg: TraceConfig,
    rng: SimRng,
    tenant_weights: Vec<usize>,
    tenant_total: usize,
    base_table: (Vec<usize>, usize),
    class_tables: Vec<(Vec<usize>, usize)>,
    sessions: usize,
    t: f64,
    in_burst: bool,
    generated: usize,
    lookahead: Option<ClusterRequest>,
}

impl GeneratedArrivals {
    /// Builds the source; draws nothing until first peeked/pulled.
    ///
    /// # Panics
    ///
    /// Panics if the shape mixture is empty (`shapes` when `tenants` is
    /// empty, any class's `shapes` otherwise), if a tenant mix has zero
    /// total weight, or if any rate is non-positive.
    fn new(cfg: TraceConfig, rng: SimRng) -> Self {
        if cfg.tenants.is_empty() {
            assert!(!cfg.shapes.is_empty(), "no request shapes");
        } else {
            assert!(
                cfg.tenants.iter().all(|c| !c.shapes.is_empty()),
                "every tenant class needs request shapes"
            );
            assert!(
                cfg.tenants.iter().map(|c| c.weight).sum::<usize>() > 0,
                "tenant mix has zero total weight"
            );
        }
        match cfg.process {
            ArrivalProcess::Poisson { rate } => assert!(rate > 0.0, "rate must be positive"),
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                ..
            } => assert!(
                base_rate > 0.0 && burst_rate > 0.0,
                "rates must be positive"
            ),
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => assert!(
                base_rate > 0.0 && peak_rate > 0.0 && period_s > 0.0,
                "rates and period must be positive"
            ),
            ArrivalProcess::FlashCrowd {
                base_rate,
                flash_rate,
                duration_s,
                ..
            } => assert!(
                base_rate > 0.0 && flash_rate > 0.0 && duration_s >= 0.0,
                "rates must be positive"
            ),
        }
        let tenant_weights: Vec<usize> = cfg.tenants.iter().map(|c| c.weight).collect();
        let tenant_total: usize = tenant_weights.iter().sum();
        // Shape mixtures are fixed per class, so hoist the weight tables
        // out of the per-request path.
        let shape_table = |shapes: &[Workload]| -> (Vec<usize>, usize) {
            let w: Vec<usize> = shapes.iter().map(|x| x.requests.max(1)).collect();
            let total = w.iter().sum();
            (w, total)
        };
        let base_table = shape_table(&cfg.shapes);
        let class_tables: Vec<(Vec<usize>, usize)> =
            cfg.tenants.iter().map(|c| shape_table(&c.shapes)).collect();
        let sessions = cfg.effective_sessions().max(1);
        Self {
            cfg,
            rng,
            tenant_weights,
            tenant_total,
            base_table,
            class_tables,
            sessions,
            t: 0.0,
            in_burst: false,
            generated: 0,
            lookahead: None,
        }
    }

    /// Consumes the source, returning the RNG so a caller-threaded
    /// stream continues exactly where generation left off.
    fn into_rng(self) -> SimRng {
        self.rng
    }

    /// The rate in effect for the next inter-arrival draw. Bursty phase
    /// switching draws from the RNG, exactly as the historical eager
    /// generator did (one `chance` per arrival, before the exponential).
    fn next_rate(&mut self) -> f64 {
        match self.cfg.process {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                switch_prob,
            } => {
                if self.rng.chance(switch_prob) {
                    self.in_burst = !self.in_burst;
                }
                if self.in_burst {
                    burst_rate
                } else {
                    base_rate
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => {
                let phase = std::f64::consts::TAU * self.t / period_s;
                base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalProcess::FlashCrowd {
                base_rate,
                flash_rate,
                start_s,
                duration_s,
            } => {
                if self.t >= start_s && self.t < start_s + duration_s {
                    flash_rate
                } else {
                    base_rate
                }
            }
        }
    }

    fn fill_lookahead(&mut self) {
        if self.lookahead.is_some() || self.generated >= self.cfg.count {
            return;
        }
        let id = self.generated;
        let rate = self.next_rate();
        // Inverse-CDF exponential sample; uniform() is in [0, 1), so the
        // argument of ln is in (0, 1] and dt is finite.
        let u = self.rng.uniform() as f64;
        self.t += -(1.0 - u).ln() / rate;
        // The class draw only happens for tenanted configs, so
        // tenant-free traces keep their historical RNG stream.
        let (tenant, shapes, table) = if self.cfg.tenants.is_empty() {
            (0u32, self.cfg.shapes.as_slice(), &self.base_table)
        } else {
            let i = weighted_pick(&mut self.rng, &self.tenant_weights, self.tenant_total);
            (
                self.cfg.tenants[i].tenant,
                self.cfg.tenants[i].shapes.as_slice(),
                &self.class_tables[i],
            )
        };
        let shape = shapes[weighted_pick(&mut self.rng, &table.0, table.1)];
        let session = self.rng.below(self.sessions) as u64;
        self.generated += 1;
        self.lookahead = Some(ClusterRequest {
            request: Request::with_shape(id, tenant, &shape, self.t),
            session,
        });
    }
}

impl ArrivalSource for GeneratedArrivals {
    fn peek_arrival(&mut self) -> Option<f64> {
        self.fill_lookahead();
        self.lookahead.map(|cr| cr.request.arrival)
    }

    fn next_request(&mut self) -> Option<ClusterRequest> {
        self.fill_lookahead();
        self.lookahead.take()
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.cfg.count - self.generated + usize::from(self.lookahead.is_some()))
    }
}

impl Iterator for GeneratedArrivals {
    type Item = ClusterRequest;

    fn next(&mut self) -> Option<ClusterRequest> {
        self.next_request()
    }
}

/// An [`ArrivalSource`] view over a pre-materialized, arrival-sorted
/// slice — the adapter that keeps `Cluster::run(&[ClusterRequest])`
/// running through the same streaming event loop as everything else.
#[derive(Debug)]
pub struct SliceSource<'a> {
    items: &'a [ClusterRequest],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps a sorted slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not sorted by arrival time.
    pub fn new(items: &'a [ClusterRequest]) -> Self {
        assert!(
            items
                .windows(2)
                .all(|w| w[0].request.arrival <= w[1].request.arrival),
            "trace must be sorted by arrival"
        );
        Self { items, pos: 0 }
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn peek_arrival(&mut self) -> Option<f64> {
        self.items.get(self.pos).map(|cr| cr.request.arrival)
    }

    fn next_request(&mut self) -> Option<ClusterRequest> {
        let cr = self.items.get(self.pos).copied();
        self.pos += cr.is_some() as usize;
        cr
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.items.len() - self.pos)
    }
}

/// Closed-loop session driving: `sessions` users each issue `turns`
/// requests, and a user's next request departs only `think_time_s`
/// (exponentially distributed) after their previous response finished.
/// Built fluently like [`TraceConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// Concurrent user sessions.
    pub sessions: usize,
    /// Requests per session.
    pub turns: usize,
    /// Mean think time between a response and the session's next
    /// request, seconds (exponentially distributed; 0 pipelines turns
    /// back to back).
    pub think_time_s: f64,
    /// Request-shape mixture (weights as in [`TraceConfig::shapes`]).
    pub shapes: Vec<Workload>,
    /// Multi-tenant mix; each session is billed to one class drawn by
    /// weight at start (empty = all tenant 0, shapes from `shapes`).
    pub tenants: Vec<TenantClass>,
    /// First-turn departures spread uniformly over `[0, ramp_s)`;
    /// 0 starts every session at t = 0.
    pub ramp_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ClosedLoopConfig {
    /// `sessions` users of `turns` requests each; chain the builders.
    pub fn new(sessions: usize, turns: usize) -> Self {
        Self {
            sessions,
            turns,
            think_time_s: 0.0,
            shapes: Vec::new(),
            tenants: Vec::new(),
            ramp_s: 0.0,
            seed: 0,
        }
    }

    /// Sets the mean think time, seconds.
    pub fn think(mut self, think_time_s: f64) -> Self {
        self.think_time_s = think_time_s;
        self
    }

    /// Sets the request-shape mixture.
    pub fn shapes(mut self, shapes: Vec<Workload>) -> Self {
        self.shapes = shapes;
        self
    }

    /// Sets the multi-tenant mix (one class drawn per session).
    pub fn tenants(mut self, tenants: Vec<TenantClass>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Spreads first-turn departures over `[0, ramp_s)`.
    pub fn ramp(mut self, ramp_s: f64) -> Self {
        self.ramp_s = ramp_s;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the closed-loop source.
    pub fn source(&self) -> ClosedLoopSource {
        ClosedLoopSource::new(self.clone())
    }
}

/// A session ready to depart: ordered by (arrival, session) in the ready
/// heap. Arrival times are non-negative, so their IEEE-754 bit patterns
/// order exactly like the floats and give us a total order for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadySession {
    arrival_bits: u64,
    session: u64,
}

/// The closed-loop [`ArrivalSource`]: a ready-heap of sessions whose
/// next departure instant is known, plus in-flight requests whose
/// completion will schedule the follow-up turn.
///
/// Emitted arrival stamps are clamped to be nondecreasing: when a
/// lagging replica's completion releases a turn whose departure instant
/// precedes an arrival the cluster already routed, the turn enters the
/// event stream at the later instant (rare, because the cluster's
/// closed-loop event path interleaves replica micro-steps with
/// completion feedback).
#[derive(Debug, Clone)]
pub struct ClosedLoopSource {
    cfg: ClosedLoopConfig,
    rng: SimRng,
    ready: BinaryHeap<std::cmp::Reverse<ReadySession>>,
    /// Request id → session, for routing completions back.
    in_flight: std::collections::HashMap<usize, u64>,
    /// Turns left per session (including any in-flight one).
    remaining: Vec<usize>,
    session_tenant: Vec<u32>,
    class_tables: Vec<(Vec<usize>, usize)>,
    base_table: (Vec<usize>, usize),
    last_emitted: f64,
    next_id: usize,
    aborted_sessions: usize,
}

impl ClosedLoopSource {
    /// Builds the source and schedules every session's first departure.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` or `turns` is 0, the active shape mixture is
    /// empty, or `think_time_s`/`ramp_s` is negative.
    fn new(cfg: ClosedLoopConfig) -> Self {
        assert!(cfg.sessions > 0, "closed loop needs at least one session");
        assert!(cfg.turns > 0, "closed loop needs at least one turn");
        assert!(
            cfg.think_time_s >= 0.0 && cfg.ramp_s >= 0.0,
            "times must be non-negative"
        );
        if cfg.tenants.is_empty() {
            assert!(!cfg.shapes.is_empty(), "no request shapes");
        } else {
            assert!(
                cfg.tenants.iter().all(|c| !c.shapes.is_empty()),
                "every tenant class needs request shapes"
            );
            assert!(
                cfg.tenants.iter().map(|c| c.weight).sum::<usize>() > 0,
                "tenant mix has zero total weight"
            );
        }
        let mut rng = SimRng::seed(cfg.seed);
        let shape_table = |shapes: &[Workload]| -> (Vec<usize>, usize) {
            let w: Vec<usize> = shapes.iter().map(|x| x.requests.max(1)).collect();
            let total = w.iter().sum();
            (w, total)
        };
        let base_table = shape_table(&cfg.shapes);
        let class_tables: Vec<(Vec<usize>, usize)> =
            cfg.tenants.iter().map(|c| shape_table(&c.shapes)).collect();
        let tenant_weights: Vec<usize> = cfg.tenants.iter().map(|c| c.weight).collect();
        let tenant_total: usize = tenant_weights.iter().sum();
        let mut ready = BinaryHeap::with_capacity(cfg.sessions);
        let mut session_tenant = Vec::with_capacity(cfg.sessions);
        for s in 0..cfg.sessions {
            let class = if cfg.tenants.is_empty() {
                u32::MAX // sentinel: draw from the base mixture
            } else {
                weighted_pick(&mut rng, &tenant_weights, tenant_total) as u32
            };
            session_tenant.push(class);
            let depart = if cfg.ramp_s > 0.0 {
                self::ramp_sample(&mut rng, cfg.ramp_s)
            } else {
                0.0
            };
            ready.push(std::cmp::Reverse(ReadySession {
                arrival_bits: depart.to_bits(),
                session: s as u64,
            }));
        }
        let remaining = vec![cfg.turns; cfg.sessions];
        Self {
            cfg,
            rng,
            ready,
            in_flight: std::collections::HashMap::new(),
            remaining,
            session_tenant,
            class_tables,
            base_table,
            last_emitted: 0.0,
            next_id: 0,
            aborted_sessions: 0,
        }
    }

    /// Sessions ended early because a request was rejected.
    pub fn aborted_sessions(&self) -> usize {
        self.aborted_sessions
    }

    fn shape_for(&mut self, session: usize) -> (u32, Workload) {
        let class = self.session_tenant[session];
        if class == u32::MAX {
            let i = weighted_pick(&mut self.rng, &self.base_table.0, self.base_table.1);
            (0, self.cfg.shapes[i])
        } else {
            let table = &self.class_tables[class as usize];
            let i = weighted_pick(&mut self.rng, &table.0, table.1);
            let c = &self.cfg.tenants[class as usize];
            (c.tenant, c.shapes[i])
        }
    }
}

/// Uniform sample in `[0, hi)` in f64 (kept out of the impl so the
/// constructor can call it while `ready` is partially built).
fn ramp_sample(rng: &mut SimRng, hi: f64) -> f64 {
    rng.uniform() as f64 * hi
}

impl ArrivalSource for ClosedLoopSource {
    fn peek_arrival(&mut self) -> Option<f64> {
        self.ready
            .peek()
            .map(|r| f64::from_bits(r.0.arrival_bits).max(self.last_emitted))
    }

    fn next_request(&mut self) -> Option<ClusterRequest> {
        let std::cmp::Reverse(ready) = self.ready.pop()?;
        let session = ready.session as usize;
        let scheduled = f64::from_bits(ready.arrival_bits);
        let arrival = if scheduled < self.last_emitted {
            self.last_emitted
        } else {
            scheduled
        };
        self.last_emitted = arrival;
        let (tenant, shape) = self.shape_for(session);
        let id = self.next_id;
        self.next_id += 1;
        self.remaining[session] -= 1;
        self.in_flight.insert(id, ready.session);
        Some(ClusterRequest {
            request: Request::with_shape(id, tenant, &shape, arrival),
            session: ready.session,
        })
    }

    fn on_complete(&mut self, done: &CompletedRequest) {
        let Some(session) = self.in_flight.remove(&done.request.id) else {
            return;
        };
        if self.remaining[session as usize] == 0 {
            return;
        }
        let think = if self.cfg.think_time_s > 0.0 {
            let u = self.rng.uniform() as f64;
            -(1.0 - u).ln() * self.cfg.think_time_s
        } else {
            0.0
        };
        self.ready.push(std::cmp::Reverse(ReadySession {
            arrival_bits: (done.finish + think).to_bits(),
            session,
        }));
    }

    fn on_reject(&mut self, req: &Request) {
        if let Some(session) = self.in_flight.remove(&req.id) {
            if self.remaining[session as usize] > 0 {
                self.remaining[session as usize] = 0;
                self.aborted_sessions += 1;
            }
        }
    }

    fn closed_loop(&self) -> bool {
        true
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.remaining.iter().sum())
    }
}

/// Generates a trace sorted by arrival time, ids `0..count`, by draining
/// a [`GeneratedArrivals`] source (the streaming and eager paths share
/// one implementation, so they are byte-identical by construction).
///
/// # Panics
///
/// Panics on the invalid configs a [`GeneratedArrivals`] source rejects.
pub fn generate(cfg: &TraceConfig, rng: &mut SimRng) -> Vec<ClusterRequest> {
    let mut source = GeneratedArrivals::new(cfg.clone(), rng.clone());
    let mut out = Vec::with_capacity(cfg.count);
    while let Some(cr) = source.next_request() {
        out.push(cr);
    }
    *rng = source.into_rng();
    out
}

/// One weighted index draw: the standard cumulative-weight walk.
fn weighted_pick(rng: &mut SimRng, weights: &[usize], total: usize) -> usize {
    let mut pick = rng.below(total);
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

/// Builds a trace from explicit `(arrival, input_len, output_len)`
/// tuples (replaying a measured workload); each request is its own
/// session. Returns [`TraceError::Unsorted`] when arrivals are not
/// nondecreasing (it used to panic).
pub fn from_trace(items: &[(f64, usize, usize)]) -> Result<Vec<ClusterRequest>, TraceError> {
    if let Some(i) = items.windows(2).position(|w| w[0].0 > w[1].0) {
        return Err(TraceError::Unsorted { index: i + 1 });
    }
    Ok(items
        .iter()
        .enumerate()
        .map(|(id, &(arrival, input_len, output_len))| ClusterRequest {
            request: Request::new(id, 0, input_len, output_len, arrival),
            session: id as u64,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Workload> {
        vec![Workload::new(2048, 1024, 3), Workload::new(8192, 512, 1)]
    }

    fn poisson_cfg(rate: f64, count: usize) -> TraceConfig {
        TraceConfig::poisson(rate).shapes(shapes()).count(count)
    }

    #[test]
    fn poisson_trace_is_sorted_and_deterministic() {
        let cfg = poisson_cfg(2.0, 64);
        let a = generate(&cfg, &mut SimRng::seed(1));
        let b = generate(&cfg, &mut SimRng::seed(1));
        assert_eq!(a, b);
        assert!(a
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
        assert_eq!(a.len(), 64);
        assert!(a.iter().enumerate().all(|(i, r)| r.request.id == i));
    }

    #[test]
    fn streaming_source_matches_eager_generate() {
        let cfg = TraceConfig::bursty(0.5, 20.0, 0.05)
            .shapes(shapes())
            .count(200)
            .seed(31);
        let eager = generate(&cfg, &mut SimRng::seed(31));
        let streamed: Vec<ClusterRequest> = cfg.source().collect();
        assert_eq!(eager, streamed);
        // The RNG the eager path hands back matches a drained streaming
        // source's final state (no hidden extra draws).
        let mut rng = SimRng::seed(31);
        generate(&cfg, &mut rng);
        let mut src = cfg.source();
        while src.next_request().is_some() {}
        let mut src_rng = src.into_rng();
        assert_eq!(rng.uniform(), src_rng.uniform());
    }

    #[test]
    fn peek_does_not_consume() {
        let cfg = poisson_cfg(2.0, 4);
        let mut src = cfg.source();
        let t0 = src.peek_arrival().unwrap();
        assert_eq!(src.peek_arrival().unwrap(), t0);
        let first = src.next_request().unwrap();
        assert_eq!(first.request.arrival, t0);
        assert_eq!(src.remaining_hint(), Some(3));
        let mut n = 0;
        while src.next_request().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(src.peek_arrival(), None);
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let trace = generate(&poisson_cfg(4.0, 2000), &mut SimRng::seed(9));
        let span = trace.last().unwrap().request.arrival;
        let rate = trace.len() as f64 / span;
        assert!((rate - 4.0).abs() < 0.5, "empirical rate {rate}");
    }

    #[test]
    fn shape_mixture_follows_weights() {
        let trace = generate(&poisson_cfg(1.0, 4000), &mut SimRng::seed(3));
        let long = trace.iter().filter(|r| r.request.input_len == 8192).count();
        let frac = long as f64 / trace.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "8k fraction {frac}");
    }

    #[test]
    fn bursty_interarrivals_are_more_variable_than_poisson() {
        let n = 4000;
        let poisson = generate(&poisson_cfg(2.0, n), &mut SimRng::seed(5));
        let bursty = generate(
            &TraceConfig::bursty(0.5, 20.0, 0.05)
                .shapes(shapes())
                .count(n),
            &mut SimRng::seed(5),
        );
        let cv2 = |trace: &[ClusterRequest]| {
            let dts: Vec<f64> = trace
                .windows(2)
                .map(|w| w[1].request.arrival - w[0].request.arrival)
                .collect();
            let mean = dts.iter().sum::<f64>() / dts.len() as f64;
            let var = dts.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dts.len() as f64;
            var / (mean * mean)
        };
        assert!(
            cv2(&bursty) > 1.5 * cv2(&poisson),
            "bursty CV² {} vs poisson {}",
            cv2(&bursty),
            cv2(&poisson)
        );
    }

    #[test]
    fn diurnal_rate_swings_with_the_cycle() {
        // One full day-cycle: the crest half must hold far more arrivals
        // than the trough half.
        let period = 1000.0;
        let cfg = TraceConfig::diurnal(0.5, 20.0, period)
            .shapes(shapes())
            .count(6000);
        let trace = generate(&cfg, &mut SimRng::seed(77));
        let in_crest = trace
            .iter()
            .filter(|r| {
                let phase = (r.request.arrival % period) / period;
                (0.25..0.75).contains(&phase)
            })
            .count();
        let frac = in_crest as f64 / trace.len() as f64;
        assert!(frac > 0.75, "crest fraction {frac}");
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        // The rate is sampled at the previous arrival, so entering the
        // window lags by one base-rate inter-arrival (mean 2 s here) —
        // use a window comfortably wider than that lag.
        let cfg = TraceConfig::flash_crowd(0.5, 50.0, 10.0, 10.0)
            .shapes(shapes())
            .count(400);
        let trace = generate(&cfg, &mut SimRng::seed(13));
        let in_window = trace
            .iter()
            .filter(|r| (10.0..20.0).contains(&r.request.arrival))
            .count();
        let frac = in_window as f64 / trace.len() as f64;
        assert!(frac > 0.5, "flash-window fraction {frac}");
    }

    #[test]
    fn trace_replay_keeps_ordering_and_shapes() {
        let trace = from_trace(&[(0.0, 100, 10), (1.5, 200, 20), (1.5, 300, 30)]).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[1].request.input_len, 200);
        assert_eq!(trace[2].request.arrival, 1.5);
    }

    #[test]
    fn unsorted_trace_is_an_error_not_a_panic() {
        let err = from_trace(&[(1.0, 100, 10), (0.5, 100, 10)]).unwrap_err();
        assert_eq!(err, TraceError::Unsorted { index: 1 });
        assert!(err.to_string().contains("sorted"));
    }

    #[test]
    fn tenant_free_configs_stamp_tenant_zero() {
        let trace = generate(&poisson_cfg(2.0, 32), &mut SimRng::seed(4));
        assert!(trace.iter().all(|r| r.request.tenant == 0));
    }

    #[test]
    fn sessions_default_to_one_per_four_requests() {
        assert_eq!(default_sessions(64), 16);
        assert_eq!(default_sessions(3), 1);
        assert_eq!(default_sessions(0), 1);
        assert_eq!(poisson_cfg(1.0, 64).effective_sessions(), 16);
        assert_eq!(poisson_cfg(1.0, 64).sessions(5).effective_sessions(), 5);
        let trace = generate(&poisson_cfg(2.0, 400), &mut SimRng::seed(6));
        assert!(trace.iter().all(|r| r.session < 100));
    }

    #[test]
    fn tenant_mix_follows_class_weights_and_shapes() {
        let classes = vec![
            TenantClass::new(0, 3, vec![Workload::new(512, 128, 1)]),
            TenantClass::new(1, 1, vec![Workload::new(2048, 8192, 1)]),
        ];
        let cfg = TraceConfig::poisson(2.0).tenants(classes).count(4000);
        let trace = generate(&cfg, &mut SimRng::seed(21));
        let t0 = trace.iter().filter(|r| r.request.tenant == 0).count();
        let frac = t0 as f64 / trace.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "tenant-0 fraction {frac}");
        for r in &trace {
            match r.request.tenant {
                0 => assert_eq!(r.request.input_len, 512),
                1 => assert_eq!(r.request.output_len, 8192),
                t => panic!("unexpected tenant {t}"),
            }
        }
    }

    #[test]
    fn tenanted_and_plain_traces_share_arrival_times() {
        // The tenant draw must not perturb the arrival process itself for
        // the plain config (gated draws), and the tenanted config's
        // arrivals are deterministic per seed.
        let plain = generate(&poisson_cfg(2.0, 16), &mut SimRng::seed(8));
        let plain2 = generate(&poisson_cfg(2.0, 16), &mut SimRng::seed(8));
        assert_eq!(plain, plain2);
        let classes = vec![TenantClass::new(7, 1, shapes())];
        let ten_cfg = TraceConfig::poisson(2.0).tenants(classes).count(16);
        let ten = generate(&ten_cfg, &mut SimRng::seed(8));
        let ten2 = generate(&ten_cfg, &mut SimRng::seed(8));
        assert_eq!(ten, ten2);
        assert!(ten.iter().all(|r| r.request.tenant == 7));
    }

    #[test]
    fn closed_loop_waits_for_completions() {
        let cfg = ClosedLoopConfig::new(2, 3).think(1.0).shapes(shapes());
        let mut src = cfg.source();
        assert_eq!(src.remaining_hint(), Some(6));
        assert!(src.closed_loop());
        // Both sessions' first turns are ready at t=0; the follow-ups are
        // not released until completions arrive.
        let a = src.next_request().unwrap();
        let b = src.next_request().unwrap();
        assert_ne!(a.session, b.session);
        assert_eq!(src.peek_arrival(), None);
        assert_eq!(src.remaining_hint(), Some(4));
        let done = CompletedRequest {
            request: a.request,
            start: 1.0,
            first_token: 1.2,
            finish: 5.0,
            preemptions: 0,
        };
        src.on_complete(&done);
        let t = src.peek_arrival().expect("turn released");
        assert!(t >= 5.0, "next turn departs after finish + think, got {t}");
        let follow = src.next_request().unwrap();
        assert_eq!(follow.session, a.session);
    }

    #[test]
    fn closed_loop_emission_is_nondecreasing_and_deterministic() {
        let cfg = ClosedLoopConfig::new(4, 2)
            .think(0.5)
            .ramp(2.0)
            .shapes(shapes())
            .seed(3);
        let drive = || {
            let mut src = cfg.source();
            let mut out = Vec::new();
            while let Some(cr) = src.next_request() {
                // Complete immediately with a fixed latency so every turn
                // unlocks; emulates a trivially fast cluster.
                let done = CompletedRequest {
                    request: cr.request,
                    start: cr.request.arrival,
                    first_token: cr.request.arrival + 0.1,
                    finish: cr.request.arrival + 0.2,
                    preemptions: 0,
                };
                out.push(cr);
                src.on_complete(&done);
            }
            out
        };
        let a = drive();
        let b = drive();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a
            .windows(2)
            .all(|w| w[0].request.arrival <= w[1].request.arrival));
    }

    #[test]
    fn closed_loop_rejection_ends_the_session() {
        let cfg = ClosedLoopConfig::new(1, 5).shapes(shapes());
        let mut src = cfg.source();
        let first = src.next_request().unwrap();
        src.on_reject(&first.request);
        assert_eq!(src.aborted_sessions(), 1);
        assert_eq!(src.remaining_hint(), Some(0));
        assert_eq!(src.peek_arrival(), None);
        assert!(src.next_request().is_none());
    }
}
