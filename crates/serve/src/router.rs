//! Pluggable request-routing policies.
//!
//! Routing is the cluster's first scheduling decision and deserves a
//! first-class, swappable abstraction (the lesson of the ASP scheduling
//! line of work): the same fleet under the same load behaves very
//! differently depending on whether requests chase empty queues, low KV
//! pressure, or session locality. Policies are deterministic — ties break
//! by replica index — so whole cluster runs replay bit-for-bit.

use crate::arrivals::ClusterRequest;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One replica's fault-facing condition, as routers see it. Only
/// [`Healthy`](ReplicaHealth::Healthy) replicas are routable under
/// health-aware routing; the cluster folds the others out of the
/// candidate set by clearing their snapshot's `active` flag, so every
/// existing policy ejects them without knowing about faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaHealth {
    /// Up, full speed, past any probation.
    #[default]
    Healthy,
    /// Up but running slowed (transient straggler window).
    Straggling,
    /// Recently restarted; not yet re-admitted to candidate sets.
    Probation,
    /// Crashed and awaiting restart.
    Down,
}

impl ReplicaHealth {
    /// Whether a health-aware router may send work here.
    pub fn routable(self) -> bool {
        self == ReplicaHealth::Healthy
    }
}

/// What a router sees of one replica at routing time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// Replica index in fleet order.
    pub index: usize,
    /// Whether the replica currently accepts new requests (autoscaling
    /// may park replicas).
    pub active: bool,
    /// Requests waiting for admission.
    pub queued: usize,
    /// Requests currently decoding.
    pub running: usize,
    /// Committed KV demand relative to the replica's KV capacity
    /// (`>1` means the backlog already exceeds GPU memory); accounts for
    /// device heterogeneity, unlike raw queue depth.
    pub kv_pressure: f64,
    /// Fault-facing condition. Informational for policies (the cluster
    /// already folds unhealthy replicas out of `active` when routing is
    /// health-aware); serialized snapshots keep it for dashboards.
    pub health: ReplicaHealth,
}

impl ReplicaSnapshot {
    /// Queued + running requests.
    fn outstanding(&self) -> usize {
        self.queued + self.running
    }
}

/// A routing policy: picks the replica for each arriving request.
pub trait RoutePolicy {
    /// Policy name (report labels).
    fn name(&self) -> &'static str;

    /// Picks a replica index for `req`. `replicas` is the whole fleet in
    /// index order and contains at least one active replica; the chosen
    /// index must refer to an active one.
    fn route(&mut self, req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize;
}

/// The all-parked fallback: the least-index replica. Every policy
/// degrades to this instead of panicking when autoscaling (or a caller
/// driving snapshots by hand) leaves no replica active.
fn least_index(replicas: &[ReplicaSnapshot]) -> usize {
    replicas.iter().map(|r| r.index).min().unwrap_or(0)
}

fn least_outstanding(replicas: &[ReplicaSnapshot]) -> usize {
    replicas
        .iter()
        .filter(|r| r.active)
        .min_by_key(|r| (r.outstanding(), r.index))
        .map_or_else(|| least_index(replicas), |r| r.index)
}

/// Cycles through active replicas in index order.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        RouterKind::RoundRobin.name()
    }

    fn route(&mut self, _req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize {
        let active: Vec<usize> = replicas
            .iter()
            .filter(|r| r.active)
            .map(|r| r.index)
            .collect();
        if active.is_empty() {
            // A fully parked fleet (min_replicas would have to be 0 and
            // every replica scaled down) must not divide by zero; fall
            // back to the least-index replica without moving the cursor.
            return least_index(replicas);
        }
        let idx = active[self.cursor % active.len()];
        self.cursor += 1;
        idx
    }
}

/// Joins the shortest queue: fewest queued + running requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstanding;

impl RoutePolicy for LeastOutstanding {
    fn name(&self) -> &'static str {
        RouterKind::LeastOutstanding.name()
    }

    fn route(&mut self, _req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize {
        least_outstanding(replicas)
    }
}

/// Joins the replica with the lowest committed KV demand relative to its
/// capacity — the load signal that stays meaningful on heterogeneous
/// fleets, where an A100 replica absorbs far more backlog than a 4090.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastKvPressure;

impl RoutePolicy for LeastKvPressure {
    fn name(&self) -> &'static str {
        RouterKind::LeastKvPressure.name()
    }

    fn route(&mut self, _req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize {
        replicas
            .iter()
            .filter(|r| r.active)
            .min_by(|a, b| {
                a.kv_pressure
                    .partial_cmp(&b.kv_pressure)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.index.cmp(&b.index))
            })
            .map_or_else(|| least_index(replicas), |r| r.index)
    }
}

/// Pins each session to one replica (prefix/KV locality), falling back
/// to least-outstanding for new sessions or parked targets.
#[derive(Debug, Clone, Default)]
pub struct SessionAffinity {
    pinned: HashMap<u64, usize>,
}

impl RoutePolicy for SessionAffinity {
    fn name(&self) -> &'static str {
        RouterKind::SessionAffinity.name()
    }

    fn route(&mut self, req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize {
        if let Some(&idx) = self.pinned.get(&req.session) {
            if replicas.get(idx).is_some_and(|r| r.active) {
                return idx;
            }
        }
        let idx = least_outstanding(replicas);
        self.pinned.insert(req.session, idx);
        idx
    }
}

/// Partitions the active fleet among tenants in proportion to their
/// weights, then joins the least-outstanding replica inside the tenant's
/// partition — noisy-neighbour isolation at the routing layer: a batch
/// tenant's backlog piles onto its own slice of the fleet instead of
/// every queue.
///
/// The partition is recomputed per decision from the tenants seen so far
/// (sorted by id, contiguous slices of the active list, largest-weight
/// shares first by cumulative rounding), so it adapts as autoscaling
/// parks and wakes replicas. A tenant whose share rounds to zero
/// replicas falls back to the global least-outstanding pick.
#[derive(Debug, Clone, Default)]
pub struct WeightedTenant {
    /// `(tenant, weight)` pairs; unlisted tenants weigh 1.
    weights: Vec<(u32, u32)>,
    seen: std::collections::BTreeSet<u32>,
}

impl WeightedTenant {
    /// A policy with explicit tenant weights (unlisted tenants weigh 1).
    pub fn with_weights(weights: Vec<(u32, u32)>) -> Self {
        Self {
            weights,
            seen: std::collections::BTreeSet::new(),
        }
    }

    fn weight(&self, tenant: u32) -> u64 {
        self.weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|&(_, w)| w.max(1) as u64)
            .unwrap_or(1)
    }
}

impl RoutePolicy for WeightedTenant {
    fn name(&self) -> &'static str {
        RouterKind::WeightedTenant.name()
    }

    fn route(&mut self, req: &ClusterRequest, replicas: &[ReplicaSnapshot]) -> usize {
        self.seen.insert(req.request.tenant);
        let active: Vec<ReplicaSnapshot> = replicas.iter().filter(|r| r.active).copied().collect();
        if active.is_empty() {
            return least_index(replicas);
        }
        // Cumulative-weight slice boundaries over the active list.
        let total: u64 = self.seen.iter().map(|&t| self.weight(t)).sum();
        let n = active.len() as u64;
        let mut cum = 0u64;
        let mut slice: Option<(usize, usize)> = None;
        for &t in &self.seen {
            let start = (cum * n / total) as usize;
            cum += self.weight(t);
            let end = (cum * n / total) as usize;
            if t == req.request.tenant {
                slice = Some((start, end));
                break;
            }
        }
        let (start, end) = slice.expect("tenant was just inserted");
        if start >= end {
            // Share rounded to zero replicas: fall back fleet-wide.
            return least_outstanding(replicas);
        }
        active[start..end]
            .iter()
            .min_by_key(|r| (r.outstanding(), r.index))
            .expect("non-empty slice")
            .index
    }
}

/// The built-in policies, as a sweepable enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstanding`].
    LeastOutstanding,
    /// [`LeastKvPressure`].
    LeastKvPressure,
    /// [`SessionAffinity`].
    SessionAffinity,
    /// [`WeightedTenant`] with default (equal) weights; build
    /// [`WeightedTenant::with_weights`] directly for a custom mix.
    WeightedTenant,
}

impl RouterKind {
    /// All built-in policies, in sweep order.
    pub fn all() -> [RouterKind; 5] {
        [
            RouterKind::RoundRobin,
            RouterKind::LeastOutstanding,
            RouterKind::LeastKvPressure,
            RouterKind::SessionAffinity,
            RouterKind::WeightedTenant,
        ]
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn RoutePolicy> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::LeastKvPressure => Box::new(LeastKvPressure),
            RouterKind::SessionAffinity => Box::new(SessionAffinity::default()),
            RouterKind::WeightedTenant => Box::new(WeightedTenant::default()),
        }
    }

    /// The policy's name — the single source the instances' `name()`
    /// delegates to.
    fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::LeastKvPressure => "least-kv-pressure",
            RouterKind::SessionAffinity => "session-affinity",
            RouterKind::WeightedTenant => "weighted-tenant",
        }
    }
}

impl std::fmt::Display for RouterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_runtime::Request;

    fn req(id: usize, session: u64) -> ClusterRequest {
        tenant_req(id, session, 0)
    }

    fn tenant_req(id: usize, session: u64, tenant: u32) -> ClusterRequest {
        ClusterRequest {
            request: Request {
                id,
                tenant,
                input_len: 128,
                output_len: 64,
                arrival: 0.0,
            },
            session,
        }
    }

    fn snap(index: usize, active: bool, queued: usize, pressure: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            index,
            active,
            queued,
            running: 0,
            kv_pressure: pressure,
            health: ReplicaHealth::Healthy,
        }
    }

    #[test]
    fn only_healthy_is_routable() {
        assert!(ReplicaHealth::Healthy.routable());
        for h in [
            ReplicaHealth::Straggling,
            ReplicaHealth::Probation,
            ReplicaHealth::Down,
        ] {
            assert!(!h.routable(), "{h:?} must stay ejected");
        }
    }

    #[test]
    fn round_robin_cycles_over_active_only() {
        let snaps = [
            snap(0, true, 0, 0.0),
            snap(1, false, 0, 0.0),
            snap(2, true, 0, 0.0),
        ];
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..4).map(|i| rr.route(&req(i, 0), &snaps)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
    }

    #[test]
    fn least_outstanding_breaks_ties_by_index() {
        let snaps = [
            snap(0, true, 3, 0.0),
            snap(1, true, 1, 0.0),
            snap(2, true, 1, 0.0),
        ];
        assert_eq!(LeastOutstanding.route(&req(0, 0), &snaps), 1);
    }

    #[test]
    fn kv_pressure_ignores_queue_counts() {
        // Replica 0 has fewer requests but each is huge; pressure routing
        // must prefer replica 1.
        let snaps = [snap(0, true, 1, 0.9), snap(1, true, 4, 0.2)];
        assert_eq!(LeastKvPressure.route(&req(0, 0), &snaps), 1);
        assert_eq!(LeastOutstanding.route(&req(0, 0), &snaps), 0);
    }

    #[test]
    fn session_affinity_sticks_until_target_parks() {
        let mut aff = SessionAffinity::default();
        let snaps = [snap(0, true, 5, 0.0), snap(1, true, 0, 0.0)];
        let first = aff.route(&req(0, 42), &snaps);
        assert_eq!(first, 1);
        // Same session sticks even though replica 0 is now emptier.
        let snaps2 = [snap(0, true, 0, 0.0), snap(1, true, 9, 0.0)];
        assert_eq!(aff.route(&req(1, 42), &snaps2), 1);
        // Target parked: re-pin to the best active replica.
        let snaps3 = [snap(0, true, 0, 0.0), snap(1, false, 9, 0.0)];
        assert_eq!(aff.route(&req(2, 42), &snaps3), 0);
        assert_eq!(aff.route(&req(3, 42), &snaps2), 0);
    }

    #[test]
    fn kinds_build_their_names() {
        let names: Vec<&str> = RouterKind::all().iter().map(|k| k.build().name()).collect();
        assert_eq!(
            names,
            [
                "round-robin",
                "least-outstanding",
                "least-kv-pressure",
                "session-affinity",
                "weighted-tenant"
            ]
        );
    }

    #[test]
    fn every_policy_survives_a_fully_parked_fleet() {
        // Regression: `active[self.cursor % active.len()]` divided by zero
        // when autoscaling parked every replica. All policies now fall
        // back to the least-index replica instead of panicking.
        let parked = [snap(0, false, 3, 0.5), snap(1, false, 0, 0.1)];
        for kind in RouterKind::all() {
            let mut policy = kind.build();
            assert_eq!(policy.route(&req(0, 9), &parked), 0, "policy {kind}");
        }
    }

    #[test]
    fn round_robin_cursor_survives_park_unpark() {
        let mut rr = RoundRobin::default();
        let both = [snap(0, true, 0, 0.0), snap(1, true, 0, 0.0)];
        let parked = [snap(0, false, 0, 0.0), snap(1, false, 0, 0.0)];
        assert_eq!(rr.route(&req(0, 0), &both), 0);
        assert_eq!(rr.route(&req(1, 0), &parked), 0); // fallback, no cursor move
        assert_eq!(rr.route(&req(2, 0), &both), 1); // rotation resumes
    }

    #[test]
    fn weighted_tenant_partitions_the_fleet() {
        let mut wt = WeightedTenant::with_weights(vec![(0, 1), (1, 1)]);
        let snaps = [
            snap(0, true, 0, 0.0),
            snap(1, true, 0, 0.0),
            snap(2, true, 0, 0.0),
            snap(3, true, 0, 0.0),
        ];
        // Register both tenants, then check isolation: tenant 0 stays in
        // the low half, tenant 1 in the high half, regardless of load.
        wt.route(&tenant_req(0, 0, 0), &snaps);
        wt.route(&tenant_req(1, 0, 1), &snaps);
        let loaded = [
            snap(0, true, 9, 0.0),
            snap(1, true, 9, 0.0),
            snap(2, true, 0, 0.0),
            snap(3, true, 0, 0.0),
        ];
        let t0 = wt.route(&tenant_req(2, 0, 0), &loaded);
        let t1 = wt.route(&tenant_req(3, 0, 1), &loaded);
        assert!(t0 < 2, "tenant 0 must stay in its slice, got {t0}");
        assert!(t1 >= 2, "tenant 1 must stay in its slice, got {t1}");
    }

    #[test]
    fn weighted_tenant_zero_share_falls_back_fleet_wide() {
        // One-to-nine weights on a 2-replica fleet: the light tenant's
        // share rounds to zero replicas (cumulative floor boundary 0..0),
        // so it joins the global least-outstanding pick instead of
        // wedging.
        let mut wt = WeightedTenant::with_weights(vec![(0, 1), (1, 9)]);
        let snaps = [snap(0, true, 5, 0.0), snap(1, true, 0, 0.0)];
        wt.route(&tenant_req(0, 0, 1), &snaps);
        let pick = wt.route(&tenant_req(1, 0, 0), &snaps);
        assert_eq!(pick, 1);
    }

    #[test]
    fn weighted_tenant_single_replica_serves_everyone() {
        let mut wt = WeightedTenant::default();
        let snaps = [snap(0, true, 0, 0.0)];
        for t in 0..5u32 {
            assert_eq!(wt.route(&tenant_req(t as usize, 0, t), &snaps), 0);
        }
    }
}
