//! Fleet construction: the device-level view of a serving cluster.
//!
//! A fleet is an ordered list of [`DeviceSpec`]s, one per replica slot.
//! The `spec_serve` cluster simulator binds one serving engine to each
//! device; heterogeneous fleets (e.g. A100 nodes backed by cheaper 4090
//! spill capacity) are just mixed lists. The builder keeps construction
//! declarative and the ordering deterministic, which matters because
//! router policies break ties by replica index.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// What phase of a request a replica serves.
///
/// `Unified` replicas run the whole lifecycle (today's behaviour and
/// the default everywhere). In a disaggregated fleet, `Prefill`
/// replicas finish each request at its first token and hand the
/// resident KV off over the interconnect; `Decode` replicas admit those
/// handoffs and run the remaining decode iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaRole {
    /// Runs prefill and decode (the monolithic default).
    #[default]
    Unified,
    /// Runs prefill only; emits a KV handoff at first token.
    Prefill,
    /// Runs decode only; admits prefill handoffs.
    Decode,
}

impl ReplicaRole {
    /// Short lowercase label for reports and traces.
    fn name(&self) -> &'static str {
        match self {
            ReplicaRole::Unified => "unified",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        }
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One replica slot: a device plus the role it serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSlot {
    /// The device backing this slot.
    pub device: DeviceSpec,
    /// The phase this slot serves.
    pub role: ReplicaRole,
}

/// Declarative builder for replica device lists.
///
/// # Example
///
/// ```
/// use spec_hwsim::{DeviceSpec, Fleet};
/// let devices = Fleet::new()
///     .with(DeviceSpec::a100_80g(), 2)
///     .with(DeviceSpec::rtx4090(), 2)
///     .build();
/// assert_eq!(devices.len(), 4);
/// assert_eq!(devices[0].name, "A100-80GB");
/// assert_eq!(devices[3].name, "RTX4090-24GB");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    slots: Vec<FleetSlot>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `count` unified replicas of `spec`.
    pub fn with(self, spec: DeviceSpec, count: usize) -> Self {
        self.with_role(spec, ReplicaRole::Unified, count)
    }

    /// Appends `count` replicas of `spec` serving `role` — the
    /// disaggregated form: compute-rich profiles take
    /// [`ReplicaRole::Prefill`], bandwidth-rich profiles take
    /// [`ReplicaRole::Decode`].
    pub fn with_role(mut self, spec: DeviceSpec, role: ReplicaRole, count: usize) -> Self {
        self.slots
            .extend(std::iter::repeat_n(FleetSlot { device: spec, role }, count));
        self
    }

    /// The device list, in replica order (roles dropped).
    pub fn build(self) -> Vec<DeviceSpec> {
        self.slots.into_iter().map(|s| s.device).collect()
    }

    /// The slot list, in replica order, with roles.
    pub fn build_slots(self) -> Vec<FleetSlot> {
        self.slots
    }
}

/// `count` identical replicas — the common homogeneous cluster.
pub fn homogeneous(spec: DeviceSpec, count: usize) -> Vec<DeviceSpec> {
    Fleet::new().with(spec, count).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_repeats_the_spec() {
        let f = homogeneous(DeviceSpec::a100_80g(), 3);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|d| d.name == "A100-80GB"));
    }

    #[test]
    fn mixed_fleet_preserves_declaration_order() {
        let f = Fleet::new()
            .with(DeviceSpec::a100_80g(), 1)
            .with(DeviceSpec::rtx4090(), 2)
            .with(DeviceSpec::h100_80g(), 1)
            .build();
        let names: Vec<&str> = f.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            ["A100-80GB", "RTX4090-24GB", "RTX4090-24GB", "H100-80GB"]
        );
    }

    #[test]
    fn empty_fleet_builds_empty() {
        assert!(Fleet::new().build().is_empty());
    }

    #[test]
    fn role_slots_preserve_order_and_default_to_unified() {
        let slots = Fleet::new()
            .with_role(DeviceSpec::h100_80g(), ReplicaRole::Prefill, 2)
            .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 1)
            .with(DeviceSpec::rtx4090(), 1)
            .build_slots();
        let roles: Vec<ReplicaRole> = slots.iter().map(|s| s.role).collect();
        assert_eq!(
            roles,
            [
                ReplicaRole::Prefill,
                ReplicaRole::Prefill,
                ReplicaRole::Decode,
                ReplicaRole::Unified,
            ]
        );
        assert_eq!(slots[0].device.name, "H100-80GB");
        assert_eq!(ReplicaRole::default(), ReplicaRole::Unified);
        assert_eq!(ReplicaRole::Prefill.to_string(), "prefill");
    }
}
