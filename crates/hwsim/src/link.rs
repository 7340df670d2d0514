//! Inter-replica interconnect links for disaggregated serving.
//!
//! A [`LinkSpec`] prices the KV-cache hop between a prefill replica and
//! a decode replica: fixed per-transfer latency plus bytes over
//! bandwidth, the same shape as [`DeviceSpec::pcie_time`] but for the
//! network between nodes rather than the bus inside one. The class
//! constructors cover the deployments the `table3_disagg` bench sweeps
//! — NVLink-class intra-node fabric, InfiniBand and 100G Ethernet
//! between nodes — plus [`LinkSpec::zero_cost`], the idealized link the
//! disaggregation tests use to pin a Prefill+Decode fleet bit-identical
//! to a monolithic one.
//!
//! [`DeviceSpec::pcie_time`]: crate::device::DeviceSpec::pcie_time

use serde::{Deserialize, Serialize};

/// An interconnect class: bandwidth plus fixed per-transfer latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Human-readable class name.
    pub name: String,
    /// Link bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer latency, seconds (setup + one RTT).
    pub latency: f64,
}

impl LinkSpec {
    /// NVLink-class fabric between GPUs in one node (NVLink 4.0,
    /// ~450 GB/s effective per direction).
    pub fn nvlink() -> Self {
        Self {
            name: "NVLink".into(),
            bandwidth: 450e9,
            latency: 5e-6,
        }
    }

    /// InfiniBand NDR between nodes (400 Gb/s ≈ 50 GB/s, RDMA-class
    /// latency).
    pub fn infiniband() -> Self {
        Self {
            name: "InfiniBand-NDR".into(),
            bandwidth: 50e9,
            latency: 20e-6,
        }
    }

    /// Commodity 100G Ethernet between nodes (~12.5 GB/s, kernel-stack
    /// latency).
    pub fn ethernet_100g() -> Self {
        Self {
            name: "Ethernet-100G".into(),
            bandwidth: 12.5e9,
            latency: 150e-6,
        }
    }

    /// An idealized free link: `time(bytes)` is exactly `0.0` for any
    /// finite byte count. The disaggregation property tests use it to
    /// pin a Prefill+Decode fleet bit-identical to a unified one.
    pub fn zero_cost() -> Self {
        Self {
            name: "zero-cost".into(),
            bandwidth: f64::INFINITY,
            latency: 0.0,
        }
    }

    /// Seconds to move `bytes` across this link (including fixed
    /// latency). Exactly `0.0` on a [`zero_cost`](Self::zero_cost) link.
    pub fn time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_classes_are_ordered_by_bandwidth() {
        let nv = LinkSpec::nvlink();
        let ib = LinkSpec::infiniband();
        let eth = LinkSpec::ethernet_100g();
        assert!(nv.bandwidth > ib.bandwidth);
        assert!(ib.bandwidth > eth.bandwidth);
        assert!(nv.latency < ib.latency);
        assert!(ib.latency < eth.latency);
        let bytes = 1e9;
        assert!(nv.time(bytes) < ib.time(bytes));
        assert!(ib.time(bytes) < eth.time(bytes));
    }

    #[test]
    fn time_includes_latency_floor() {
        let ib = LinkSpec::infiniband();
        assert!(ib.time(0.0) >= ib.latency);
        // 50 GB at 50 GB/s ~ 1s.
        assert!((ib.time(50e9) - 1.0).abs() < 0.01);
    }

    #[test]
    fn zero_cost_link_is_exactly_free() {
        let free = LinkSpec::zero_cost();
        assert_eq!(free.time(0.0), 0.0);
        assert_eq!(free.time(1.0), 0.0);
        assert_eq!(free.time(1e15), 0.0);
        assert!(LinkSpec::nvlink().time(0.0) > 0.0);
    }
}
