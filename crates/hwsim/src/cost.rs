//! Roofline kernel cost model with engine efficiency profiles.
//!
//! A kernel is characterized by its FLOPs and the bytes it must move
//! through GPU memory; its duration is the roofline maximum of the two,
//! divided by the engine's achieved efficiency, plus a fixed per-kernel
//! launch overhead. The three full-attention baselines of the paper
//! differ exactly in these profiles: eager PyTorch launches many small
//! unfused kernels; FlashAttention fuses attention and avoids
//! materializing the S×S score matrix; FlashInfer adds paged KV handling
//! and batch-decode kernels.

use crate::device::DeviceSpec;
use serde::{Deserialize, Serialize};

/// FLOPs + bytes of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelCost {
    /// Floating point operations.
    pub flops: f64,
    /// Bytes read + written through GPU memory.
    pub bytes: f64,
    /// Number of kernel launches this op dispatches.
    pub launches: f64,
}

impl KernelCost {
    /// A compute+memory kernel with a single launch.
    pub fn new(flops: f64, bytes: f64) -> Self {
        Self {
            flops,
            bytes,
            launches: 1.0,
        }
    }
}

/// An inference engine's achieved-efficiency profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Name as used in the paper's tables.
    pub name: String,
    /// Fraction of peak FLOPS achieved on decode GEMV/GEMM kernels.
    pub flops_eff: f64,
    /// Fraction of peak memory bandwidth achieved.
    pub bw_eff: f64,
    /// Seconds of overhead per kernel launch.
    pub launch_overhead: f64,
    /// Whether decode attention materializes the score matrix in HBM
    /// (eager does; fused kernels do not). Materialization multiplies
    /// attention bytes by this factor.
    pub attn_byte_multiplier: f64,
}

impl EngineProfile {
    /// HuggingFace eager (unfused PyTorch ops).
    pub fn eager() -> Self {
        Self {
            name: "Eager".into(),
            flops_eff: 0.25,
            bw_eff: 0.45,
            launch_overhead: 12e-6,
            attn_byte_multiplier: 2.0,
        }
    }

    /// FlashAttention-2 fused kernels.
    pub fn flash_attention() -> Self {
        Self {
            name: "FlashAttention".into(),
            flops_eff: 0.55,
            bw_eff: 0.75,
            launch_overhead: 6e-6,
            attn_byte_multiplier: 1.0,
        }
    }

    /// FlashInfer (fused + paged + batch-decode specialization).
    pub fn flashinfer() -> Self {
        Self {
            name: "FlashInfer".into(),
            flops_eff: 0.65,
            bw_eff: 0.88,
            launch_overhead: 3e-6,
            attn_byte_multiplier: 1.0,
        }
    }

    /// Duration of one op on a device under this profile.
    pub fn op_time(&self, cost: KernelCost, dev: &DeviceSpec) -> f64 {
        let compute = dev.compute_time(cost.flops) / self.flops_eff;
        let memory = dev.hbm_time(cost.bytes) / self.bw_eff;
        compute.max(memory) + cost.launches * self.launch_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_strictly_ordered_on_decode_kernels() {
        let dev = DeviceSpec::a100_80g();
        // A memory-bound decode attention op: 1 GFLOP, 1 GB, 32 launches.
        let cost = KernelCost {
            flops: 1e9,
            bytes: 1e9,
            launches: 32.0,
        };
        let eager = EngineProfile::eager().op_time(cost, &dev);
        let flash = EngineProfile::flash_attention().op_time(cost, &dev);
        let fi = EngineProfile::flashinfer().op_time(cost, &dev);
        assert!(eager > flash && flash > fi, "{eager} {flash} {fi}");
    }

    #[test]
    fn op_time_has_launch_floor() {
        let dev = DeviceSpec::a100_80g();
        let p = EngineProfile::eager();
        let tiny = KernelCost::new(1.0, 1.0);
        assert!(p.op_time(tiny, &dev) >= p.launch_overhead);
    }

    #[test]
    fn roofline_picks_binding_resource() {
        let dev = DeviceSpec::a100_80g();
        let p = EngineProfile::flashinfer();
        // Heavily memory bound.
        let mem = KernelCost::new(1e6, 10e9);
        let t_mem = p.op_time(mem, &dev);
        assert!((t_mem - 10e9 / dev.gpu_mem_bw / p.bw_eff - p.launch_overhead).abs() < 1e-6);
        // Heavily compute bound.
        let comp = KernelCost::new(1e15, 1e3);
        let t_comp = p.op_time(comp, &dev);
        assert!(t_comp > dev.compute_time(1e15));
    }
}
