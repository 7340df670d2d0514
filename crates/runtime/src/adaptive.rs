//! Adaptive memory management: Algorithm 1 (threshold calculation at
//! compilation) and Algorithm 2 (progressive offloading during inference).
//!
//! `S_T[i]` is the largest sequence length at which it suffices to keep
//! the last `i` layers' KV on the CPU. During decode, whenever `S`
//! crosses `S_T[L_CPU]`, the manager offloads one more layer (from the
//! last layer toward the first), freeing GPU room for the still-resident
//! layers' growing caches — instead of the all-or-nothing offload that
//! causes the >80% cliff of Challenge 3.

use crate::memory::MemoryModel;
use serde::{Deserialize, Serialize};

/// The compile-time threshold list `S_T = [S_T_0 … S_T_L]` (Algorithm 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// `values[i]`: max sequence length with `i` layers offloaded.
    pub values: Vec<i64>,
    /// Budget used in the calculation.
    pub budget: usize,
    /// Requests used in the calculation.
    pub requests: usize,
}

impl Thresholds {
    /// Algorithm 1: computes `S_T_i` for `i = 0..=L`.
    pub fn compute(mm: &MemoryModel, requests: usize, budget: usize) -> Self {
        let hd = (mm.kv_heads * mm.head_dim) as f64;
        let r = requests as f64;
        let free = mm.gpu_mem as f64 - mm.static_bytes();
        let mut values = Vec::with_capacity(mm.layers + 1);
        for i in 0..=mm.layers {
            let denom = 4.0 * (mm.layers + 1 + mm.alpha - i) as f64 * r * hd;
            let numer = free - 4.0 * (i as f64 * budget as f64) * r * hd;
            values.push((numer / denom).floor() as i64);
        }
        Self {
            values,
            budget,
            requests,
        }
    }

    /// Number of layers that must be offloaded at sequence length `s`
    /// (the smallest `i` with `s < S_T_i`), or `None` if even full
    /// offload cannot host the sequence.
    pub fn required_offload(&self, s: usize) -> Option<usize> {
        self.values.iter().position(|&t| (s as i64) < t)
    }
}

/// Algorithm 2: the runtime manager driving progressive offload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveManager {
    thresholds: Thresholds,
    layers: usize,
    l_cpu: usize,
}

/// An offload action emitted by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadEvent {
    /// The layer whose KV moves to the CPU.
    pub layer: usize,
    /// Offloaded-layer count after this event.
    pub l_cpu: usize,
}

impl AdaptiveManager {
    /// Creates a manager with all layers resident.
    pub fn new(thresholds: Thresholds, layers: usize) -> Self {
        Self {
            thresholds,
            layers,
            l_cpu: 0,
        }
    }

    /// Current number of offloaded layers (`L_CPU`).
    pub fn l_cpu(&self) -> usize {
        self.l_cpu
    }

    /// Current number of GPU-resident layers (`L_GPU`).
    pub fn l_gpu(&self) -> usize {
        self.layers - self.l_cpu
    }

    /// Algorithm 2 lines 4–7: advances to sequence length `s`, offloading
    /// layers (last toward first) until the threshold condition holds.
    /// Returns the offload events triggered, in order.
    pub fn advance_to(&mut self, s: usize) -> Vec<OffloadEvent> {
        let mut events = Vec::new();
        while self.l_cpu < self.layers && s as i64 >= self.thresholds.values[self.l_cpu] {
            let layer = self.layers - self.l_cpu - 1;
            self.l_cpu += 1;
            events.push(OffloadEvent {
                layer,
                l_cpu: self.l_cpu,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_hwsim::DeviceSpec;
    use spec_model::ModelConfig;

    fn mm_cloud(requests: usize) -> (MemoryModel, Thresholds) {
        let mm = MemoryModel::new(&ModelConfig::llama3_1_8b(), &DeviceSpec::a100_80g());
        let th = Thresholds::compute(&mm, requests, 2048);
        (mm, th)
    }

    #[test]
    fn thresholds_increase_with_offloaded_layers() {
        let (_, th) = mm_cloud(16);
        for w in th.values.windows(2) {
            assert!(w[1] >= w[0], "thresholds must be non-decreasing: {w:?}");
        }
    }

    #[test]
    fn threshold_zero_matches_m_all_capacity() {
        // S_T_0 is the largest S with all KV on GPU: M_all(S_T_0) <= Mem
        // and M_all(S_T_0 + 1) > Mem (up to flooring).
        let (mm, th) = mm_cloud(16);
        let s0 = th.values[0];
        assert!(s0 > 0);
        assert!(mm.fits_all(16, s0 as usize));
        assert!(!mm.fits_all(16, s0 as usize + 2));
    }

    #[test]
    fn threshold_i_matches_m_part_capacity() {
        let (mm, th) = mm_cloud(16);
        for i in [1usize, 8, 16, 31] {
            let s = th.values[i];
            assert!(
                mm.m_part(16, s as usize, i, 2048) <= mm.gpu_mem as f64,
                "i={i}"
            );
            assert!(
                mm.m_part(16, s as usize + 2, i, 2048) > mm.gpu_mem as f64,
                "i={i}"
            );
        }
    }

    #[test]
    fn manager_offloads_last_layer_first_each_exactly_once() {
        let (_, th) = mm_cloud(16);
        let layers = 32;
        let mut mgr = AdaptiveManager::new(th.clone(), layers);
        let mut seen = Vec::new();
        let max_s = th.values[layers] as usize;
        let mut s = 1024;
        while s < max_s {
            for e in mgr.advance_to(s) {
                seen.push(e.layer);
            }
            s += 1024;
        }
        // Layers come off strictly from the back, no repeats.
        for w in seen.windows(2) {
            assert_eq!(w[0], w[1] + 1, "must offload back-to-front: {seen:?}");
        }
        let unique: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), seen.len());
    }

    #[test]
    fn advance_is_idempotent_at_same_length() {
        let (_, th) = mm_cloud(16);
        let mut mgr = AdaptiveManager::new(th, 32);
        let s = 100_000;
        let first = mgr.advance_to(s);
        let second = mgr.advance_to(s);
        assert!(!first.is_empty());
        assert!(second.is_empty(), "no repeated offloads at the same S");
    }

    #[test]
    fn required_offload_consistent_with_manager() {
        let (_, th) = mm_cloud(16);
        let s = 90_000;
        let req = th.required_offload(s);
        let mut mgr = AdaptiveManager::new(th, 32);
        mgr.advance_to(s);
        if let Some(r) = req {
            assert_eq!(mgr.l_cpu(), r);
        } else {
            assert_eq!(mgr.l_cpu(), 32);
        }
    }

    #[test]
    fn small_gpu_starts_offloading_early() {
        let mm = MemoryModel::new(
            &ModelConfig::reasoning_llama3_2_1b(),
            &DeviceSpec::rtx4060_laptop_4g(),
        );
        let th = Thresholds::compute(&mm, 1, 1024);
        // A 2.5GB model in a 4GB budget leaves little KV room: the
        // all-GPU threshold must be small.
        assert!(th.values[0] < 32 * 1024, "S_T_0 = {}", th.values[0]);
    }
}
