//! The theoretical memory model of Section 6 (Table 1, Eq. 6–8).
//!
//! Symbols follow the paper: `M_O` (LLM bytes), `M_D` (DLM/retrieval-head
//! bytes), `L` layers, `H` KV heads, `D` head dim, `S` sequence length,
//! `B` retrieval budget, `α` the GQA group count, `R` requests. Runtime
//! buffers are 30% of model size; KV entries are FP16, so the K+V pair of
//! one token in one head costs `4·D` bytes (the paper's coefficient 4).
//!
//! One deliberate correction: Algorithm 1 as printed omits the
//! coefficient 4 on the `i × B` buffer term in the numerator; physically
//! the per-offloaded-layer GPU staging buffer holds FP16 K and V for `B`
//! tokens, i.e. `4·B·R·H·D` bytes. We apply the coefficient (noted in
//! DESIGN.md); at paper scales the difference shifts thresholds by <2%.

use serde::{Deserialize, Serialize};
use spec_hwsim::DeviceSpec;
use spec_model::ModelConfig;

/// The memory model for one (model, device, DLM) triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryModel {
    /// LLM parameter bytes (`M_O`).
    pub model_bytes: u64,
    /// Retrieval head bytes (`M_D`).
    pub dlm_bytes: u64,
    /// Layers (`L`).
    pub layers: usize,
    /// KV heads (`H`).
    pub kv_heads: usize,
    /// Head dimension (`D`).
    pub head_dim: usize,
    /// GQA group count (`α`).
    pub alpha: usize,
    /// GPU memory capacity.
    pub gpu_mem: u64,
}

impl MemoryModel {
    /// Builds the model from a config and a device.
    pub fn new(cfg: &ModelConfig, dev: &DeviceSpec) -> Self {
        Self {
            model_bytes: cfg.param_bytes,
            dlm_bytes: cfg.retrieval_head_params() * 2,
            layers: cfg.layers,
            kv_heads: cfg.kv_heads,
            head_dim: cfg.head_dim,
            alpha: cfg.group_size(),
            gpu_mem: dev.gpu_mem_bytes,
        }
    }

    /// `1.3 (M_O + M_D)`: weights plus the 30% runtime buffer.
    pub fn static_bytes(&self) -> f64 {
        1.3 * (self.model_bytes + self.dlm_bytes) as f64
    }

    /// Bytes of one token's K+V in one layer across heads: `4·H·D`.
    fn kv_token_layer_bytes(&self) -> f64 {
        4.0 * (self.kv_heads * self.head_dim) as f64
    }

    /// Bytes one resident token costs across the whole model — the Eq. 6
    /// per-token factor `4(L+1+α)·H·D`: all layers' K+V plus the
    /// retrieval-head and grouped-query terms. This is the factor the
    /// serving replicas' KV-pressure accounting must share with the
    /// admission arithmetic, so both read it from here.
    pub fn kv_token_total_bytes(&self) -> f64 {
        self.kv_token_layer_bytes() * (self.layers + 1 + self.alpha) as f64
    }

    /// Eq. 6: total bytes with all KV on GPU —
    /// `1.3(M_O+M_D) + 4R(L+1+α)·S·H·D`.
    pub fn m_all(&self, requests: usize, seq_len: usize) -> f64 {
        self.static_bytes() + self.kv_token_total_bytes() * requests as f64 * seq_len as f64
    }

    /// Eq. 7: total bytes with the last `l_cpu` layers offloaded and a
    /// `B`-token staging buffer per offloaded layer.
    pub fn m_part(&self, requests: usize, seq_len: usize, l_cpu: usize, budget: usize) -> f64 {
        let l_gpu = self.layers - l_cpu.min(self.layers);
        let r = requests as f64;
        self.static_bytes()
            + self.kv_token_layer_bytes()
                * r
                * ((l_gpu + 1 + self.alpha) as f64 * seq_len as f64 + l_cpu as f64 * budget as f64)
    }

    /// Whether everything fits on the GPU at this batch and length.
    pub fn fits_all(&self, requests: usize, seq_len: usize) -> bool {
        self.m_all(requests, seq_len) <= self.gpu_mem as f64
    }

    /// Transient bytes of eager prefill's materialized attention scores
    /// (`R · q_heads · S² · 2` for one layer), the paper's Table-3 OOM
    /// cause for the eager baseline. `q_heads = α·H`.
    pub fn eager_prefill_scores_bytes(&self, requests: usize, seq_len: usize) -> f64 {
        let q_heads = (self.alpha * self.kv_heads) as f64;
        2.0 * requests as f64 * q_heads * (seq_len as f64) * (seq_len as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MemoryModel {
        MemoryModel::new(&ModelConfig::llama3_1_8b(), &DeviceSpec::a100_80g())
    }

    #[test]
    fn static_bytes_are_about_21_gb() {
        let m = model();
        let gb = m.static_bytes() / 1e9;
        assert!((19.0..24.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn m_all_grows_linearly_in_s_and_r() {
        let m = model();
        let base = m.m_all(1, 1000);
        let double_s = m.m_all(1, 2000);
        let double_r = m.m_all(2, 1000);
        let kv1 = base - m.static_bytes();
        assert!(((double_s - m.static_bytes()) / kv1 - 2.0).abs() < 1e-6);
        assert!(((double_r - m.static_bytes()) / kv1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn llama_4_requests_16k_overflows_24gb_but_fits_80gb() {
        // Fig. 1's RTX-4090 framing: 4 x 16K on a 24GB card does not fit.
        let cfg = ModelConfig::llama3_1_8b();
        let small = MemoryModel {
            gpu_mem: 24 * (1 << 30),
            ..MemoryModel::new(&cfg, &DeviceSpec::a100_80g())
        };
        assert!(!small.fits_all(4, 16 * 1024));
        let big = model();
        assert!(big.fits_all(4, 16 * 1024));
    }

    #[test]
    fn m_part_interpolates_between_all_gpu_and_all_cpu() {
        let m = model();
        let (r, s, b) = (4, 32 * 1024, 2048);
        let all = m.m_part(r, s, 0, b);
        let none = m.m_part(r, s, m.layers, b);
        assert!((all - m.m_all(r, s)).abs() < 1e-3);
        assert!(none < all);
        for l in 1..m.layers {
            let v = m.m_part(r, s, l, b);
            assert!(v < all && v > none);
        }
    }

    #[test]
    fn eager_prefill_scores_cause_oom_at_16k_batch4() {
        // Paper Table 3: eager OOMs at [16k,2k] x4 on 80GB.
        let m = model();
        let total = m.m_all(4, 16 * 1024) + m.eager_prefill_scores_bytes(4, 16 * 1024);
        assert!(total > m.gpu_mem as f64, "{} GB", total / 1e9);
    }
}
