//! Model configurations.
//!
//! Each preset carries the **real** architectural geometry of the models the
//! paper evaluates (layer count, head counts, head dimension, vocabulary).
//! The real geometry drives the memory model of Section 6 and the hardware
//! simulator. For actually *running* forward passes on a CPU, every config
//! can produce a scaled-down [`SimGeometry`] that preserves the properties
//! the algorithms depend on: the attention kind, the query/KV head ratio
//! `α`, and the depth-vs-width proportions.

use serde::{Deserialize, Serialize};

/// The attention mechanism family (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttentionKind {
    /// Multi-Head Attention: one KV head per query head.
    Mha,
    /// Grouped-Query Attention: query heads share KV heads in groups of α.
    Gqa,
    /// Multi-Query Attention: all query heads share a single KV head.
    Mqa,
    /// Multi-Head Latent Attention: a shared low-rank latent cache is
    /// up-projected per head (DeepSeek-V3 style).
    Mla,
}

impl std::fmt::Display for AttentionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttentionKind::Mha => "MHA",
            AttentionKind::Gqa => "GQA",
            AttentionKind::Mqa => "MQA",
            AttentionKind::Mla => "MLA",
        };
        f.write_str(s)
    }
}

/// Full architectural description of a model.
///
/// # Example
///
/// ```
/// use spec_model::config::ModelConfig;
/// let cfg = ModelConfig::llama3_1_8b();
/// assert_eq!(cfg.layers, 32);
/// assert_eq!(cfg.group_size(), 4); // 32 query heads / 8 KV heads
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name as used in the paper's tables.
    pub name: String,
    /// Attention mechanism.
    pub attention: AttentionKind,
    /// Number of transformer decoder layers (`L` in Table 1).
    pub layers: usize,
    /// Hidden (residual stream) dimension.
    pub hidden: usize,
    /// Number of query heads.
    pub q_heads: usize,
    /// Number of KV heads (`H` in Table 1). For MLA this counts the
    /// up-projected heads; the cached object is the latent vector.
    pub kv_heads: usize,
    /// Per-head dimension (`D` in Table 1).
    pub head_dim: usize,
    /// MLA latent dimension (0 for non-MLA models).
    pub mla_latent: usize,
    /// FFN intermediate dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// RoPE base frequency.
    pub rope_base: f32,
    /// Pretrained context window (tokens).
    pub train_context: usize,
    /// Parameter-memory footprint in bytes at FP16 (`M_O` in Table 1).
    /// Stored explicitly so presets match the published checkpoint sizes
    /// rather than a formula over the other fields.
    pub param_bytes: u64,
}

impl ModelConfig {
    /// Llama 3.1 8B Instruct (GQA, 32 layers, 32 Q / 8 KV heads).
    pub fn llama3_1_8b() -> Self {
        Self {
            name: "Llama3.1-8B".into(),
            attention: AttentionKind::Gqa,
            layers: 32,
            hidden: 4096,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 128,
            mla_latent: 0,
            ffn_dim: 14336,
            vocab: 128_256,
            rope_base: 500_000.0,
            train_context: 131_072,
            param_bytes: 16_100_000_000,
        }
    }

    /// DeepSeek-R1-Distill-Llama-8B: identical geometry to Llama 3.1 8B
    /// (it is a distill onto that architecture), evaluated as the reasoning
    /// model in the paper's cloud experiments.
    pub fn deepseek_distill_llama_8b() -> Self {
        Self {
            name: "DeepSeek-Distill-Llama-8B".into(),
            ..Self::llama3_1_8b()
        }
    }

    /// Qwen3-8B (GQA, 36 layers, 32 Q / 8 KV heads, 151k vocabulary).
    pub fn qwen3_8b() -> Self {
        Self {
            name: "Qwen3-8B".into(),
            attention: AttentionKind::Gqa,
            layers: 36,
            hidden: 4096,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 128,
            mla_latent: 0,
            ffn_dim: 12288,
            vocab: 151_936,
            rope_base: 1_000_000.0,
            train_context: 131_072,
            param_bytes: 16_400_000_000,
        }
    }

    /// Reasoning-Llama-3.2-1B, the edge model (GQA, 16 layers, 32 Q / 8 KV
    /// heads at head_dim 64).
    pub fn reasoning_llama3_2_1b() -> Self {
        Self {
            name: "Reasoning-Llama-3.2-1B".into(),
            attention: AttentionKind::Gqa,
            layers: 16,
            hidden: 2048,
            q_heads: 32,
            kv_heads: 8,
            head_dim: 64,
            mla_latent: 0,
            ffn_dim: 8192,
            vocab: 128_256,
            rope_base: 500_000.0,
            train_context: 131_072,
            param_bytes: 2_500_000_000,
        }
    }

    /// The GQA/MQA group size `α` (Table 1): query heads per KV head.
    /// Returns 1 for MHA and MLA.
    pub fn group_size(&self) -> usize {
        match self.attention {
            AttentionKind::Mha | AttentionKind::Mla => 1,
            AttentionKind::Gqa | AttentionKind::Mqa => self.q_heads / self.kv_heads,
        }
    }

    /// Bytes of KV cache per token per layer at FP16
    /// (`2 * H * D * 2 bytes`, or the latent size for MLA).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        match self.attention {
            AttentionKind::Mla => 2 * self.mla_latent as u64,
            _ => 2 * 2 * (self.kv_heads * self.head_dim) as u64,
        }
    }

    /// Bytes of KV cache for a full sequence across all layers.
    pub fn kv_bytes_total(&self, seq_len: usize) -> u64 {
        self.kv_bytes_per_token_layer() * self.layers as u64 * seq_len as u64
    }

    /// Analytic parameter count of the pruned retrieval head
    /// (QK projections only; embedding shared, everything else pruned).
    pub fn retrieval_head_params(&self) -> u64 {
        let h = self.hidden as u64;
        let qd = (self.q_heads * self.head_dim) as u64;
        let kvd = (self.kv_heads * self.head_dim) as u64;
        h * qd + h * kvd
    }

    /// The scaled-down geometry used for actual CPU forward passes.
    ///
    /// Preserved: attention kind, group size α, Q/KV head ratio.
    /// Scaled: layers, hidden size, vocabulary.
    pub fn sim_geometry(&self) -> SimGeometry {
        let q_heads = 8;
        let kv_heads = match self.attention {
            AttentionKind::Mha | AttentionKind::Mla => q_heads,
            AttentionKind::Gqa => q_heads / self.group_size().min(q_heads).max(1),
            AttentionKind::Mqa => 1,
        }
        .max(1);
        SimGeometry {
            attention: self.attention,
            layers: 4,
            hidden: 64,
            q_heads,
            kv_heads,
            head_dim: 16,
            mla_latent: if self.attention == AttentionKind::Mla {
                24
            } else {
                0
            },
            ffn_dim: 128,
            vocab: 512,
            rope_base: 500_000.0,
            train_context: 2048,
            semantic_strength: 1.5,
        }
    }
}

/// The small geometry actually executed on the CPU.
///
/// See [`ModelConfig::sim_geometry`]. Tests may also construct these
/// directly for even smaller models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimGeometry {
    /// Attention mechanism (preserved from the full config).
    pub attention: AttentionKind,
    /// Number of decoder layers.
    pub layers: usize,
    /// Residual stream width.
    pub hidden: usize,
    /// Query heads.
    pub q_heads: usize,
    /// KV heads.
    pub kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// MLA latent width (0 unless MLA).
    pub mla_latent: usize,
    /// FFN intermediate width.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// RoPE base.
    pub rope_base: f32,
    /// Nominal trained context (YaRN extends beyond this).
    pub train_context: usize,
    /// Strength of the built-in semantic channel: a query-key aligned
    /// direction shared across layers and heads. Real LLMs acquire such
    /// structure in training (it is why content-based KV retrieval works);
    /// random-weight simulators must be given it explicitly. 0 disables.
    pub semantic_strength: f32,
}

impl SimGeometry {
    /// A tiny geometry for unit tests.
    pub fn tiny(attention: AttentionKind) -> Self {
        let (q_heads, kv_heads, mla_latent) = match attention {
            AttentionKind::Mha => (2, 2, 0),
            AttentionKind::Gqa => (4, 2, 0),
            AttentionKind::Mqa => (4, 1, 0),
            AttentionKind::Mla => (2, 2, 12),
        };
        Self {
            attention,
            layers: 2,
            hidden: 32,
            q_heads,
            kv_heads,
            head_dim: 8,
            mla_latent,
            ffn_dim: 64,
            vocab: 64,
            rope_base: 10_000.0,
            train_context: 256,
            semantic_strength: 1.5,
        }
    }

    /// Group size α (query heads per KV head); 1 for MHA/MLA.
    pub fn group_size(&self) -> usize {
        match self.attention {
            AttentionKind::Mha | AttentionKind::Mla => 1,
            AttentionKind::Gqa | AttentionKind::Mqa => self.q_heads / self.kv_heads,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers == 0 {
            return Err("layers must be positive".into());
        }
        if self.q_heads == 0 || self.kv_heads == 0 {
            return Err("head counts must be positive".into());
        }
        if !self.q_heads.is_multiple_of(self.kv_heads) {
            return Err(format!(
                "q_heads {} must be a multiple of kv_heads {}",
                self.q_heads, self.kv_heads
            ));
        }
        match self.attention {
            AttentionKind::Mha | AttentionKind::Mla => {
                if self.q_heads != self.kv_heads {
                    return Err(format!("{} requires q_heads == kv_heads", self.attention));
                }
            }
            AttentionKind::Mqa => {
                if self.kv_heads != 1 {
                    return Err("MQA requires exactly one KV head".into());
                }
            }
            AttentionKind::Gqa => {}
        }
        if self.attention == AttentionKind::Mla && self.mla_latent == 0 {
            return Err("MLA requires mla_latent > 0".into());
        }
        if !self.head_dim.is_multiple_of(2) {
            return Err("head_dim must be even for RoPE".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every preset evaluated anywhere in the paper.
    fn paper_presets() -> [ModelConfig; 4] {
        [
            ModelConfig::llama3_1_8b(),
            ModelConfig::deepseek_distill_llama_8b(),
            ModelConfig::qwen3_8b(),
            ModelConfig::reasoning_llama3_2_1b(),
        ]
    }

    /// Llama3.1-8B's geometry under another attention layout (Fig. 5(b),
    /// (d), (e)): `kv_heads` KV heads, an MLA latent of `mla_latent`.
    fn with_attention(attention: AttentionKind, kv_heads: usize, mla_latent: usize) -> ModelConfig {
        ModelConfig {
            attention,
            kv_heads,
            mla_latent,
            ..ModelConfig::llama3_1_8b()
        }
    }

    /// Analytic non-embedding parameter count of a full EAGLE-3-style DLM
    /// for `cfg`: one decoder layer plus the LM head. (The embedding is
    /// shared with the base model and excluded, matching how the paper
    /// counts the ">90% reduction" of Section 4.)
    fn dlm_params_non_embedding(cfg: &ModelConfig) -> u64 {
        let h = cfg.hidden as u64;
        let qd = (cfg.q_heads * cfg.head_dim) as u64;
        let kvd = (cfg.kv_heads * cfg.head_dim) as u64;
        let layer = h * qd      // W_q
            + 2 * h * kvd       // W_k, W_v
            + qd * h            // W_o
            + 3 * h * cfg.ffn_dim as u64; // gate/up/down
        layer + h * cfg.vocab as u64 // LM head
    }

    #[test]
    fn llama_group_size_is_four() {
        assert_eq!(ModelConfig::llama3_1_8b().group_size(), 4);
    }

    #[test]
    fn mqa_group_size_is_all_heads() {
        assert_eq!(with_attention(AttentionKind::Mqa, 1, 0).group_size(), 32);
    }

    #[test]
    fn mha_and_mla_group_size_is_one() {
        assert_eq!(with_attention(AttentionKind::Mha, 32, 0).group_size(), 1);
        assert_eq!(with_attention(AttentionKind::Mla, 32, 512).group_size(), 1);
    }

    #[test]
    fn llama_kv_bytes_match_paper_example() {
        // Paper Section 2.2: ~4GB KV for 32K context on Llama3.1-8B.
        let cfg = ModelConfig::llama3_1_8b();
        let gb = cfg.kv_bytes_total(32 * 1024) as f64 / 1e9;
        assert!((3.0..6.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn mla_caches_latent_only() {
        let cfg = with_attention(AttentionKind::Mla, 32, 512);
        let full = 2 * 2 * (cfg.kv_heads * cfg.head_dim) as u64;
        assert!(cfg.kv_bytes_per_token_layer() < full / 4);
    }

    #[test]
    fn sim_geometry_preserves_attention_kind_and_alpha() {
        for cfg in paper_presets() {
            let sim = cfg.sim_geometry();
            assert_eq!(sim.attention, cfg.attention);
            sim.validate().expect("sim geometry must validate");
        }
    }

    #[test]
    fn tiny_geometries_validate() {
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            SimGeometry::tiny(kind).validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_geometries() {
        let mut g = SimGeometry::tiny(AttentionKind::Gqa);
        g.kv_heads = 3;
        assert!(g.validate().is_err());

        let mut g = SimGeometry::tiny(AttentionKind::Mqa);
        g.kv_heads = 2;
        assert!(g.validate().is_err());

        let mut g = SimGeometry::tiny(AttentionKind::Mla);
        g.mla_latent = 0;
        assert!(g.validate().is_err());

        let mut g = SimGeometry::tiny(AttentionKind::Mha);
        g.head_dim = 7;
        assert!(g.validate().is_err());
    }

    #[test]
    fn retrieval_head_prunes_over_90_percent_at_real_scale() {
        // Paper Section 4/7.4: >90% parameter reduction; head ~60MB fp16.
        for cfg in [ModelConfig::llama3_1_8b(), ModelConfig::qwen3_8b()] {
            let dlm = dlm_params_non_embedding(&cfg) as f64;
            let head = cfg.retrieval_head_params() as f64;
            assert!(1.0 - head / dlm > 0.9, "{}: {}", cfg.name, 1.0 - head / dlm);
            let head_mb = head * 2.0 / 1e6;
            assert!((30.0..100.0).contains(&head_mb), "head {head_mb} MB");
        }
    }

    #[test]
    fn presets_have_distinct_names() {
        let names: std::collections::HashSet<String> =
            paper_presets().into_iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 4);
    }
}
