//! Weight containers and initialization.

use crate::config::{AttentionKind, SimGeometry};
use spec_tensor::{Matrix, SimRng};

/// The built-in semantic channel: a hidden-space direction `m` and a
/// per-KV-head key-space vector `u_h` such that `W_q` and `W_k` both map
/// `m` onto `u_h`. Two tokens whose embeddings carry `m` then attend to
/// each other strongly — the structure trained LLMs acquire and that
/// content-based KV retrieval relies on.
///
/// `u_h` lives on the lowest-frequency RoPE pair so the alignment stays
/// coherent across long distances (the pair's rotation period exceeds the
/// simulated context lengths).
#[derive(Debug, Clone)]
pub struct SemanticChannel {
    /// Unit direction in hidden/embedding space.
    pub direction: Vec<f32>,
    /// Per-KV-head unit vector in head space (energy on the last RoPE pair).
    pub head_vectors: Vec<Vec<f32>>,
    /// Channel strength (outer-product scale added to the projections).
    pub strength: f32,
}

impl SemanticChannel {
    /// Samples a channel for the geometry.
    fn sample(geom: &SimGeometry, rng: &mut SimRng) -> Self {
        let mut direction = rng.normal_vec(geom.hidden, 1.0);
        let norm = direction
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(1e-9);
        direction.iter_mut().for_each(|v| *v /= norm);
        let d = geom.head_dim;
        let head_vectors = (0..geom.kv_heads)
            .map(|_| {
                let phi = rng.uniform_range(0.0, std::f32::consts::TAU);
                let mut u = vec![0.0; d];
                u[d - 2] = phi.cos();
                u[d - 1] = phi.sin();
                u
            })
            .collect();
        Self {
            direction,
            head_vectors,
            strength: geom.semantic_strength,
        }
    }

    /// Adds `strength * m ⊗ u` to a `hidden x head_dim` projection.
    fn imprint(&self, w: &mut Matrix, u: &[f32], strength: f32) {
        for (r, m) in self.direction.iter().enumerate() {
            for (c, uc) in u.iter().enumerate() {
                let v = w.get(r, c) + strength * m * uc;
                w.set(r, c, v);
            }
        }
    }
}

/// Per-layer weights of the simulated decoder.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Per query head: `hidden x head_dim` query projection.
    pub wq: Vec<Matrix>,
    /// Per KV head: `hidden x head_dim` key projection
    /// (for MLA: `mla_latent x head_dim` up-projection, per head).
    pub wk: Vec<Matrix>,
    /// Per KV head: value projection, same shapes as `wk`.
    pub wv: Vec<Matrix>,
    /// MLA only: `hidden x mla_latent` shared down-projection.
    pub w_down_latent: Option<Matrix>,
    /// Output projection `q_heads*head_dim x hidden`.
    pub wo: Matrix,
    /// FFN gate `hidden x ffn_dim`.
    pub w_gate: Matrix,
    /// FFN up `hidden x ffn_dim`.
    pub w_up: Matrix,
    /// FFN down `ffn_dim x hidden`.
    pub w_down: Matrix,
    /// Pre-attention RMSNorm weight.
    pub norm_attn: Vec<f32>,
    /// Pre-FFN RMSNorm weight.
    pub norm_ffn: Vec<f32>,
}

impl LayerWeights {
    /// Random initialization scaled for stable residual streams, with the
    /// optional semantic channel imprinted onto the QK projections.
    pub fn init(geom: &SimGeometry, rng: &mut SimRng, channel: Option<&SemanticChannel>) -> Self {
        let h = geom.hidden;
        let d = geom.head_dim;
        let std_qk = 1.0 / (h as f32).sqrt();
        let std_o = 0.5 / ((geom.q_heads * d) as f32).sqrt();
        let std_ffn = 0.5 / (h as f32).sqrt();

        let mut wq: Vec<Matrix> = (0..geom.q_heads)
            .map(|i| rng.fork(i as u64).normal_matrix(h, d, std_qk))
            .collect();
        let group = geom.group_size();
        if let Some(ch) = channel {
            for (q, w) in wq.iter_mut().enumerate() {
                ch.imprint(w, &ch.head_vectors[q / group], ch.strength);
            }
        }
        let (wk, wv, w_down_latent) = if geom.attention == AttentionKind::Mla {
            let lat = geom.mla_latent;
            let std_up = 1.0 / (lat as f32).sqrt();
            let mut wk: Vec<Matrix> = (0..geom.kv_heads)
                .map(|i| rng.fork(100 + i as u64).normal_matrix(lat, d, std_up))
                .collect();
            let wv = (0..geom.kv_heads)
                .map(|i| rng.fork(200 + i as u64).normal_matrix(lat, d, std_up))
                .collect();
            let mut down = rng.fork(300).normal_matrix(h, lat, std_qk);
            if let Some(ch) = channel {
                // Route the channel through the latent bottleneck:
                // W_dc maps m -> e_0, W_uk maps e_0 -> u_h.
                let s = ch.strength.sqrt();
                for (r, m) in ch.direction.iter().enumerate() {
                    let v = down.get(r, 0) + s * m;
                    down.set(r, 0, v);
                }
                for (hh, w) in wk.iter_mut().enumerate() {
                    for (c, uc) in ch.head_vectors[hh].iter().enumerate() {
                        let v = w.get(0, c) + s * uc;
                        w.set(0, c, v);
                    }
                }
            }
            (wk, wv, Some(down))
        } else {
            let mut wk: Vec<Matrix> = (0..geom.kv_heads)
                .map(|i| rng.fork(100 + i as u64).normal_matrix(h, d, std_qk))
                .collect();
            let wv = (0..geom.kv_heads)
                .map(|i| rng.fork(200 + i as u64).normal_matrix(h, d, std_qk))
                .collect();
            if let Some(ch) = channel {
                for (hh, w) in wk.iter_mut().enumerate() {
                    ch.imprint(w, &ch.head_vectors[hh], ch.strength);
                }
            }
            (wk, wv, None)
        };
        Self {
            wq,
            wk,
            wv,
            w_down_latent,
            wo: rng.fork(400).normal_matrix(geom.q_heads * d, h, std_o),
            w_gate: rng.fork(500).normal_matrix(h, geom.ffn_dim, std_ffn),
            w_up: rng.fork(600).normal_matrix(h, geom.ffn_dim, std_ffn),
            w_down: rng.fork(700).normal_matrix(geom.ffn_dim, h, std_ffn),
            norm_attn: vec![1.0; h],
            norm_ffn: vec![1.0; h],
        }
    }
}

/// Full model weights: embedding, decoder layers, final norm and LM head.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// `vocab x hidden` token embedding.
    pub embedding: Matrix,
    /// Decoder layers.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm weight.
    pub norm_final: Vec<f32>,
    /// `hidden x vocab` output head.
    pub lm_head: Matrix,
    /// The semantic channel imprinted on the QK projections, if any.
    pub semantic: Option<SemanticChannel>,
}

impl ModelWeights {
    /// Random initialization from a seed.
    pub fn init(geom: &SimGeometry, rng: &mut SimRng) -> Self {
        let emb_std = 1.0;
        let semantic = if geom.semantic_strength > 0.0 {
            Some(SemanticChannel::sample(geom, &mut rng.fork(3)))
        } else {
            None
        };
        Self {
            embedding: rng.fork(1).normal_matrix(geom.vocab, geom.hidden, emb_std),
            layers: (0..geom.layers)
                .map(|l| {
                    LayerWeights::init(geom, &mut rng.fork(1000 + l as u64), semantic.as_ref())
                })
                .collect(),
            norm_final: vec![1.0; geom.hidden],
            lm_head: rng.fork(2).normal_matrix(
                geom.hidden,
                geom.vocab,
                1.0 / (geom.hidden as f32).sqrt(),
            ),
            semantic,
        }
    }

    /// Approximate parameter count of the simulated model.
    pub fn param_count(&self) -> usize {
        let mut n = self.embedding.len() + self.lm_head.len() + self.norm_final.len();
        for l in &self.layers {
            n += l.wq.iter().map(Matrix::len).sum::<usize>();
            n += l.wk.iter().map(Matrix::len).sum::<usize>();
            n += l.wv.iter().map(Matrix::len).sum::<usize>();
            n += l.w_down_latent.as_ref().map_or(0, Matrix::len);
            n += l.wo.len() + l.w_gate.len() + l.w_up.len() + l.w_down.len();
            n += l.norm_attn.len() + l.norm_ffn.len();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_shapes_match_geometry() {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let mut rng = SimRng::seed(1);
        let w = ModelWeights::init(&geom, &mut rng);
        assert_eq!(w.layers.len(), geom.layers);
        assert_eq!(w.embedding.shape(), (geom.vocab, geom.hidden));
        let l = &w.layers[0];
        assert_eq!(l.wq.len(), geom.q_heads);
        assert_eq!(l.wk.len(), geom.kv_heads);
        assert_eq!(l.wq[0].shape(), (geom.hidden, geom.head_dim));
        assert_eq!(l.wo.shape(), (geom.q_heads * geom.head_dim, geom.hidden));
    }

    #[test]
    fn mla_has_latent_projections() {
        let geom = SimGeometry::tiny(AttentionKind::Mla);
        let mut rng = SimRng::seed(2);
        let w = ModelWeights::init(&geom, &mut rng);
        let l = &w.layers[0];
        let down = l.w_down_latent.as_ref().expect("MLA down projection");
        assert_eq!(down.shape(), (geom.hidden, geom.mla_latent));
        assert_eq!(l.wk[0].shape(), (geom.mla_latent, geom.head_dim));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let geom = SimGeometry::tiny(AttentionKind::Mha);
        let a = ModelWeights::init(&geom, &mut SimRng::seed(7));
        let b = ModelWeights::init(&geom, &mut SimRng::seed(7));
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[1].wo, b.layers[1].wo);
    }

    #[test]
    fn param_count_positive() {
        let geom = SimGeometry::tiny(AttentionKind::Mqa);
        let w = ModelWeights::init(&geom, &mut SimRng::seed(3));
        assert!(w.param_count() > 1000);
    }
}
