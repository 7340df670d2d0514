//! Model-internal KV state for forward passes.
//!
//! This is the *logical* cache the transformer reads during attention.
//! The system-level tiered cache (GPU/CPU placement, paging, elastic
//! loading) lives in `spec-kvcache`; the runtime keeps the two in sync.

use crate::config::{AttentionKind, SimGeometry};
use spec_tensor::Matrix;

/// KV state for one layer.
///
/// For MHA/GQA/MQA: per-KV-head key and value matrices (`seq x head_dim`).
/// For MLA: a single shared latent matrix (`seq x mla_latent`); keys and
/// values are up-projected on demand.
#[derive(Debug, Clone)]
pub enum LayerKv {
    /// Per-head K/V storage.
    PerHead {
        /// One `seq x head_dim` key matrix per KV head.
        keys: Vec<Matrix>,
        /// One `seq x head_dim` value matrix per KV head.
        values: Vec<Matrix>,
    },
    /// Shared latent storage (MLA).
    Latent {
        /// `seq x mla_latent` latent cache (the `c` of the paper's Fig. 5(e)).
        latent: Matrix,
    },
}

impl LayerKv {
    /// Creates empty storage matching the geometry.
    pub fn empty(geom: &SimGeometry) -> Self {
        match geom.attention {
            AttentionKind::Mla => LayerKv::Latent {
                latent: Matrix::default(),
            },
            _ => LayerKv::PerHead {
                keys: vec![Matrix::default(); geom.kv_heads],
                values: vec![Matrix::default(); geom.kv_heads],
            },
        }
    }

    /// Number of cached positions.
    pub fn seq_len(&self) -> usize {
        match self {
            LayerKv::PerHead { keys, .. } => keys.first().map_or(0, Matrix::rows),
            LayerKv::Latent { latent } => latent.rows(),
        }
    }
}

/// KV state for the whole model.
#[derive(Debug, Clone)]
pub struct ModelKv {
    /// One entry per decoder layer.
    pub layers: Vec<LayerKv>,
}

impl ModelKv {
    /// Creates empty caches for every layer.
    pub fn empty(geom: &SimGeometry) -> Self {
        Self {
            layers: (0..geom.layers).map(|_| LayerKv::empty(geom)).collect(),
        }
    }

    /// Number of cached positions (identical across layers).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKv::seq_len)
    }

    /// Drops every position from `len` on, in every layer: a decode step
    /// taken back (its K/V rows, or latent row, appended by the step).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the cached length.
    pub fn truncate(&mut self, len: usize) {
        for layer in &mut self.layers {
            match layer {
                LayerKv::PerHead { keys, values } => {
                    for m in keys.iter_mut().chain(values) {
                        m.truncate_rows(len);
                    }
                }
                LayerKv::Latent { latent } => latent.truncate_rows(len),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_has_zero_len() {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let kv = ModelKv::empty(&geom);
        assert_eq!(kv.seq_len(), 0);
        assert_eq!(kv.layers.len(), geom.layers);
    }

    #[test]
    fn truncate_takes_back_a_step() {
        for kind in [AttentionKind::Gqa, AttentionKind::Mla] {
            let geom = SimGeometry::tiny(kind);
            let model = crate::Model::new(geom, 3);
            let emb = model.embed_tokens(&[1, 2, 3]);
            let (mut kv, _) = model.prefill_embeddings(&emb, crate::PrefillMode::Exact);
            let before = kv.clone();
            let rows = |kv: &ModelKv| -> Vec<Vec<f32>> {
                kv.layers
                    .iter()
                    .flat_map(|layer| match layer {
                        LayerKv::PerHead { keys, values } => keys.iter().chain(values).collect(),
                        LayerKv::Latent { latent } => vec![latent],
                    })
                    .map(|m| m.as_slice().to_vec())
                    .collect()
            };
            model.decode_step(emb.row(0), 3, &mut kv);
            assert_eq!(kv.seq_len(), 4);
            kv.truncate(3);
            assert_eq!(kv.seq_len(), 3);
            assert_eq!(rows(&kv), rows(&before));
        }
    }

    #[test]
    fn mla_uses_latent_storage() {
        let geom = SimGeometry::tiny(AttentionKind::Mla);
        let kv = ModelKv::empty(&geom);
        assert!(matches!(kv.layers[0], LayerKv::Latent { .. }));
    }
}
