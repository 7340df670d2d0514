//! From-scratch transformer decoder simulator for the SpeContext
//! reproduction.
//!
//! This crate provides:
//!
//! * [`config`] — real architectural geometries of the paper's models and
//!   the scaled-down [`config::SimGeometry`] actually executed on CPU;
//! * [`transformer`] — a decoder-only transformer with MHA/GQA/MQA/MLA
//!   attention, KV-cached decode, sparse attention plans and attention
//!   tracing;
//! * [`dlm`] — EAGLE-3-style distillation of a one-layer draft LM and its
//!   pruning to the lightweight retrieval head (paper Section 4);
//! * [`probe`] — semantic probe directions used by the synthetic workloads
//!   to plant evidence tokens the teacher genuinely attends to.
//!
//! # Example
//!
//! ```
//! use spec_model::config::{AttentionKind, SimGeometry};
//! use spec_model::transformer::{Model, PrefillMode};
//!
//! let model = Model::new(SimGeometry::tiny(AttentionKind::Gqa), 42);
//! let tokens: Vec<usize> = (0..16).collect();
//! let (kv, out) = model.prefill_tokens(&tokens, PrefillMode::Exact);
//! assert_eq!(kv.seq_len(), 16);
//! assert!(out.logits.iter().all(|v| v.is_finite()));
//! ```

pub mod config;
pub mod dlm;
pub mod kv;
pub mod probe;
pub mod transformer;
pub mod weights;

pub use config::{AttentionKind, ModelConfig, SimGeometry};
pub use dlm::{DistillOptions, Dlm, RetrievalHead, RetrievalHeadState};
pub use kv::{LayerKv, ModelKv};
pub use probe::{probe_direction, Probe};
pub use transformer::{LayerSelector, Model, PrefillMode, SparsePlan, StepOutput, StepTrace};
// Re-exported so `LayerSelector` implementors and callers name the
// scratch type without a direct `spec_tensor` dependency.
pub use spec_tensor::topk::SelectScratch;
