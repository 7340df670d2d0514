//! SpeContext: efficient long-context reasoning with speculative context
//! sparsity — the public API of the reproduction.
//!
//! This crate ties the substrates together into the system a downstream
//! user drives:
//!
//! * [`engine`] — [`engine::Engine`]: teacher model + distilled retrieval
//!   head + configuration; [`engine::Session`]: prefill/generate with
//!   speculative sparsity and elastic loading;
//! * [`evaluate`] — accuracy evaluation harness running any retrieval
//!   system over the synthetic LongBench/LongWriter workloads;
//! * [`pareto`] — Pareto-frontier utilities for Fig. 1;
//! * [`ablation`] — the C1/C2/C3 ablation stages of Fig. 11;
//! * [`report`] — table/row types every bench prints and serializes.
//!
//! # Quickstart
//!
//! ```
//! use specontext_core::engine::{Engine, EngineConfig};
//! use spec_model::{AttentionKind, SimGeometry};
//!
//! let engine = Engine::build(EngineConfig {
//!     geometry: SimGeometry::tiny(AttentionKind::Gqa),
//!     budget: 16,
//!     ..EngineConfig::default()
//! });
//! let mut session = engine.session();
//! let prompt: Vec<usize> = (0..32).collect();
//! session.prefill_tokens(&prompt);
//! let out = session.generate(8);
//! assert_eq!(out.tokens.len(), 8);
//! ```

pub mod ablation;
pub mod engine;
pub mod evaluate;
pub mod pareto;
pub mod report;

pub use ablation::AblationStage;
pub use engine::{Engine, EngineConfig, Session};
pub use evaluate::{longwriter_scores, EvalSystem};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use report::Table;
