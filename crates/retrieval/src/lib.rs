//! KV retrieval algorithms: the SpeContext retrieval head and every
//! baseline the paper compares against.
//!
//! All algorithms implement `spec_model::LayerSelector` (the layer-wise
//! query-aware interface of the dynamic-selection paradigm) or produce a
//! whole-model `SparsePlan` ahead of the forward pass (the speculative
//! paradigm of SpeContext). The implementations are complete from-scratch
//! ports of each baseline's selection mechanism:
//!
//! | module | algorithm | preprocessing |
//! |---|---|---|
//! | [`full`] | full (dense) attention | none |
//! | [`window`] | SlidingWindow, StreamingLLM | none (static policy) |
//! | [`quest`] | Quest (Tang et al. 2024) | paging + min/max page vectors |
//! | [`clusterkv`] | ClusterKV (Liu et al. 2024) | k-means over keys |
//! | [`shadowkv`] | ShadowKV (Sun et al. 2024) | int4 key quantization |
//! | [`spec_head`] | SpeContext retrieval head | DLM distillation (offline) |
//! | [`infinigen`] | InfiniGen speculative per-layer prefetch | none |
//! | [`oracle`] | teacher's own attention (upper bound) | none |

pub mod clusterkv;
pub mod common;
pub mod full;
pub mod infinigen;
pub mod oracle;
pub mod quest;
pub mod shadowkv;
pub mod spec_head;
pub mod window;

pub use common::{SelectionStats, SelectorConfig};
pub use full::FullAttention;
pub use spec_head::{MappingLevel, SpecSelection};
