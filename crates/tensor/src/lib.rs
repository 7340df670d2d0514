//! Minimal f32 tensor kernels for the SpeContext reproduction.
//!
//! This crate is the numerical substrate for everything else in the
//! workspace: the transformer simulator (`spec-model`), the retrieval
//! algorithms (`spec-retrieval`) and the workload scorers all run on the
//! dense [`Matrix`] type and the kernels defined here.
//!
//! The kernels are allocation-explicit and deterministic.
//! [`Matrix::matmul`] (cache-blocked, B-packed; see [`gemm`]) and the
//! per-element kernels (softmax and SiLU over a libm-free [`ops::exp`],
//! key scoring and the attention value pass over ranges or an index list,
//! [`Matrix::vecmat_into`], the set top-k) are serial, one body per
//! [`dispatch`] tier and identical at every `SPEC_SIMD` tier. Only the
//! k-means assignment sweep fans out, on the workspace's worker pool over
//! disjoint point bands (see [`kmeans`]), so its results are
//! **bit-for-bit identical at any thread count** (`SPEC_THREADS` env var; default: all available
//! cores). Architectural fidelity — which tokens get selected, how much
//! data moves — still comes first; both only make the sweeps finish
//! sooner.
//!
//! # Example
//!
//! ```
//! use spec_tensor::{Matrix, ops};
//!
//! let q = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! let scores = q.matmul(&k.transposed());
//! let weights = ops::softmax_rows(&scores);
//! assert!((weights.get(0, 0) - weights.get(1, 1)).abs() < 1e-6);
//! ```

pub mod dispatch;
pub mod gemm;
pub mod keyblocks;
pub mod kmeans;
pub mod lut;
pub mod matrix;
pub mod ops;
pub mod quant;
pub mod rng;
pub mod stats;
pub mod topk;

pub use keyblocks::{KeyBlocks, QuantKeyBlocks};
pub use matrix::Matrix;
pub use rng::SimRng;
pub use stats::PercentileSummary;
