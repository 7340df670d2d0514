//! System-level KV cache management for the SpeContext reproduction.
//!
//! While `spec-model` holds the *logical* KV tensors a forward pass reads,
//! this crate models the *physical* side the paper's system contributions
//! manipulate:
//!
//! * [`pages`] — the paged layout and per-page min/max metadata vectors
//!   used by the Quest baseline;
//! * [`budget`] — budgeted per-head selection buffers (the GPU-resident
//!   slots that hold the currently selected KV entries);
//! * [`elastic`] — the set-difference planner of Section 5.4: given last
//!   step's resident selection and this step's requirement, compute the
//!   minimal transfer plan (`S_now − S_last` in, `S_last − S_now` out).

pub mod budget;
pub mod elastic;
pub mod pages;

pub use budget::BudgetBuffer;
pub use elastic::{DiffPlan, ResidentSet};
pub use pages::PageTable;
