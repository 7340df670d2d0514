//! Analytical + discrete-event hardware simulator.
//!
//! The paper's throughput results (Table 3, Figs. 10–11) are properties of
//! a bandwidth/compute-bound pipeline: how long each kernel takes on the
//! GPU, how long each KV transfer takes over PCIe, and how much of the two
//! overlaps. This crate reproduces that pipeline:
//!
//! * [`device`] — device specifications (A100-80GB cloud node, RTX 4060
//!   Laptop edge node) with bandwidths, FLOPS and capacities;
//! * [`cost`] — a roofline kernel cost model parameterized by an engine
//!   efficiency profile (eager / FlashAttention / FlashInfer);
//! * [`event`] — a two-stream discrete-event simulator (compute stream +
//!   copy stream) with dependencies, the substrate for the asynchronous
//!   prefetch dataflow of Section 5 — one timeline, or `W` of one op
//!   graph side by side in [`Lanes`];
//! * [`link`] — inter-replica interconnect classes (NVLink/InfiniBand/
//!   Ethernet) pricing the prefill→decode KV hop in disaggregated
//!   fleets;
//! * [`fleet`] — replica slot lists with per-slot
//!   [`ReplicaRole`]s and fleet-level $/hour.
//!
//! Everything is in SI seconds and bytes; no wall-clock measurement is
//! involved, so results are exactly reproducible.

pub mod cost;
pub mod device;
pub mod event;
pub mod fleet;
pub mod gantt;
pub mod link;

pub use cost::{EngineProfile, KernelCost};
pub use device::DeviceSpec;
pub use event::{EventSim, Lanes, OpLabel, OpRecord, StreamId};
pub use fleet::{Fleet, FleetSlot, ReplicaRole};
pub use link::LinkSpec;
