//! The SpeContext runtime: memory model, adaptive management, dataflow
//! paradigms and the end-to-end serving simulator.
//!
//! * [`memory`] — the theoretical memory model of Section 6 (Eq. 6–8);
//! * [`adaptive`] — Algorithm 1 (compile-time sequence-length thresholds)
//!   and Algorithm 2 (progressive per-layer offloading during inference);
//! * [`costs`] — kernel-cost builders mapping a model's *real* geometry to
//!   `spec_hwsim::KernelCost` values per decode/prefill op;
//! * [`dataflow`] — the five per-step dataflow paradigms of Fig. 7, laid
//!   out on the two-stream event simulator;
//! * [`serving`] — end-to-end throughput estimation for a workload
//!   `[input_len, output_len] × requests` on a device (Table 3, Fig. 10,
//!   Fig. 11);
//! * [`scheduler`] — the continuous-batching request scheduler (Fig. 3's
//!   serving system), with tenants, preemption and prefill/decode roles;
//! * [`exec`] — the functional decode executor that couples a real
//!   (simulated) model, a retrieval algorithm and the elastic loading
//!   buffers to produce *accuracy* results and transfer statistics.
//!
//! The distilled LM serves only as the retrieval head (Section 4): no
//! module here drafts tokens with it.

pub mod adaptive;
pub mod costs;
pub mod dataflow;
pub mod exec;
pub mod memory;
pub mod scheduler;
pub mod serving;

pub use adaptive::{AdaptiveManager, Thresholds};
pub use dataflow::{DataflowKind, StepBreakdown};
pub use memory::MemoryModel;
pub use scheduler::{
    Admission, BatchState, CompletedRequest, CrashedWork, FairConfig, HandoffRecord,
    PreemptionPolicy, QueueDiscipline, Request, RestorableRequest, ScheduleReport, Scheduler,
    SchedulerConfig,
};
pub use serving::{
    IdMap, MemoryPolicy, ServingSim, StepCache, SystemKind, ThroughputReport, Workload, STEP_BLOCK,
};
// The role enum lives beside the fleet model in `spec_hwsim`; re-export
// it so scheduler users name it without a second import.
pub use spec_hwsim::ReplicaRole;
