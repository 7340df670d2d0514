//! Allocation regression test for the simulator's hot path.
//!
//! Before the micro-step pass one simulated request cost ~1 300 heap
//! allocations (a label-formatting timeline per step-cache miss, a
//! thresholds vector per iteration, a tenant list per admission
//! decision, a set and two vectors per replica advance), and until the
//! cluster kept its routing snapshots in a buffer, one more per routed
//! request. This pins what is left: on the 512-request prefix about 0.4
//! allocations per request fault-free and about 1.05 under the fault
//! plan — the run's own bookkeeping (the growing completion, queue and
//! event-key containers, the report, the pages of the fleet's shared
//! step tables) — and none at all per decode iteration, through the
//! table walk of a quiet run.

use spec_hwsim::{fleet, DeviceSpec, Fleet, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{
    BatchState, FairConfig, PreemptionPolicy, QueueDiscipline, Request, Scheduler, SchedulerConfig,
    ServingSim, StepCache, SystemKind,
};
use spec_serve::arrivals::ClusterRequest;
use spec_serve::cluster::{Cluster, ClusterConfig, DisaggConfig};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_serve::{FaultPlan, RetryPolicy, ShedPolicy};
use spec_telemetry::NullSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads keep
    /// their own count).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the only extra
// work is a bump of a const-initialized, destructor-free thread-local
// cell, which neither allocates nor can be torn down mid-call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const BUDGET: usize = 2048;
const PREFIX: usize = 512;
/// Allocations allowed per 100 replayed requests: measured 40
/// (fault-free) and 105 (faulted), with head-room for an allocator- or
/// container-growth-policy change, not for a per-request `Vec`.
const OPEN_ALLOCS_PER_100: u64 = 60;
const FAULTED_ALLOCS_PER_100: u64 = 150;

/// `bench_e2e`'s scheduler (DRR with preemption).
fn scheduler() -> SchedulerConfig {
    SchedulerConfig {
        max_batch: 4,
        admission_stride: 4,
        fair: FairConfig {
            discipline: QueueDiscipline::DeficitRoundRobin,
            weights: vec![(0, 4), (1, 1)],
            preemption: PreemptionPolicy::DeficitRoundRobin,
            ..FairConfig::default()
        },
    }
}

fn model() -> ModelConfig {
    ModelConfig::deepseek_distill_llama_8b()
}

fn sample_prefix() -> Vec<ClusterRequest> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    let mut trace = spec_serve::trace::decode(&bytes).expect("sample trace decodes");
    trace.truncate(PREFIX);
    trace
}

/// `sim_open`: the sample trace's prefix on the 2×A100 unified cluster.
#[test]
fn open_loop_replay_allocates_a_few_times_per_request() {
    let trace = sample_prefix();
    let mut cluster = Cluster::from_fleet(
        &model(),
        &fleet::homogeneous(DeviceSpec::a100_80g(), 2),
        BUDGET,
        SystemKind::SpeContext,
        ClusterConfig::new().scheduler(scheduler()),
        RouterKind::LeastOutstanding.build(),
    );
    let (report, allocations) = counted(|| cluster.run(&trace, &SloSpec::new(10.0, 0.02)));
    assert_eq!(report.completed + report.rejected, PREFIX);
    assert!(
        allocations * 100 <= OPEN_ALLOCS_PER_100 * PREFIX as u64,
        "{allocations} allocations for {PREFIX} requests"
    );
}

/// `sim_chaos`: the same prefix on 2 prefill + 2 decode replicas under
/// the benchmark's fault plan.
#[test]
fn faulted_split_fleet_replay_allocates_a_few_times_per_request() {
    let trace = sample_prefix();
    let slots = Fleet::new()
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, 2)
        .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 2)
        .build_slots();
    let mut cluster = Cluster::from_fleet_slots(
        &model(),
        &slots,
        BUDGET,
        SystemKind::SpeContext,
        ClusterConfig::new()
            .scheduler(scheduler())
            .disagg(DisaggConfig::new().link(LinkSpec::infiniband())),
        RouterKind::LeastOutstanding.build(),
    );
    let plan = FaultPlan::none()
        .seed(11)
        .mtbf(3000.0, 5.0)
        .random_stragglers(60.0, 10.0, 5.0)
        .kv_loss(0.1)
        .retry(RetryPolicy::default())
        .shed(ShedPolicy::new(12_000).weights(vec![(0, 4), (1, 1)]))
        .probation(2.0);
    let slo = SloSpec::new(10.0, 0.02);
    let (report, allocations) = counted(|| cluster.run_fault_plan(&trace, &slo, &plan));
    let terminal =
        report.completed + report.rejected + report.faults.dead_lettered + report.faults.shed;
    assert_eq!(terminal, PREFIX);
    assert!(report.handoffs.count > 0, "the split fleet must hand off");
    assert!(
        allocations * 100 <= FAULTED_ALLOCS_PER_100 * PREFIX as u64,
        "{allocations} allocations for {PREFIX} requests"
    );
}

/// 10 000 consecutive decode iterations over a warm step cache — one
/// quiet run walking twenty table pages, through 2 500 admission sweeps
/// that find the queue empty — allocate nothing, and land on the same
/// clock bits as 12 500 single micro-steps.
#[test]
fn decode_iterations_on_a_warm_cache_allocate_nothing() {
    let sim = ServingSim::new(model(), DeviceSpec::a100_80g(), BUDGET);
    let scheduler = Scheduler::new(sim, SystemKind::SpeContext, scheduler());
    let mut state = BatchState::new();
    for id in 0..4 {
        state.push(Request::new(id, id as u32 % 2, 1024, 20_000, 0.0));
    }
    let mut cache = StepCache::new();
    // Admit the batch and get past its first tokens.
    for _ in 0..64 {
        scheduler.step(&mut state, &mut cache);
    }
    assert_eq!((state.running_len(), state.queued()), (4, 0));
    // Warm the cache: a copy of the engine walks the next 10 000
    // iterations (every fourth one opens an admission sweep that finds
    // the queue empty) one micro-step at a time.
    let mut warm = state.clone();
    let priced = cache.len();
    for _ in 0..12_500 {
        scheduler.step(&mut warm, &mut cache);
    }
    // A miss prices a whole block of lengths. The block holding the
    // length before the run's first is already in the table and 10 000
    // lengths further on is 625 blocks further on, so the run adds
    // exactly 625 blocks.
    assert_eq!(
        cache.len() - priced,
        10_000,
        "one new mean length per iteration"
    );
    let ((), allocations) =
        counted(|| scheduler.advance_until(&mut state, &mut cache, warm.now(), &mut NullSink));
    assert_eq!(state.now().to_bits(), warm.now().to_bits());
    assert!(
        state.completed().is_empty(),
        "nothing may finish in the window"
    );
    assert_eq!(
        allocations, 0,
        "a decode iteration on a warm cache must not allocate"
    );
}
