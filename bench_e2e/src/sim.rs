//! The simulator workloads: the committed sample trace replayed through
//! the cluster's event loops. What is timed is host time; every `_sim`
//! value is on the simulated clock and repeats exactly.

use crate::alloc::counted;
use crate::metrics::Metrics;
use crate::record::repo_root;
use crate::spans::{self_ns, Tracer};
use crate::stats::{median, min, ms, time_us};
use crate::workloads::{fingerprint, unattributed_problem, Bench, Op, TraceOutcome};
use spec_hwsim::{fleet, DeviceSpec, Fleet, LinkSpec, ReplicaRole};
use spec_model::ModelConfig;
use spec_runtime::{
    FairConfig, PreemptionPolicy, QueueDiscipline, Request, Scheduler, SchedulerConfig, ServingSim,
    StepCache, SystemKind,
};
use spec_serve::arrivals::{ArrivalSource, ClusterRequest, TraceConfig};
use spec_serve::cluster::{Cluster, ClusterConfig, ClusterReport, DisaggConfig};
use spec_serve::faults::{FaultPlan, RetryPolicy, ShedPolicy};
use spec_serve::router::{ReplicaHealth, ReplicaSnapshot, RouterKind};
use spec_serve::slo::SloSpec;
use spec_serve::trace::{self, ReplayArrivals};
use spec_telemetry::{completion_time_histograms, export_trace, Event, DEFAULT_SUB_BITS};
use std::time::{Duration, Instant};

/// KV budget of every simulated replica (the paper's 2048, real scale).
const BUDGET: usize = 2048;

/// Ops of each kind (untraced, traced) in a traced pass.
const TRACED_OPS: usize = 3;

/// Which event loop the trace goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `Cluster::run_source` on `replay_gate`'s pinned 2×A100 unified
    /// cluster: the fault-free open loop.
    Open,
    /// `Cluster::run_faulted` on a 2 prefill + 2 decode fleet over
    /// InfiniBand under [`chaos_plan`].
    Chaos,
}

/// `replay_gate`'s scheduler: DRR with preemption, so checkpoints and
/// restores run, not just FIFO decode.
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

/// The pinned fault plan of `sim_chaos`. Its seed is fixed, like the
/// cluster: the plan is configuration of the system under test, and a
/// plan that moved with `--seed` would change the number of crashes —
/// the amount of work — from run to run.
///
/// Health-aware routing is off. With it on, a split fleet panics in
/// `Scheduler::push_preloaded` ("requests must be pushed in arrival
/// order") on this trace for most plan seeds; see the README.
pub fn chaos_plan() -> FaultPlan {
    // The trace overloads four A100s (arrivals end near 1 700 s, service
    // takes 9 000 s): an MTBF of 3 000 s per replica crashes 12 times, and
    // a watermark of 12 000 sheds only the light tenant, from 3 000
    // outstanding.
    FaultPlan::none()
        .seed(11)
        .mtbf(3000.0, 5.0)
        .random_stragglers(60.0, 10.0, 5.0)
        .kv_loss(0.1)
        .retry(RetryPolicy::default())
        .shed(ShedPolicy::new(12_000).weights(vec![(0, 4), (1, 1)]))
        .probation(2.0)
}

struct Built {
    source: ReplayArrivals,
    /// The cluster set-up built; the first op after a set-up consumes it,
    /// later ops build their own outside the timed region (a run mutates
    /// its cluster).
    cluster: Option<Cluster>,
}

/// A simulator workload.
pub struct SimBench {
    kind: SimKind,
    seed: u64,
    slo: SloSpec,
    built: Option<Built>,
    last: Option<ClusterReport>,
}

impl SimBench {
    /// The workload `kind`. `seed` only feeds the generated-arrivals
    /// kernel of the traced pass: the replayed trace is the committed
    /// file whatever the seed.
    pub fn new(kind: SimKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            slo: SloSpec::new(10.0, 0.02),
            built: None,
            last: None,
        }
    }

    fn trace_bytes() -> Vec<u8> {
        let path = repo_root().join("results/sample_trace.sptr");
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    }

    fn build_cluster(&self) -> Cluster {
        let model = ModelConfig::deepseek_distill_llama_8b();
        let router = RouterKind::LeastOutstanding.build();
        match self.kind {
            SimKind::Open => Cluster::from_fleet(
                &model,
                &fleet::homogeneous(DeviceSpec::a100_80g(), 2),
                BUDGET,
                SystemKind::SpeContext,
                ClusterConfig::new().scheduler(scheduler()),
                router,
            ),
            SimKind::Chaos => Cluster::from_fleet_slots(
                &model,
                &Fleet::new()
                    .with_role(DeviceSpec::a100_80g(), ReplicaRole::Prefill, 2)
                    .with_role(DeviceSpec::a100_80g(), ReplicaRole::Decode, 2)
                    .build_slots(),
                BUDGET,
                SystemKind::SpeContext,
                ClusterConfig::new()
                    .scheduler(scheduler())
                    .disagg(DisaggConfig::new().link(LinkSpec::infiniband())),
                router,
            ),
        }
    }

    fn source(&mut self) -> &mut ReplayArrivals {
        &mut self.built.as_mut().expect("setup() runs before ops").source
    }

    /// One replay, timed; `traced` records the telemetry stream.
    fn replay(&mut self, traced: bool) -> (Duration, ClusterReport, Vec<Event>) {
        let from_setup = self.built.as_mut().and_then(|b| b.cluster.take());
        let mut cluster = from_setup.unwrap_or_else(|| self.build_cluster());
        let (kind, slo, plan) = (self.kind, self.slo, chaos_plan());
        let source = self.source();
        source.rewind();
        let start = Instant::now();
        let (report, events) = match (kind, traced) {
            (SimKind::Open, false) => (cluster.run_source(source, &slo), Vec::new()),
            (SimKind::Open, true) => cluster.run_source_traced(source, &slo),
            (SimKind::Chaos, false) => (cluster.run_faulted(source, &slo, &plan), Vec::new()),
            (SimKind::Chaos, true) => cluster.run_faulted_traced(source, &slo, &plan),
        };
        (start.elapsed(), report, events)
    }

    fn requests(&self) -> usize {
        self.built.as_ref().map_or(0, |b| b.source.len())
    }
}

fn preemptions(r: &ClusterReport) -> usize {
    r.replicas.iter().map(|x| x.report.preemptions).sum()
}

fn report_fingerprint(r: &ClusterReport) -> u64 {
    let f = &r.faults;
    fingerprint(
        [
            r.completed as u64,
            r.rejected as u64,
            r.makespan.to_bits(),
            r.throughput.to_bits(),
            r.slo.attainment.to_bits(),
            r.slo.goodput_tokens_per_s.to_bits(),
            r.slo.ttft.p95.to_bits(),
            r.slo.latency.p95.to_bits(),
            r.queue_depth.len() as u64,
            f.crashes as u64,
            f.recoveries as u64,
            f.lost_in_flight as u64,
            f.retries as u64,
            f.dead_lettered as u64,
            f.shed as u64,
            f.checkpoints_migrated as u64,
            f.checkpoints_lost as u64,
            f.straggler_windows as u64,
            r.handoffs.count as u64,
            r.handoffs.bytes.to_bits(),
            preemptions(r) as u64,
        ]
        .into_iter()
        .chain(r.replicas.iter().map(|x| x.report.completed.len() as u64)),
    )
}

/// Terminal-state conservation, and on `sim_chaos` that every recovery
/// path actually ran.
fn check_report(kind: SimKind, r: &ClusterReport, requests: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let terminal = r.completed + r.rejected + r.faults.dead_lettered + r.faults.shed;
    if terminal != requests {
        problems.push(format!(
            "conservation broken: {terminal} terminal states for {requests} requests"
        ));
    }
    if kind == SimKind::Chaos {
        for (what, n) in [
            ("crashes", r.faults.crashes),
            ("retries", r.faults.retries),
            ("handoffs", r.handoffs.count),
            ("preemptions", preemptions(r)),
        ] {
            if n == 0 {
                problems.push(format!("no {what}: sim_chaos is not exercising its path"));
            }
        }
    }
    problems
}

impl Bench for SimBench {
    fn setup(&mut self) {
        self.built = None;
        let source =
            ReplayArrivals::new(Self::trace_bytes()).expect("the committed sample trace is valid");
        let cluster = self.build_cluster();
        self.built = Some(Built {
            source,
            cluster: Some(cluster),
        });
    }

    fn op(&mut self) -> Op {
        let (wall, report, _) = self.replay(false);
        let fingerprint = report_fingerprint(&report);
        self.last = Some(report);
        Op { wall, fingerprint }
    }

    fn check(&mut self, _diagnostics: &mut Metrics) -> Vec<String> {
        let report = self.last.as_ref().expect("ops run before check()");
        check_report(self.kind, report, self.requests())
    }

    fn traced_pass(&mut self, m: &mut Metrics, t: &mut Tracer) -> TraceOutcome {
        let mut outcome = TraceOutcome::default();

        // Set-up, piece by piece.
        let bytes = Self::trace_bytes();
        let mut decode_us = Vec::new();
        let mut build_ms = Vec::new();
        for _ in 0..20 {
            let copy = bytes.clone();
            let start = Instant::now();
            let source = t.scope("serve.trace_decode", |_| ReplayArrivals::new(copy));
            decode_us.push(start.elapsed().as_secs_f64() * 1e6);
            drop(source);
            let start = Instant::now();
            let cluster = t.scope("serve.cluster_build", |_| self.build_cluster());
            build_ms.push(ms(start.elapsed()));
            drop(cluster);
        }
        self.setup();
        let requests = self.requests();
        m.put(
            "serve.trace_decode_us_per_req",
            median(&decode_us) / requests as f64,
        );
        m.put("serve.cluster_build_ms", median(&build_ms));

        // Untraced and traced replays, interleaved.
        let mut untraced_ms = Vec::new();
        let mut traced_ms = Vec::new();
        let mut reference: Option<ClusterReport> = None;
        let mut events = Vec::new();
        for i in 0..TRACED_OPS {
            t.set_request(i as u32 + 1);
            let (wall, report, _) = t.scope("op", |t| t.scope("serve.run", |_| self.replay(false)));
            untraced_ms.push(ms(wall));
            let (wall, traced_report, stream) =
                t.scope("op", |t| t.scope("serve.run_traced", |_| self.replay(true)));
            traced_ms.push(ms(wall));
            let first = reference.get_or_insert(report.clone());
            outcome.attempted += 2;
            if report_fingerprint(&report) != report_fingerprint(first) {
                outcome.failed += 1;
            }
            if traced_report != *first {
                outcome.failed += 1;
                outcome.problems.push(format!(
                    "traced replay {i} differs from the untraced report"
                ));
            }
            events = stream;
        }
        t.set_request(0);
        let report = reference.expect("at least one traced op");
        outcome
            .problems
            .extend(check_report(self.kind, &report, requests));

        let spans = t.spans();
        let own = self_ns(spans);
        let (op_ns, op_own_ns) = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "op")
            .fold((0, 0), |(d, o), (s, own)| (d + s.dur_ns(), o + own));
        m.put("core.unattributed_share", op_own_ns as f64 / op_ns as f64);
        outcome.problems.extend(unattributed_problem(m));

        let host_ms = min(&untraced_ms);
        m.put_host_diagnostics(&untraced_ms);
        m.put("serve.host_us_per_req", host_ms * 1e3 / requests as f64);
        m.put(
            "serve.host_us_per_event",
            host_ms * 1e3 / events.len() as f64,
        );
        m.put("serve.events_total", events.len() as f64);
        let overhead = min(&traced_ms) / host_ms;
        m.put("telemetry.traced_over_untraced", overhead);
        m.put("host.tracing_overhead", overhead);
        let two = (0..2)
            .map(|_| ms(spec_parallel::with_threads(2, || self.replay(false)).0))
            .collect::<Vec<_>>();
        m.put("parallel.t2_over_t1", min(&two) / host_ms);
        let (_, allocs) = counted(|| self.replay(false));
        m.put(
            "serve.allocs_per_req",
            allocs.calls as f64 / requests as f64,
        );

        // Exact counts and simulated-clock outcomes: a change meant only
        // to speed the simulator must leave every one identical.
        let f = &report.faults;
        m.put("serve.completed", report.completed as f64);
        m.put("serve.rejected", report.rejected as f64);
        m.put("serve.dead_lettered", f.dead_lettered as f64);
        m.put("serve.shed", f.shed as f64);
        m.put("serve.retries", f.retries as f64);
        m.put("serve.crashes", f.crashes as f64);
        m.put("serve.preemptions", preemptions(&report) as f64);
        m.put("serve.handoffs", report.handoffs.count as f64);
        // Budget-capped resident KV × Eq. 6 bytes/token, as priced by the
        // cluster; computed, no byte moves on the CPU.
        m.put("serve.handoff_gb_computed", report.handoffs.bytes / 1e9);
        m.put("serve.makespan_sim_s", report.makespan);
        m.put(
            "serve.goodput_sim_rps",
            report.slo.attainment * requests as f64 / report.makespan,
        );
        m.put("serve.ttft_p95_sim_s", report.slo.ttft.p95);
        m.put("serve.slo_attainment_sim", report.slo.attainment);

        m.put(
            "telemetry.perfetto_export_ms",
            time_us(3, || {
                std::hint::black_box(export_trace(&events));
            }) / 1e3,
        );
        m.put(
            "telemetry.histogram_fold_ms",
            time_us(5, || {
                std::hint::black_box(completion_time_histograms(&events, DEFAULT_SUB_BITS));
            }) / 1e3,
        );
        self.layer_kernels(m, &bytes);
        outcome
    }
}

impl SimBench {
    /// The layers under the event loop, called on their own with the
    /// workload's inputs.
    fn layer_kernels(&self, m: &mut Metrics, bytes: &[u8]) {
        let requests: Vec<Request> = trace::decode(bytes)
            .expect("the committed sample trace is valid")
            .iter()
            .map(|cr| cr.request)
            .collect();
        let sim = ServingSim::new(
            ModelConfig::deepseek_distill_llama_8b(),
            DeviceSpec::a100_80g(),
            BUDGET,
        );

        // One replica's scheduler on the same requests, no cluster.
        let single = Scheduler::new(sim.clone(), SystemKind::SpeContext, scheduler());
        let start = Instant::now();
        std::hint::black_box(single.run(&requests));
        m.put(
            "runtime.scheduler_run_us_per_req",
            start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
        );

        // The device model behind every micro-step, with and without the
        // step cache, over batch compositions the scheduler revisits.
        let keys: Vec<(usize, usize, usize)> = (1..=4)
            .flat_map(|r| (1..=16).map(move |k| (r, k * 512, k * 256)))
            .collect();
        let uncached = time_us(5, || {
            for &(r, s, p) in &keys {
                std::hint::black_box(sim.step_time(SystemKind::SpeContext, r, s, p));
            }
        }) / keys.len() as f64;
        let mut cache = StepCache::new();
        let mut sweep = || {
            for &(r, s, p) in &keys {
                std::hint::black_box(sim.step_time_cached(
                    &mut cache,
                    SystemKind::SpeContext,
                    r,
                    s,
                    p,
                ));
            }
        };
        sweep();
        let cached = time_us(51, sweep) / keys.len() as f64;
        m.put("hwsim.step_time_uncached_us", uncached);
        m.put("runtime.step_cache_speedup", uncached / cached);

        // Routing over a fleet-sized snapshot set.
        let fleet_size = match self.kind {
            SimKind::Open => 2,
            SimKind::Chaos => 4,
        };
        let snapshots: Vec<ReplicaSnapshot> = (0..fleet_size)
            .map(|index| ReplicaSnapshot {
                index,
                active: true,
                queued: 3 * (fleet_size - index),
                running: 4,
                kv_pressure: 0.5,
                health: ReplicaHealth::Healthy,
            })
            .collect();
        let mut router = RouterKind::LeastOutstanding.build();
        let probe = ClusterRequest {
            request: requests[0],
            session: 0,
        };
        let calls = 10_000;
        m.put(
            "serve.route_ns_per_call",
            time_us(21, || {
                for _ in 0..calls {
                    std::hint::black_box(router.route(&probe, std::hint::black_box(&snapshots)));
                }
            }) * 1e3
                / calls as f64,
        );

        // The generated-arrivals path the replay bypasses.
        let count = 100_000;
        let cfg = TraceConfig::diurnal(2.0, 40.0, 600.0)
            .shapes(vec![
                spec_runtime::Workload::new(2048, 1024, 3),
                spec_runtime::Workload::new(8192, 512, 1),
            ])
            .count(count)
            .seed(self.seed);
        let start = Instant::now();
        let mut source = cfg.source();
        let mut generated = 0;
        while let Some(cr) = source.next_request() {
            std::hint::black_box(cr);
            generated += 1;
        }
        assert_eq!(generated, count, "generated source ended early");
        m.put(
            "serve.arrival_gen_us_per_req",
            start.elapsed().as_secs_f64() * 1e6 / count as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(n: usize) -> Vec<ClusterRequest> {
        let mut all = trace::decode(&SimBench::trace_bytes()).expect("valid sample");
        all.truncate(n);
        all
    }

    // The pins ROADMAP's "one cluster loop" item will delete loops
    // against, checked on the benchmark's own fleets and trace.
    #[test]
    fn empty_fault_plan_and_tracing_leave_the_report_unchanged() {
        let requests = prefix(256);
        let slo = SloSpec::new(10.0, 0.02);
        for kind in [SimKind::Open, SimKind::Chaos] {
            let bench = SimBench::new(kind, 1);
            let plain = bench.build_cluster().run(&requests, &slo);
            let faulted = bench
                .build_cluster()
                .run_fault_plan(&requests, &slo, &FaultPlan::none());
            assert_eq!(
                faulted, plain,
                "{kind:?}: empty plan differs from run_source"
            );
            let (traced, events) = bench.build_cluster().run_traced(&requests, &slo);
            assert_eq!(traced, plain, "{kind:?}: traced differs from untraced");
            assert!(!events.is_empty());
            assert!(check_report(SimKind::Open, &plain, requests.len()).is_empty());
        }
    }

    #[test]
    fn chaos_workload_exercises_every_recovery_path() {
        let mut bench = SimBench::new(SimKind::Chaos, 1);
        bench.setup();
        let first = bench.op();
        let problems = bench.check(&mut Metrics::default());
        assert!(problems.is_empty(), "{problems:?}");
        // Identical ops: same seed, same work.
        assert_eq!(bench.op().fingerprint, first.fingerprint);
    }

    #[test]
    fn missing_recovery_paths_are_reported() {
        let mut bench = SimBench::new(SimKind::Open, 1);
        bench.setup();
        bench.op();
        let report = bench.last.clone().expect("an op ran");
        // A fault-free report judged as the chaos workload names all four.
        let problems = check_report(SimKind::Chaos, &report, bench.requests());
        assert!(
            problems.iter().any(|p| p.contains("no crashes")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("no handoffs")),
            "{problems:?}"
        );
        // And a wrong request count breaks conservation.
        assert!(check_report(SimKind::Open, &report, 1)
            .iter()
            .any(|p| p.contains("conservation")));
    }
}
