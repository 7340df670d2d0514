//! The run protocol: what makes a run repeat.
//!
//! A timed run builds the host-speed calibrator, measures set-up over a
//! fixed number of cold repetitions, warms up with two untimed ops, then
//! times a fixed number of identical ops with a host-speed sample before
//! each, and reports the nearest-rank 10th percentile of the op times
//! over the run's speed index. A traced
//! pass is a separate run: a few ops with spans on, and the layers on
//! their own.

use crate::engine::{paper_budget, EngineBench, EngineShape, MAX_TRACED_OPS};
use crate::hostspeed::{speed_index, HostSpeed, RESIDENT_MB};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::record::{reports_dir, Provenance, RunRecord};
use crate::sim::{SimBench, SimKind};
use crate::spans::Tracer;
use crate::stats::{ms, quantile};
use crate::workloads::{Bench, Workload};
use std::time::{Duration, Instant};

/// Worker threads every run pins: closed loop, one client, one thread.
pub const THREADS: usize = 1;

/// Untimed ops before the timed ones.
const WARMUP_OPS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Run length; the op count is sized from it.
    pub seconds: u64,
    /// Traced pass instead of timed run.
    pub trace: bool,
    /// Self-check only: busy-wait this share of each op's time on top of
    /// it, inside the op wrapper.
    pub slowdown: f64,
    /// Self-check only: KV budget of the engine workloads.
    pub budget: usize,
    /// Print each metric by name as it is known.
    pub verbose: bool,
}

impl RunOptions {
    /// A run as the pipeline asks for it.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            slowdown: 0.0,
            budget: paper_budget(),
            verbose: true,
        }
    }
}

fn bench_for(opts: &RunOptions) -> Box<dyn Bench> {
    match opts.workload {
        Workload::Reason2k16k => Box::new(EngineBench::new(
            EngineShape::REASON_2K_16K,
            opts.seed,
            opts.budget,
        )),
        Workload::Prompt32k2k => Box::new(EngineBench::new(
            EngineShape::PROMPT_32K_2K,
            opts.seed,
            opts.budget,
        )),
        Workload::SimOpen => Box::new(SimBench::new(SimKind::Open, opts.seed)),
        Workload::SimChaos => Box::new(SimBench::new(SimKind::Chaos, opts.seed)),
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Runs one workload once and returns its record. Everything runs on the
/// calling thread with the crates pinned to [`THREADS`].
pub fn run(opts: &RunOptions) -> RunRecord {
    spec_parallel::with_threads(THREADS, || {
        if opts.trace {
            traced(opts)
        } else {
            timed(opts)
        }
    })
}

fn timed(opts: &RunOptions) -> RunRecord {
    timed_with(bench_for(opts), opts)
}

fn timed_with(mut bench: Box<dyn Bench>, opts: &RunOptions) -> RunRecord {
    // The calibrator's table is resident before anything of the workload
    // exists, so `VmHWM` less the table is exactly the peak of everything
    // else, set-up included.
    let mut host_speed = HostSpeed::new();
    let ops = opts.workload.ops_for(opts.seconds);

    // Set-up: everything before the first op, cold each time, timed in
    // batches long enough for the clock. A fixed count, like the ops: the
    // heap then goes through the same sequence in every run, and
    // `peak_rss_mb` repeats.
    let batch = opts.workload.setup_batch();
    let setup_s: Vec<f64> = (0..opts.workload.setup_samples_for(opts.seconds))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                bench.setup();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();

    for _ in 0..WARMUP_OPS {
        bench.op();
    }

    host_speed.sample();
    let mut speed_ms = Vec::with_capacity(ops + 1);
    let mut op_ms = Vec::with_capacity(ops);
    let mut first = None;
    let mut failed = 0;
    for _ in 0..ops {
        speed_ms.push(host_speed.sample());
        let op = bench.op();
        let mut wall = op.wall;
        if opts.slowdown > 0.0 {
            let extra = wall.mul_f64(opts.slowdown);
            spin_for(extra);
            wall += extra;
        }
        op_ms.push(ms(wall));
        if *first.get_or_insert(op.fingerprint) != op.fingerprint {
            failed += 1;
        }
    }

    speed_ms.push(host_speed.sample());

    // `op_ms` is the ops' p10 over the host's speed while they ran (see
    // `hostspeed`); the raw p10 goes to the diagnostics. Set-up stays
    // raw: its spread is not gated, and no sample is taken beside it.
    let speed = speed_index(&speed_ms);
    let raw_p10 = quantile(&op_ms, 0.10);
    let mut m = Metrics::default();
    m.put("op_ms", raw_p10 / speed);
    m.put("setup_s", quantile(&setup_s, 0.10));
    m.put("peak_rss_mb", peak_rss_mb() - RESIDENT_MB);
    let mut host = Metrics::default();
    host.put("host.speed_index", speed);
    host.put("host.op_ms_raw_p10", raw_p10);
    host.put_host_diagnostics(&op_ms);

    let mut problems = bench.check(&mut host);
    if failed > 0 {
        problems.push(format!("{failed} ops differ from the first op's output"));
    }
    let record = RunRecord {
        workload: opts.workload.name().into(),
        trace: false,
        provenance: Provenance::detect(opts.seed, THREADS, ops),
        correct: problems.is_empty(),
        attempted: op_ms.len() as u64,
        failed,
        metrics: m.finish(&END_TO_END),
        diagnostics: host.recorded(),
        problems,
    };
    if opts.verbose {
        println!("setup repetitions = {} count", setup_s.len() * batch);
        print_record(&record);
    }
    record
}

fn traced(opts: &RunOptions) -> RunRecord {
    let mut bench = bench_for(opts);
    bench.setup();
    // Room for every span of the engine workloads' mirrored ops (9 a
    // step), so recording never allocates inside a counted region.
    let mut tracer = Tracer::with_capacity(MAX_TRACED_OPS * 9 * 2048 + 4096);
    let mut m = Metrics::default();
    let outcome = bench.traced_pass(&mut m, &mut tracer);

    let spans = reports_dir().join(format!(
        "{}-seed{}.spans.tsv",
        opts.workload.name(),
        opts.seed
    ));
    match tracer.write_tsv(&spans) {
        Ok(()) => eprintln!("[{} spans -> {}]", tracer.spans().len(), spans.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", spans.display()),
    }

    let mut problems = outcome.problems;
    if outcome.failed > 0 {
        problems.push(format!(
            "{} ops differ from the reference output",
            outcome.failed
        ));
    }
    let record = RunRecord {
        workload: opts.workload.name().into(),
        trace: true,
        provenance: Provenance::detect(opts.seed, THREADS, outcome.attempted as usize),
        correct: problems.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: m.finish(&PER_LAYER),
        diagnostics: vec![],
        problems,
    };
    if opts.verbose {
        print_record(&record);
    }
    record
}

/// Every metric by name, with its unit.
pub fn print_record(r: &RunRecord) {
    let p = &r.provenance;
    println!(
        "# {} seed {} trace {} | {} ops | {} | {} ({}) x{} | SPEC_THREADS={} | git {}",
        r.workload,
        p.seed,
        u8::from(r.trace),
        p.ops,
        p.simd_tier,
        p.cpu_model,
        p.cpu_id,
        p.nproc,
        p.spec_threads,
        p.git_sha
    );
    for m in r.metrics.iter().chain(&r.diagnostics) {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for problem in &r.problems {
        println!("PROBLEM: {problem}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Op, TraceOutcome};

    /// A workload whose set-up touches far more memory than its ops.
    struct SetupHeavy;

    const SETUP_MB: usize = 96;

    impl Bench for SetupHeavy {
        fn setup(&mut self) {
            std::hint::black_box(vec![1u8; SETUP_MB << 20]);
        }

        fn op(&mut self) -> Op {
            Op {
                wall: Duration::from_micros(50),
                fingerprint: 1,
            }
        }

        fn check(&mut self, _: &mut Metrics) -> Vec<String> {
            Vec::new()
        }

        fn traced_pass(&mut self, _: &mut Metrics, _: &mut Tracer) -> TraceOutcome {
            unreachable!("a timed run")
        }
    }

    /// Work moved into set-up must show: the calibrator's table may not
    /// hide a set-up peak that is higher than the ops' resident memory.
    #[test]
    fn a_peak_during_set_up_shows_in_peak_rss() {
        let mut opts = RunOptions::new(Workload::Reason2k16k, 1, 1, false);
        opts.verbose = false;
        let record = timed_with(Box::new(SetupHeavy), &opts);
        assert!(record.correct);
        assert_eq!(record.attempted, Workload::Reason2k16k.ops_for(1) as u64);
        let rss = record
            .metrics
            .iter()
            .find(|m| m.name == "peak_rss_mb")
            .expect("every timed run reports it");
        assert!(rss.value >= SETUP_MB as f64, "peak_rss_mb = {}", rss.value);
    }
}
