//! Round-trip and golden-layout tests for the binary trace format.
//!
//! The format's promises, pinned here:
//!
//! 1. **Round-trip** — record → encode → decode → replay yields the
//!    identical `ClusterRequest` stream, and cluster runs over a replay
//!    produce identical `SloReport`s.
//! 2. **Layout** — the on-disk encoding is pinned byte-for-byte by a
//!    golden test, so a codec change cannot silently invalidate
//!    committed traces.
//! 3. **Size** — the committed sample trace stays within the format's
//!    ≤ 16 bytes/request budget.
//! 4. **API equivalence** — the streaming `ArrivalSource` path produces
//!    byte-identical traces to the historical eager `generate`.

use proptest::prelude::*;
use spec_hwsim::DeviceSpec;
use spec_model::ModelConfig;
use spec_runtime::{ServingSim, SystemKind, Workload};
use spec_serve::arrivals::{generate, ArrivalSource, ClosedLoopConfig, TenantClass, TraceConfig};
use spec_serve::cluster::{Cluster, ClusterConfig, ClusterReport};
use spec_serve::router::RouterKind;
use spec_serve::slo::SloSpec;
use spec_serve::trace::{
    decode, encode, sample_trace_config, RecordingSource, ReplayArrivals, TraceWriter,
};
use spec_tensor::SimRng;

fn cluster(n: usize) -> Cluster {
    Cluster::new(
        (0..n)
            .map(|_| {
                ServingSim::new(
                    ModelConfig::deepseek_distill_llama_8b(),
                    DeviceSpec::a100_80g(),
                    2048,
                )
            })
            .collect(),
        SystemKind::SpeContext,
        ClusterConfig::new(),
        RouterKind::LeastOutstanding.build(),
    )
}

fn arb_config() -> impl Strategy<Value = TraceConfig> {
    // variant packs (bursty, tenanted): bit 0 = bursty, bit 1 = tenanted.
    (0u64..1000, 2usize..24, 1.0f64..16.0, 0usize..4).prop_map(|(seed, count, rate, variant)| {
        let (bursty, tenanted) = (variant & 1 != 0, variant & 2 != 0);
        let cfg = if bursty {
            TraceConfig::bursty(rate, rate * 8.0, 0.1)
        } else {
            TraceConfig::poisson(rate)
        };
        let cfg = if tenanted {
            cfg.tenants(vec![
                TenantClass::new(0, 3, vec![Workload::new(2048, 512, 3)]),
                TenantClass::new(1, 1, vec![Workload::new(4096, 1024, 1)]),
            ])
        } else {
            cfg.shapes(vec![
                Workload::new(2048, 512, 3),
                Workload::new(4096, 1024, 1),
            ])
        };
        cfg.count(count).seed(seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// record → encode → decode and encode → replay agree exactly, and
    /// re-encoding the decoded stream reproduces the bytes (the tick
    /// grid is the canonical representation, not f64 seconds).
    #[test]
    fn encode_decode_replay_round_trip(cfg in arb_config()) {
        let recorded = generate(&cfg, &mut SimRng::seed(cfg.seed));
        let bytes = encode(recorded.iter().copied());
        let decoded = decode(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), recorded.len());
        let mut replay = ReplayArrivals::new(bytes.clone()).unwrap();
        let mut streamed = Vec::new();
        while let Some(cr) = replay.next_request() {
            streamed.push(cr);
        }
        prop_assert_eq!(&streamed, &decoded);
        prop_assert_eq!(encode(decoded), bytes);
    }

    /// Cluster runs over a replayed trace are deterministic: identical
    /// `ClusterReport`s (hence identical `SloReport`s) across replays.
    #[test]
    fn replayed_runs_produce_identical_slo_reports(
        seed in 0u64..200,
        count in 4usize..16,
        replicas in 1usize..4,
    ) {
        let cfg = TraceConfig::bursty(2.0, 16.0, 0.1)
            .shapes(vec![Workload::new(2048, 512, 3), Workload::new(4096, 1024, 1)])
            .count(count)
            .seed(seed);
        let bytes = encode(generate(&cfg, &mut SimRng::seed(seed)));
        let run = || -> ClusterReport {
            let mut replay = ReplayArrivals::new(bytes.clone()).unwrap();
            cluster(replicas).run_source(&mut replay, &SloSpec::default())
        };
        let reference = run();
        prop_assert_eq!(reference.completed + reference.rejected, count);
        let report = run();
        prop_assert_eq!(&report, &reference);
        prop_assert_eq!(&report.slo, &reference.slo);
    }

    /// The streaming source is byte-identical to the eager generator
    /// for every process/mix the config space can express.
    #[test]
    fn streaming_api_is_byte_identical_to_eager(cfg in arb_config()) {
        let eager = generate(&cfg, &mut SimRng::seed(cfg.seed));
        let streamed: Vec<_> = cfg.source().collect();
        prop_assert_eq!(&eager, &streamed);
        prop_assert_eq!(encode(eager), encode(streamed));
    }
}

/// The binary layout, pinned byte-for-byte: header = magic "SPTR",
/// version 1, varint tick_ns (1000 = 0xE8 0x07); then per record the
/// five varints Δticks, input_len, output_len, tenant, session.
#[test]
fn golden_encoding_layout() {
    use spec_runtime::Request;
    use spec_serve::arrivals::ClusterRequest;

    let mut w = TraceWriter::default();
    // 1.5 ms after epoch = 1500 ticks = varint [0xDC, 0x0B].
    w.record(&ClusterRequest {
        request: Request::new(0, 2, 300, 127, 0.0015),
        session: 5,
    });
    // Same instant: Δ = 0. 128 needs two varint bytes [0x80, 0x01].
    w.record(&ClusterRequest {
        request: Request::new(1, 0, 128, 1, 0.0015),
        session: 0,
    });
    let bytes = w.into_bytes();
    let expected: Vec<u8> = vec![
        b'S', b'P', b'T', b'R', // magic
        1,    // version
        0xE8, 0x07, // tick_ns = 1000
        0xDC, 0x0B, // Δticks = 1500
        0xAC, 0x02, // input_len = 300
        0x7F, // output_len = 127
        0x02, // tenant = 2
        0x05, // session = 5
        0x00, // Δticks = 0
        0x80, 0x01, // input_len = 128
        0x01, // output_len = 1
        0x00, // tenant = 0
        0x00, // session = 0
    ];
    assert_eq!(
        bytes, expected,
        "the on-disk layout changed — bump VERSION and update the format docs"
    );
}

/// The committed sample trace regenerates bit-for-bit from its pinned
/// config (codec + generator drift guard) and respects the size budget.
#[test]
fn committed_sample_trace_matches_and_fits_budget() {
    let cfg = sample_trace_config();
    let mut w = TraceWriter::default();
    for cr in generate(&cfg, &mut SimRng::seed(cfg.seed)) {
        w.record(&cr);
    }
    assert!(
        w.bytes_per_request() <= 16.0,
        "{:.2} bytes/request breaks the format budget",
        w.bytes_per_request()
    );
    let regenerated = w.into_bytes();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sample_trace.sptr");
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing committed sample trace {} ({e}); run `cargo run --release --example trace_replay` to generate it",
            path.display()
        )
    });
    assert_eq!(
        committed, regenerated,
        "results/sample_trace.sptr no longer matches sample_trace_config()"
    );
}

/// Recording a closed-loop run captures the realized arrival trace, and
/// replaying it open-loop reproduces the same completions — sessions'
/// causal gating is baked into the recorded arrival times.
#[test]
fn closed_loop_record_then_replay_reproduces_the_run() {
    let cfg = ClosedLoopConfig::new(4, 3)
        .think(0.3)
        .ramp(0.5)
        .shapes(vec![Workload::new(1024, 256, 1)])
        .seed(9);
    let mut tee = RecordingSource::new(cfg.source());
    let live = cluster(2).run_source(&mut tee, &SloSpec::default());
    assert_eq!(live.completed, 12);
    let bytes = tee.into_bytes();

    let run_replay = || {
        let mut replay = ReplayArrivals::new(bytes.clone()).unwrap();
        cluster(2).run_source(&mut replay, &SloSpec::default())
    };
    let a = run_replay();
    let b = run_replay();
    assert_eq!(a, b, "replays must be bit-identical");
    assert_eq!(a.completed, live.completed);
    assert_eq!(a.rejected, live.rejected);
}
