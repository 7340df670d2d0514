//! Fig. 6: (a) KV prefetch latency vs a single LLM layer's inference
//! latency across budgets — the imbalance motivating elastic loading;
//! (b) the overlap rate of selected tokens between adjacent generation
//! steps — the statistic elastic loading exploits. The paper's number is
//! above 80 % at practical budgets; the repo's, on the benchmark's two engine
//! workloads at the paper budget of 2048 (256 at sim scale), is
//! `retrieval.overlap_rate_mean` **0.56** (`reason_2k_16k`) and **0.34**
//! (`prompt_32k_2k`), on a random-weight model at 1/8 scale fed
//! seed-drawn tokens. Which of those accounts for the gap is open
//! (ROADMAP item 6); the table this prints is the repo's curve over
//! budgets (coherent and random token streams), not a check against 80 %.

use spec_bench::{emit, sim_engine, to_sim};
use spec_hwsim::{DeviceSpec, EngineProfile};
use spec_model::ModelConfig;
use spec_model::PrefillMode;
use spec_runtime::costs::CostModel;
use spec_runtime::exec::{generate_free_running, DecodeStrategy};
use spec_tensor::{stats, SimRng};
use spec_workloads::context::ContextBuilder;
use specontext_core::report::{f2, Table};

fn main() {
    prefetch_vs_compute();
    adjacent_overlap();
}

/// Fig. 6(a): transfer vs compute latency per layer (real geometry).
fn prefetch_vs_compute() {
    let cm = CostModel::new(ModelConfig::llama3_1_8b());
    let dev = DeviceSpec::a100_80g();
    let profile = EngineProfile::flashinfer();
    let mut table = Table::new(
        "Fig. 6(a) — per-layer KV prefetch vs single-layer inference (ms)",
        &["budget", "prefetch ms", "layer inference ms"],
    );
    let layer_ms = {
        let t = profile.op_time(cm.layer_projections(4), &dev)
            + profile.op_time(cm.layer_attention(4, 2048, 1.0), &dev)
            + profile.op_time(cm.layer_ffn(4), &dev);
        t * 1e3
    };
    for b in [32usize, 64, 128, 256, 512, 1024] {
        let bytes = 4.0 * cm.kv_bytes_layer(b);
        let prefetch_ms = dev.pcie_time(bytes) * 1e3;
        table.push_row(vec![b.to_string(), f2(prefetch_ms), f2(layer_ms)]);
    }
    emit(&table, "fig06a_prefetch_latency");
}

/// Fig. 6(b): adjacent-step selection overlap vs budget.
///
/// Decode runs teacher-forced on an AR(1)-correlated embedding stream
/// (`e_t = ρ e_{t-1} + √(1−ρ²) fresh`): natural text is locally coherent,
/// and adjacent hidden states in real LLMs are strongly correlated — the
/// property the paper's overlap statistic rests on. A fully random token
/// stream is the adversarial worst case and is reported as a second
/// column for reference.
fn adjacent_overlap() {
    let cfg = ModelConfig::llama3_1_8b();
    let mut table = Table::new(
        "Fig. 6(b) — adjacent-generation selection overlap vs budget",
        &["budget (paper)", "overlap (coherent)", "overlap (random)"],
    );
    // Budget rows build their own engine and decode sessions — fully
    // independent, so the sweep fans out over the worker pool.
    let paper_budgets = [32usize, 64, 128, 256, 512, 1024, 2048];
    let rows = spec_parallel::par_map(&paper_budgets, |&pb| {
        let b = to_sim(pb);
        let engine = sim_engine(&cfg, b, 0x660);
        let model = engine.model();
        let builder = ContextBuilder::new(model);
        let mut coherent = Vec::new();
        let mut random = Vec::new();
        for i in 0..4u64 {
            let mut rng = SimRng::seed(0x66B ^ i);
            let ctx = builder.build(model, to_sim(8 * 1024), 3, 2, &mut rng);
            let (kv0, _) = model.prefill_embeddings(
                &ctx.emb,
                PrefillMode::Windowed {
                    window: 96,
                    sinks: 4,
                },
            );
            let steps = 24;
            // Coherent AR(1) stream.
            let rho = 0.9f32;
            let mut stream = spec_tensor::Matrix::default();
            let mut prev = ctx.emb.row(ctx.emb.rows() - 1).to_vec();
            for s in 0..steps {
                let tok = rng.below(model.geometry().vocab);
                let fresh = model.embed_tokens(&[tok]);
                let row: Vec<f32> = prev
                    .iter()
                    .zip(fresh.row(0))
                    .map(|(p, f)| rho * p + (1.0 - rho * rho).sqrt() * f)
                    .collect();
                stream.push_row(&row);
                prev = row;
                let _ = s;
            }
            for (inputs, sink) in [(&stream, &mut coherent)] {
                let mut kv = kv0.clone();
                let mut retr = engine.retriever_with_budget(b);
                for r in 0..ctx.emb.rows() {
                    retr.observe(ctx.emb.row(r));
                }
                let mut strat = DecodeStrategy::SpeContext(Box::new(retr));
                let res = spec_runtime::exec::generate_teacher_forced(
                    model, &mut kv, inputs, steps, &mut strat, false,
                );
                sink.extend(res.overlaps);
            }
            // Random stream (worst case).
            let mut kv = kv0.clone();
            let mut retr = engine.retriever_with_budget(b);
            for r in 0..ctx.emb.rows() {
                retr.observe(ctx.emb.row(r));
            }
            let first = ctx.emb.row(0).to_vec();
            let mut strat = DecodeStrategy::SpeContext(Box::new(retr));
            let res = generate_free_running(model, &mut kv, &first, steps, &mut strat, false);
            random.extend(res.overlaps);
        }
        vec![
            pb.to_string(),
            f2(stats::mean(&coherent) as f64),
            f2(stats::mean(&random) as f64),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    emit(&table, "fig06b_overlap_rate");
}
