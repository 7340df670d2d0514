//! Fig. 5(a): head-level vs batch-level retrieval quality.
//!
//! For budgets spanning the paper's 32..2048 range, measures (i) the
//! attention-weight accumulation (fraction of the LLM's true attention
//! mass captured by the retrieval head's selection) and (ii) the hit rate
//! against the LLM's own top-k tokens — for both mapping levels.
//! Head-level wins, as in the paper.

use spec_bench::{emit, sim_engine, to_sim};
use spec_model::{ModelConfig, PrefillMode, SparsePlan};
use spec_retrieval::common::SelectorConfig;
use spec_retrieval::oracle::{selection_hit_rate, selection_mass};
use spec_retrieval::spec_head::{MappingLevel, SpecSelection};
use spec_tensor::SimRng;
use spec_workloads::context::ContextBuilder;
use specontext_core::report::{f2, Table};

fn main() {
    let cfg = ModelConfig::llama3_1_8b();
    let engine = sim_engine(&cfg, 64, 0x515);
    let model = engine.model();
    let builder = ContextBuilder::new(model);
    let context_len = to_sim(16 * 1024);
    let instances = 6;
    let paper_budgets = [32usize, 64, 128, 256, 512, 1024, 2048];

    let mut table = Table::new(
        "Fig. 5(a) — retrieval-head quality vs budget (attention mass | hit rate)",
        &["budget", "head mass", "batch mass", "head hit", "batch hit"],
    );

    // Shared instances: context + dense trace once per instance. Each
    // instance is an independent prefill + traced decode → worker pool.
    let contexts = spec_parallel::par_map_range(instances, |i| {
        let mut rng = SimRng::seed(0xF5A ^ i as u64);
        let ctx = builder.build(model, context_len, 3, 2, &mut rng);
        let (mut kv, _) = model.prefill_embeddings(
            &ctx.emb,
            PrefillMode::Windowed {
                window: 96,
                sinks: 4,
            },
        );
        let n = ctx.emb.rows();
        let q = ctx.emb.row(n - 1).to_vec();
        let plan = SparsePlan::dense(model.geometry().layers);
        let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut &plan);

        // Retrieval-head scores for the same query.
        let head = engine.dlm().to_retrieval_head();
        let mut state = head.new_state();
        for r in 0..ctx.emb.rows() {
            head.append(ctx.emb.row(r), &mut state);
        }
        let scores = head.head_scores(&q, &state);
        (trace, scores)
    });

    let group = model.geometry().group_size();
    for &pb in &paper_budgets {
        let b = to_sim(pb);
        let mut acc = [0.0f32; 4];
        for (trace, scores) in &contexts {
            for (i, level) in [MappingLevel::Head, MappingLevel::Batch].iter().enumerate() {
                let sel = SpecSelection::from_head_scores(
                    scores,
                    model.geometry(),
                    &SelectorConfig {
                        budget: b,
                        sinks: 2,
                        recent: 2,
                        ..SelectorConfig::with_budget(b)
                    },
                    *level,
                );
                acc[i] += selection_mass(trace, &sel.per_head, group);
                acc[2 + i] += selection_hit_rate(trace, &sel.per_head, group, b);
            }
        }
        let n = contexts.len() as f32;
        table.push_row(vec![
            pb.to_string(),
            f2((acc[0] / n) as f64),
            f2((acc[1] / n) as f64),
            f2((acc[2] / n) as f64),
            f2((acc[3] / n) as f64),
        ]);
    }
    emit(&table, "fig05_similarity");
}
