//! Needle-in-a-haystack depth sweep: retrieval success vs needle depth
//! for SpeContext, StreamingLLM and a sliding window.
//!
//! The classic failure modes appear exactly where expected: windows miss
//! shallow needles, and only content-based retrieval is depth-invariant.
//!
//! Run with `cargo run --release --example needle_sweep`.

use specontext::core::engine::{Engine, EngineConfig};
use specontext::core::report::Table;
use specontext::model::{ModelConfig, PrefillMode};
use specontext::retrieval::full::FullAttention;
use specontext::retrieval::window::{SlidingWindow, StreamingLlm};
use specontext::tensor::SimRng;
use specontext::workloads::context::ContextBuilder;
use specontext::workloads::needle::NeedleTask;

fn main() {
    let cfg = ModelConfig::llama3_1_8b();
    let engine = Engine::build(EngineConfig {
        geometry: cfg.sim_geometry(),
        budget: 64,
        prefill_mode: PrefillMode::Windowed {
            window: 96,
            sinks: 4,
        },
        ..EngineConfig::default()
    });
    let model = engine.model();
    let builder = ContextBuilder::new(model);
    let task = NeedleTask {
        context_len: 1024,
        needle_len: 3,
    };

    let depths = [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut table = Table::new(
        "needle retrieval by depth (1=found), context 1024, budget 64",
        &[
            "depth",
            "SpeContext",
            "StreamingLLM",
            "SlidingWindow",
            "Full",
        ],
    );
    for &depth in &depths {
        let mut row = vec![format!("{depth:.1}")];
        let inst = task.build(
            model,
            &builder,
            depth,
            &mut SimRng::seed(1000 + (depth * 10.0) as u64),
        );
        let n = inst.emb.rows();
        let q = inst.emb.row(n - 1).to_vec();
        let prefill = || {
            model
                .prefill_embeddings(
                    &inst.emb,
                    PrefillMode::Windowed {
                        window: 96,
                        sinks: 4,
                    },
                )
                .0
        };

        // SpeContext.
        {
            let mut retr = engine.retriever_with_budget(64);
            for r in 0..inst.emb.rows() {
                retr.observe(inst.emb.row(r));
            }
            let mut sel = retr.select(&q, model.geometry());
            let mut kv = prefill();
            let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut sel);
            row.push(found(inst.found(&trace, 3.0)));
        }
        // StreamingLLM and SlidingWindow at the same budget.
        {
            let mut s = StreamingLlm::new(4, 60);
            let mut kv = prefill();
            let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut s);
            row.push(found(inst.found(&trace, 3.0)));
        }
        {
            let mut s = SlidingWindow::new(64);
            let mut kv = prefill();
            let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut s);
            row.push(found(inst.found(&trace, 3.0)));
        }
        // Full attention.
        {
            let mut kv = prefill();
            let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut FullAttention);
            row.push(found(inst.found(&trace, 3.0)));
        }
        table.push_row(row);
    }
    println!("{table}");
}

fn found(b: bool) -> String {
    if b {
        "1".into()
    } else {
        "0".into()
    }
}
