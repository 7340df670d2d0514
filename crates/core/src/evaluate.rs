//! Accuracy evaluation harness: any retrieval system over the synthetic
//! LongBench (Fig. 8) and LongWriter (Fig. 9 / Table 4) workloads.

use crate::engine::Engine;
use serde::{Deserialize, Serialize};
use spec_model::{LayerSelector, Model, ModelKv, PrefillMode, StepTrace};
use spec_retrieval::clusterkv::ClusterKvSelector;
use spec_retrieval::full::FullAttention;
use spec_retrieval::quest::QuestSelector;
use spec_retrieval::shadowkv::ShadowKvSelector;
use spec_retrieval::window::StreamingLlm;
use spec_runtime::exec::{generate_free_running, DecodeStrategy};
use spec_tensor::{Matrix, SimRng};
use spec_workloads::context::ContextBuilder;
use spec_workloads::longbench::{LongBenchTask, TaskKind};
use spec_workloads::longwriter::{
    score_generation, GenerationRecord, LongWriterScores, LongWriterTask,
};

/// The systems the accuracy harness can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalSystem {
    /// Dense attention (the ceiling).
    Full,
    /// StreamingLLM (sinks + window at the budget).
    StreamingLlm,
    /// Quest.
    Quest,
    /// ClusterKV.
    ClusterKv,
    /// ShadowKV.
    ShadowKv,
    /// SpeContext (this paper).
    SpeContext,
}

impl std::fmt::Display for EvalSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EvalSystem::Full => "Full Attn",
            EvalSystem::StreamingLlm => "StreamingLLM",
            EvalSystem::Quest => "Quest",
            EvalSystem::ClusterKv => "ClusterKV",
            EvalSystem::ShadowKv => "ShadowKV",
            EvalSystem::SpeContext => "SpeContext (Ours)",
        };
        f.write_str(s)
    }
}

impl EvalSystem {
    /// The systems of Fig. 8, in plot order.
    pub fn fig8_systems() -> [EvalSystem; 5] {
        [
            EvalSystem::Quest,
            EvalSystem::ClusterKv,
            EvalSystem::ShadowKv,
            EvalSystem::SpeContext,
            EvalSystem::Full,
        ]
    }
}

/// Options for a LongBench evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct LongBenchOptions {
    /// Task family.
    pub kind: TaskKind,
    /// Context length in tokens.
    pub context_len: usize,
    /// KV budget.
    pub budget: usize,
    /// Instances to average over.
    pub instances: usize,
    /// Base RNG seed (instances are shared across systems and budgets).
    pub seed: u64,
    /// Prefill mode (use `Windowed` for long contexts).
    pub prefill_mode: PrefillMode,
    /// Evidence planting strength (see `ContextBuilder::strength`).
    pub strength: f32,
}

impl LongBenchOptions {
    /// Conventional defaults for a task at a context length.
    pub fn new(kind: TaskKind, context_len: usize, budget: usize) -> Self {
        Self {
            kind,
            context_len,
            budget,
            instances: 6,
            seed: 0xBEEF,
            prefill_mode: PrefillMode::Exact,
            strength: 3.0,
        }
    }
}

/// Evaluates a systems × budgets score matrix on a **shared** instance
/// set (same contexts, same prefill) so columns are directly comparable —
/// the structure of Fig. 8.
pub fn longbench_matrix(
    engine: &Engine,
    systems: &[EvalSystem],
    budgets: &[usize],
    opt: &LongBenchOptions,
) -> Vec<Vec<f32>> {
    let model = engine.model();
    let mut builder = ContextBuilder::new(model);
    builder.strength = opt.strength;
    let task = LongBenchTask {
        kind: opt.kind,
        context_len: opt.context_len,
    };
    let mut totals = vec![vec![0.0f32; budgets.len()]; systems.len()];
    for i in 0..opt.instances {
        let mut rng = SimRng::seed(opt.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let inst = task.build(model, &builder, &mut rng);
        let emb = &inst.ctx.emb;
        let (kv0, _) = model.prefill_embeddings(emb, opt.prefill_mode);
        for (si, &system) in systems.iter().enumerate() {
            for (bi, &budget) in budgets.iter().enumerate() {
                let trace = answer_trace(engine, system, emb, &kv0, budget, opt);
                totals[si][bi] += inst.score(&trace);
            }
        }
    }
    for row in &mut totals {
        for v in row.iter_mut() {
            *v /= opt.instances.max(1) as f32;
        }
    }
    totals
}

/// Produces the traced answer step for one context under a system,
/// starting from a cloned prefilled cache.
fn answer_trace(
    engine: &Engine,
    system: EvalSystem,
    emb: &Matrix,
    kv0: &ModelKv,
    budget: usize,
    opt: &LongBenchOptions,
) -> StepTrace {
    let model = engine.model();
    let n = emb.rows();
    let question = emb.row(n - 1);
    let mut kv = kv0.clone();
    let mut selector: Box<dyn LayerSelector> =
        match decode_strategy(engine, system, emb, &kv, budget, opt.seed) {
            DecodeStrategy::Dense => Box::new(FullAttention),
            DecodeStrategy::LayerWise(selector) => selector,
            // The head has observed the context, question included: select
            // for the answer step without observing the question again.
            DecodeStrategy::SpeContext(retr) => Box::new(retr.select(question, model.geometry())),
        };
    let (_, trace) = model.decode_step_traced(question, n, &mut kv, selector.as_mut());
    trace
}

/// How `system` decodes after `prompt`, whose prefilled cache is `kv`:
/// the one place each evaluated system is constructed.
fn decode_strategy(
    engine: &Engine,
    system: EvalSystem,
    prompt: &Matrix,
    kv: &ModelKv,
    budget: usize,
    seed: u64,
) -> DecodeStrategy {
    let mut cfg = engine.config().selector_config();
    cfg.budget = budget;
    DecodeStrategy::LayerWise(match system {
        EvalSystem::Full => return DecodeStrategy::Dense,
        EvalSystem::SpeContext => {
            let mut retr = engine.retriever_with_budget(budget);
            for r in 0..prompt.rows() {
                retr.observe(prompt.row(r));
            }
            return DecodeStrategy::SpeContext(Box::new(retr));
        }
        EvalSystem::StreamingLlm => Box::new(StreamingLlm::new(cfg.sinks, budget)),
        EvalSystem::Quest => Box::new(QuestSelector::preprocess(kv, cfg)),
        EvalSystem::ClusterKv => Box::new(ClusterKvSelector::preprocess(kv, cfg, seed)),
        EvalSystem::ShadowKv => Box::new(ShadowKvSelector::preprocess(kv, cfg)),
    })
}

/// Options for a LongWriter evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct LongWriterOptions {
    /// Prompt length (the paper's instructions are ~100 tokens).
    pub prompt_len: usize,
    /// Tokens to generate.
    pub gen_len: usize,
    /// KV budget.
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Runs one system on a LongWriter-style generation task and scores it
/// against the dense reference.
pub fn longwriter_scores(
    engine: &Engine,
    system: EvalSystem,
    opt: &LongWriterOptions,
) -> LongWriterScores {
    let model = engine.model();
    let task = LongWriterTask::build(
        model,
        opt.prompt_len,
        opt.gen_len,
        &mut SimRng::seed(opt.seed),
    );

    // Dense reference.
    let (ref_tokens, ref_logits) = run_generation(model, engine, EvalSystem::Full, &task, opt);
    // System under test.
    let (tokens, logits) = run_generation(model, engine, system, &task, opt);

    score_generation(&GenerationRecord {
        tokens: &tokens,
        logits: &logits,
        reference_tokens: &ref_tokens,
        reference_logits: &ref_logits,
    })
}

fn run_generation(
    model: &Model,
    engine: &Engine,
    system: EvalSystem,
    task: &LongWriterTask,
    opt: &LongWriterOptions,
) -> (Vec<usize>, Vec<Vec<f32>>) {
    let (mut kv, out) = model.prefill_embeddings(&task.prompt, PrefillMode::Exact);
    let first = model.embed_tokens(&[Model::argmax_token(&out.logits)]);
    let mut strategy = decode_strategy(engine, system, &task.prompt, &kv, opt.budget, opt.seed);
    let steps = task.gen_len;
    let res = generate_free_running(model, &mut kv, first.row(0), steps, &mut strategy, false);
    let logits = res.outputs.into_iter().map(|o| o.logits).collect();
    (res.tokens, logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use spec_model::{AttentionKind, SimGeometry};

    fn engine() -> Engine {
        Engine::build(EngineConfig {
            geometry: SimGeometry::tiny(AttentionKind::Gqa),
            budget: 32,
            ..EngineConfig::default()
        })
    }

    /// One system's mean score at `opt.budget`.
    fn accuracy(engine: &Engine, system: EvalSystem, opt: &LongBenchOptions) -> f32 {
        longbench_matrix(engine, &[system], &[opt.budget], opt)[0][0]
    }

    fn opts(budget: usize) -> LongBenchOptions {
        LongBenchOptions {
            instances: 4,
            seed: 11,
            strength: 5.0,
            ..LongBenchOptions::new(TaskKind::TriviaQa, 96, budget)
        }
    }

    #[test]
    fn full_attention_is_the_ceiling() {
        let e = engine();
        let full = accuracy(&e, EvalSystem::Full, &opts(32));
        assert!(full > 0.7, "full {full}");
    }

    #[test]
    fn specontext_tracks_full_at_reasonable_budget() {
        let e = engine();
        let full = accuracy(&e, EvalSystem::Full, &opts(48));
        let ours = accuracy(&e, EvalSystem::SpeContext, &opts(48));
        assert!(ours >= full - 0.3, "ours {ours} too far below full {full}");
    }

    #[test]
    fn accuracy_improves_with_budget() {
        // The headline property of Fig. 8.
        let e = engine();
        let small = accuracy(&e, EvalSystem::SpeContext, &opts(8));
        let large = accuracy(&e, EvalSystem::SpeContext, &opts(64));
        assert!(
            large >= small,
            "budget 64 ({large}) should not lose to budget 8 ({small})"
        );
    }

    #[test]
    fn all_systems_run_on_longbench() {
        let e = engine();
        for sys in EvalSystem::fig8_systems() {
            let score = accuracy(&e, sys, &opts(24));
            assert!((0.0..=1.0).contains(&score), "{sys}: {score}");
        }
    }

    #[test]
    fn longwriter_full_scores_perfect_fidelity() {
        let e = engine();
        let opt = LongWriterOptions {
            prompt_len: 16,
            gen_len: 12,
            budget: 24,
            seed: 5,
        };
        let s = longwriter_scores(&e, EvalSystem::Full, &opt);
        assert!((s.relevance - 5.0).abs() < 1e-4);
        assert!((s.accuracy - 5.0).abs() < 1e-3);
    }

    #[test]
    fn longwriter_specontext_close_to_reference() {
        let e = engine();
        let opt = LongWriterOptions {
            prompt_len: 16,
            gen_len: 12,
            budget: 24,
            seed: 5,
        };
        let ours = longwriter_scores(&e, EvalSystem::SpeContext, &opt);
        // Budget 24 covers most of the 16-token prompt + generation:
        // fidelity should be high.
        assert!(ours.average() > 2.0, "avg {}", ours.average());
    }
}
