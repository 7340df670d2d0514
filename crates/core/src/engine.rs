//! The SpeContext engine and session API.

use spec_model::{DistillOptions, Dlm, Model, ModelKv, PrefillMode, SimGeometry, StepOutput};
use spec_retrieval::common::SelectorConfig;
use spec_retrieval::spec_head::SpecContextRetriever;
use spec_runtime::exec::{DecodeState, DecodeStrategy, GenerationResult};
use spec_tensor::Matrix;

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated geometry of the teacher model.
    pub geometry: SimGeometry,
    /// Weight seed.
    pub seed: u64,
    /// KV retrieval budget `B`.
    pub budget: usize,
    /// Prefill attention mode.
    pub prefill_mode: PrefillMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            geometry: SimGeometry::tiny(spec_model::AttentionKind::Gqa),
            seed: 0x5EED,
            budget: 64,
            prefill_mode: PrefillMode::Exact,
        }
    }
}

impl EngineConfig {
    /// The selector configuration implied by this engine config: its
    /// budget, with [`SelectorConfig::with_budget`]'s sinks and recent
    /// window.
    pub fn selector_config(&self) -> SelectorConfig {
        SelectorConfig::with_budget(self.budget)
    }
}

/// The engine: a teacher model plus its distilled retrieval head.
#[derive(Debug, Clone)]
pub struct Engine {
    model: Model,
    dlm: Dlm,
    config: EngineConfig,
}

impl Engine {
    /// Builds the teacher and distills the DLM at the default fidelity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn build(config: EngineConfig) -> Self {
        let model = Model::new(config.geometry, config.seed);
        let dlm = Dlm::distill(&model, DistillOptions::default());
        Self { model, dlm, config }
    }

    /// The teacher model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The distilled LM.
    pub fn dlm(&self) -> &Dlm {
        &self.dlm
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A fresh retriever around a freshly pruned head.
    pub fn retriever(&self) -> SpecContextRetriever {
        self.retriever_with_budget(self.config.budget)
    }

    /// A fresh retriever with an overridden KV budget (evaluation sweeps).
    pub fn retriever_with_budget(&self, budget: usize) -> SpecContextRetriever {
        let cfg = SelectorConfig::with_budget(budget);
        SpecContextRetriever::new(self.dlm.to_retrieval_head(), cfg)
    }

    /// Opens a generation session.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            kv: ModelKv::empty(self.model.geometry()),
            strategy: DecodeStrategy::SpeContext(Box::new(self.retriever())),
            state: DecodeState::default(),
            next_token: None,
        }
    }
}

/// A generation session: prompt prefill, then speculative-sparse decode.
///
/// The session owns everything decode carries between steps, so a later
/// `generate` / `decode_teacher_forced` call continues the earlier one:
/// `generate(a); generate(b)` yields what `generate(a + b)` yields.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    kv: ModelKv,
    /// Always [`DecodeStrategy::SpeContext`], around the retriever that
    /// observed the prompt.
    strategy: DecodeStrategy,
    state: DecodeState,
    /// Argmax of the latest output: what `generate` feeds next.
    next_token: Option<usize>,
}

impl Session<'_> {
    /// Prefills the session with pre-embedded prompt rows. The retrieval
    /// head observes every prompt token (it runs before the LLM).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty or the session was already prefilled.
    pub fn prefill_embeddings(&mut self, emb: &Matrix) -> StepOutput {
        assert!(emb.rows() > 0, "empty prompt");
        assert_eq!(self.kv.seq_len(), 0, "session already prefilled");
        let DecodeStrategy::SpeContext(retriever) = &mut self.strategy else {
            unreachable!("a session decodes with SpeContext");
        };
        for r in 0..emb.rows() {
            retriever.observe(emb.row(r));
        }
        let (kv, out) = self
            .engine
            .model
            .prefill_embeddings(emb, self.engine.config.prefill_mode);
        self.kv = kv;
        self.next_token = Some(Model::argmax_token(&out.logits));
        out
    }

    /// Token-level prefill convenience wrapper.
    pub fn prefill_tokens(&mut self, tokens: &[usize]) -> StepOutput {
        let emb = self.engine.model.embed_tokens(tokens);
        self.prefill_embeddings(&emb)
    }

    /// Current cached sequence length.
    pub fn seq_len(&self) -> usize {
        self.kv.seq_len()
    }

    /// Generates `steps` tokens free-running (greedy) with speculative
    /// context sparsity and elastic-loading accounting.
    ///
    /// # Panics
    ///
    /// Panics if the session has not been prefilled.
    pub fn generate(&mut self, steps: usize) -> GenerationResult {
        self.generate_inner(steps, false)
    }

    /// As [`generate`](Self::generate) but records attention traces.
    pub fn generate_traced(&mut self, steps: usize) -> GenerationResult {
        self.generate_inner(steps, true)
    }

    fn generate_inner(&mut self, steps: usize, traced: bool) -> GenerationResult {
        let model = &self.engine.model;
        let first = model.embed_tokens(&[self.next_token.expect("prefill before generate")]);
        let (kv, strategy) = (&mut self.kv, &mut self.strategy);
        let res = self
            .state
            .free_running(model, kv, first.row(0), steps, strategy, traced);
        self.advanced(res)
    }

    /// Teacher-forced decode over the rows of `inputs` (evaluation mode).
    pub fn decode_teacher_forced(&mut self, inputs: &Matrix, steps: usize) -> GenerationResult {
        let (model, kv, strategy) = (&self.engine.model, &mut self.kv, &mut self.strategy);
        let res = self
            .state
            .teacher_forced(model, kv, inputs, steps, strategy, false);
        self.advanced(res)
    }

    /// Notes where `res` left off, for the next call to continue from.
    fn advanced(&mut self, res: GenerationResult) -> GenerationResult {
        self.next_token = res.tokens.last().copied().or(self.next_token);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::AttentionKind;

    fn engine() -> Engine {
        Engine::build(EngineConfig {
            budget: 16,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn session_prefill_and_generate() {
        let e = engine();
        let mut s = e.session();
        let prompt: Vec<usize> = (0..24).collect();
        s.prefill_tokens(&prompt);
        assert_eq!(s.seq_len(), 24);
        let out = s.generate(6);
        assert_eq!(out.tokens.len(), 6);
        assert_eq!(s.seq_len(), 30);
        assert!(out.transfer.is_some());
    }

    /// Everything two results can differ in, floats as bits.
    fn observable(res: &[&GenerationResult]) -> (Vec<usize>, Vec<u32>, Vec<u32>, (u64, u64)) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut all = (Vec::new(), Vec::new(), Vec::new(), (0, 0));
        for r in res {
            all.0.extend(&r.tokens);
            all.1.extend(r.outputs.iter().flat_map(|o| bits(&o.logits)));
            all.2.extend(bits(&r.overlaps));
            let moved = r.transfer.expect("SpeContext accounts transfers");
            all.3 .0 += moved.fetched_entries;
            all.3 .1 += moved.reused_entries;
        }
        all
    }

    /// A prefilled session and the prefill's argmax token.
    fn prefilled(e: &Engine) -> (Session<'_>, usize) {
        let mut s = e.session();
        let out = s.prefill_tokens(&(0..24).map(|i| (i * 7) % 60).collect::<Vec<_>>());
        (s, Model::argmax_token(&out.logits))
    }

    #[test]
    fn generation_continues_across_calls() {
        // A second call continues from the first's last output, elastic
        // buffer and selection — not from the prefill's with a cold buffer.
        let e = engine();
        let whole = prefilled(&e).0.generate(8);
        let mut s = prefilled(&e).0;
        let (a, b) = (s.generate(4), s.generate(4));
        assert_eq!(s.seq_len(), 32);
        assert_eq!(observable(&[&a, &b]), observable(&[&whole]));
    }

    #[test]
    fn generate_continues_a_teacher_forced_decode() {
        // Teacher-forcing the tokens greedy decode would have fed itself
        // is that greedy decode; `generate` then picks up at step k.
        let e = engine();
        let whole = prefilled(&e).0.generate(8);
        let (mut s, first) = prefilled(&e);
        let fed = [first, whole.tokens[0], whole.tokens[1], whole.tokens[2]];
        let forced = s.decode_teacher_forced(&e.model().embed_tokens(&fed), 4);
        let rest = s.generate(4);
        assert_eq!(observable(&[&forced, &rest]), observable(&[&whole]));
    }

    #[test]
    #[should_panic(expected = "prefill before generate")]
    fn generate_without_prefill_panics() {
        let e = engine();
        let mut s = e.session();
        s.generate(1);
    }

    #[test]
    #[should_panic(expected = "already prefilled")]
    fn double_prefill_panics() {
        let e = engine();
        let mut s = e.session();
        s.prefill_tokens(&[1, 2, 3]);
        s.prefill_tokens(&[1, 2, 3]);
    }

    #[test]
    fn engine_works_for_all_attention_kinds() {
        for kind in [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ] {
            let e = Engine::build(EngineConfig {
                geometry: SimGeometry::tiny(kind),
                budget: 12,
                ..EngineConfig::default()
            });
            let mut s = e.session();
            s.prefill_tokens(&(0..20).collect::<Vec<_>>());
            let out = s.generate(3);
            assert_eq!(out.tokens.len(), 3, "{kind}");
        }
    }

    #[test]
    fn traced_generation_records_traces() {
        let e = engine();
        let mut s = e.session();
        s.prefill_tokens(&(0..16).collect::<Vec<_>>());
        let out = s.generate_traced(2);
        assert_eq!(out.traces.len(), 2);
    }
}
