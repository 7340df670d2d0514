//! Speculative decoding with the DLM as the draft model.
//!
//! The paper's retrieval head is pruned from an EAGLE-3-style distilled
//! LM whose *original* purpose is speculative decoding (Section 2.3):
//! the draft LM autoregressively proposes tokens that the target LLM
//! verifies in parallel, committing the longest matching prefix plus one
//! bonus token per round. Since this reproduction carries the full DLM
//! anyway, the natural extension — SpeContext's sparsity *and* EAGLE's
//! speculation from the same distilled model — is implemented here.
//!
//! Verification uses the standard greedy acceptance rule: a drafted
//! token is accepted iff the target's argmax at that position equals it.
//! Every committed token is produced by the target model, so output
//! equals plain greedy decoding exactly; speculation only changes how
//! much target work can be batched per round.

use spec_model::{Dlm, LayerSelector, Model, ModelKv, SelectScratch};
use spec_retrieval::full::FullAttention;
use spec_retrieval::spec_head::SpecContextRetriever;

/// Result of a speculative generation run.
#[derive(Debug, Clone, Default)]
pub struct SpecDecodeResult {
    /// Committed token ids (identical to greedy decoding's output).
    pub tokens: Vec<usize>,
    /// Verification rounds executed.
    pub rounds: usize,
    /// Drafted tokens accepted across all rounds.
    pub accepted: usize,
    /// Drafted tokens proposed across all rounds.
    pub drafted: usize,
}

impl SpecDecodeResult {
    /// Mean accepted draft tokens per round (the EAGLE speedup driver).
    pub fn acceptance_rate(&self) -> f32 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f32 / self.drafted as f32
        }
    }

    /// Committed tokens per verification round. Each round's target
    /// passes are batchable (one latency-critical pass per round), so
    /// this is the latency-speedup driver; plain autoregressive decoding
    /// corresponds to 1.0.
    pub fn tokens_per_round(&self) -> f32 {
        if self.rounds == 0 {
            0.0
        } else {
            self.tokens.len() as f32 / self.rounds as f32
        }
    }
}

/// Speculative generator: DLM drafts, teacher verifies, both under
/// SpeContext sparsity for the teacher's steps.
#[derive(Debug)]
pub struct SpeculativeDecoder<'a> {
    teacher: &'a Model,
    dlm: &'a Dlm,
    /// Draft length per round.
    pub draft_len: usize,
}

impl<'a> SpeculativeDecoder<'a> {
    /// Creates a decoder drafting `draft_len` tokens per round.
    ///
    /// # Panics
    ///
    /// Panics if `draft_len == 0`.
    pub fn new(teacher: &'a Model, dlm: &'a Dlm, draft_len: usize) -> Self {
        assert!(draft_len > 0, "draft length must be positive");
        Self {
            teacher,
            dlm,
            draft_len,
        }
    }

    /// Generates `steps` tokens starting from `first_token`, with the
    /// teacher attending sparsely per `retriever` (pass `None` for dense
    /// verification). Returns the committed tokens plus acceptance
    /// statistics. The committed stream equals greedy decoding exactly.
    pub fn generate(
        &self,
        teacher_kv: &mut ModelKv,
        mut retriever: Option<&mut SpecContextRetriever>,
        first_token: usize,
        steps: usize,
    ) -> SpecDecodeResult {
        let mut res = SpecDecodeResult::default();
        let geom = self.teacher.geometry();
        let draft = self.dlm.model();
        let draft_step = |tok: usize, kv: &mut ModelKv| {
            let emb = draft.embed_tokens(&[tok]);
            draft.decode_step(emb.row(0), kv.seq_len(), kv)
        };
        // Drafts condition only on the committed stream (EAGLE warms from
        // hidden states; the sim DLM redrafts from its own cache built
        // over committed tokens).
        let mut dlm_kv = ModelKv::empty(draft.geometry());
        let mut scratch = SelectScratch::new();
        let mut current = first_token;

        while res.tokens.len() < steps {
            // --- draft phase: DLM proposes draft_len tokens ------------
            let mut drafts = Vec::with_capacity(self.draft_len);
            let mut dlm_tok = current;
            for _ in 0..self.draft_len {
                dlm_tok = Model::argmax_token(&draft_step(dlm_tok, &mut dlm_kv).logits);
                drafts.push(dlm_tok);
            }
            res.drafted += drafts.len();
            res.rounds += 1;

            // --- verify phase: teacher consumes current + drafts -------
            let mut feed = current;
            for &drafted in &drafts {
                let emb = self.teacher.embed_tokens(&[feed]);
                let x = emb.row(0);
                let pos = teacher_kv.seq_len();
                let mut selection;
                let selector: &mut dyn LayerSelector = match retriever.as_deref_mut() {
                    Some(r) => {
                        r.observe(x);
                        selection = r.select_scratch(x, geom, &mut scratch);
                        &mut selection
                    }
                    None => &mut FullAttention,
                };
                let out = self
                    .teacher
                    .step(x, pos, teacher_kv, selector, &mut scratch, None);
                let target_tok = Model::argmax_token(&out.logits);
                res.tokens.push(target_tok);
                // A mismatch ends the round.
                if res.tokens.len() >= steps || target_tok != drafted {
                    break;
                }
                res.accepted += 1;
                feed = target_tok;
            }
            // Resync DLM: drop the speculative entries beyond what was
            // committed and append the committed tokens instead.
            // (Rebuild is O(committed); fine at sim scale. A production
            // implementation would roll back in place.)
            dlm_kv = ModelKv::empty(draft.geometry());
            for &t in &res.tokens {
                draft_step(t, &mut dlm_kv);
            }
            current = *res.tokens.last().expect("committed at least one");
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, DistillOptions, PrefillMode, SimGeometry};

    fn setup() -> (Model, Dlm, ModelKv, usize) {
        let teacher = Model::new(SimGeometry::tiny(AttentionKind::Gqa), 121);
        let dlm = Dlm::distill(&teacher, DistillOptions::default());
        let tokens: Vec<usize> = (0..24).map(|i| (i * 5) % 60).collect();
        let (kv, out) = teacher.prefill_tokens(&tokens, PrefillMode::Exact);
        let first = Model::argmax_token(&out.logits);
        (teacher, dlm, kv, first)
    }

    #[test]
    fn speculative_output_equals_greedy_decoding() {
        let (teacher, dlm, kv, first) = setup();
        // Reference: plain greedy decoding.
        let mut kv_ref = kv.clone();
        let mut reference = Vec::new();
        let mut tok = first;
        for _ in 0..12 {
            let emb = teacher.embed_tokens(&[tok]);
            let out = teacher.decode_step(emb.row(0), kv_ref.seq_len(), &mut kv_ref);
            tok = Model::argmax_token(&out.logits);
            reference.push(tok);
        }
        // Speculative run (dense verification).
        let mut kv_spec = kv.clone();
        let dec = SpeculativeDecoder::new(&teacher, &dlm, 3);
        let res = dec.generate(&mut kv_spec, None, first, 12);
        assert_eq!(res.tokens, reference, "speculation must be lossless");
    }

    #[test]
    fn acceptance_statistics_are_consistent() {
        let (teacher, dlm, mut kv, first) = setup();
        let dec = SpeculativeDecoder::new(&teacher, &dlm, 4);
        let res = dec.generate(&mut kv, None, first, 16);
        assert_eq!(res.tokens.len(), 16);
        assert!(res.accepted <= res.drafted);
        assert!(res.rounds >= 16 / (4 + 1), "too few rounds");
        assert!((0.0..=1.0).contains(&res.acceptance_rate()));
    }

    #[test]
    fn distilled_draft_beats_random_draft() {
        // The DLM is distilled from the teacher, so its drafts should be
        // accepted more often than an un-distilled draft model's.
        let (teacher, dlm, kv, first) = setup();
        let other_teacher = Model::new(SimGeometry::tiny(AttentionKind::Gqa), 777);
        let undistilled = Dlm::distill(&other_teacher, DistillOptions::default());

        let mut kv_a = kv.clone();
        let good = SpeculativeDecoder::new(&teacher, &dlm, 3).generate(&mut kv_a, None, first, 24);
        let mut kv_b = kv.clone();
        let bad =
            SpeculativeDecoder::new(&teacher, &undistilled, 3).generate(&mut kv_b, None, first, 24);
        assert!(
            good.acceptance_rate() >= bad.acceptance_rate(),
            "distilled {} vs undistilled {}",
            good.acceptance_rate(),
            bad.acceptance_rate()
        );
    }

    #[test]
    fn works_with_sparse_verification() {
        let (teacher, dlm, mut kv, first) = setup();
        let head = dlm.to_retrieval_head();
        let cfg = spec_retrieval::common::SelectorConfig::with_budget(20);
        let mut retr = SpecContextRetriever::new(head, cfg, spec_retrieval::MappingLevel::Head);
        // Observe the prompt.
        let tokens: Vec<usize> = (0..24).map(|i| (i * 5) % 60).collect();
        let emb = teacher.embed_tokens(&tokens);
        for r in 0..emb.rows() {
            retr.observe(emb.row(r));
        }
        let dec = SpeculativeDecoder::new(&teacher, &dlm, 3);
        let res = dec.generate(&mut kv, Some(&mut retr), first, 8);
        assert_eq!(res.tokens.len(), 8);
    }
}
