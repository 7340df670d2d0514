//! Needle-in-a-haystack: the classic long-context retrieval stress test.
//!
//! Not a paper table, but the standard sanity probe for any KV retrieval
//! system (and the regime the paper's agent motivation — "5M search
//! length" — lives in): a single tiny needle planted at a controlled
//! *depth* in a long distractor context. The sweep over depth exposes
//! positional biases (e.g. sliding windows fail at shallow depths,
//! sink-only policies fail at deep ones).

use crate::context::ContextBuilder;
use spec_model::{Model, StepTrace};
use spec_tensor::SimRng;

/// One needle placement.
#[derive(Debug, Clone)]
pub struct NeedleInstance {
    /// Context embeddings (question token last).
    pub emb: spec_tensor::Matrix,
    /// The needle's token positions.
    pub needle: Vec<usize>,
    /// Depth fraction in `[0, 1]` (0 = context start).
    pub depth: f32,
}

/// Builds needle instances at controlled depths.
#[derive(Debug, Clone)]
pub struct NeedleTask {
    /// Context length in tokens.
    pub context_len: usize,
    /// Needle size in tokens.
    pub needle_len: usize,
}

impl NeedleTask {
    /// Builds one instance at `depth` (fraction of the context).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `[0, 1]` or the needle does not fit.
    pub fn build(
        &self,
        model: &Model,
        builder: &ContextBuilder,
        depth: f32,
        rng: &mut SimRng,
    ) -> NeedleInstance {
        assert!((0.0..=1.0).contains(&depth), "depth must be in [0,1]");
        assert!(
            self.needle_len + 8 < self.context_len,
            "needle does not fit"
        );
        let vocab = model.geometry().vocab;
        let tokens: Vec<usize> = (0..self.context_len).map(|_| rng.below(vocab)).collect();
        let mut emb = model.embed_tokens(&tokens);
        let span = self.context_len - self.needle_len - 4;
        let start = 2 + (depth * span as f32) as usize;
        let needle: Vec<usize> = (start..start + self.needle_len).collect();
        for &p in &needle {
            for (x, m) in emb.row_mut(p).iter_mut().zip(builder.probe()) {
                *x += builder.strength * m;
            }
        }
        let q = self.context_len - 1;
        for (x, m) in emb.row_mut(q).iter_mut().zip(builder.probe()) {
            *x += builder.strength * m;
        }
        NeedleInstance { emb, needle, depth }
    }
}

impl NeedleInstance {
    /// Whether the answer-step trace retrieves the needle: its per-token
    /// salience over the uniform baseline exceeds the threshold.
    pub fn found(&self, trace: &StepTrace, threshold: f32) -> bool {
        self.salience(trace) >= threshold
    }

    /// The needle's salience ratio (see `longbench`).
    fn salience(&self, trace: &StepTrace) -> f32 {
        let set: std::collections::HashSet<usize> = self.needle.iter().copied().collect();
        let total_len = self.emb.rows() + 1;
        let mut total = 0.0;
        let mut count = 0;
        for (layer_w, layer_p) in trace.attn.iter().zip(&trace.positions) {
            for (head, pos) in layer_w.iter().zip(layer_p) {
                let mass: f32 = head
                    .iter()
                    .zip(pos)
                    .filter(|(_, p)| set.contains(p))
                    .map(|(w, _)| w)
                    .sum();
                total += mass / self.needle.len().max(1) as f32 * total_len as f32;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, PrefillMode, SimGeometry, SparsePlan};

    fn model() -> Model {
        Model::new(SimGeometry::tiny(AttentionKind::Gqa), 151)
    }

    fn trace_for(m: &Model, inst: &NeedleInstance) -> StepTrace {
        let (mut kv, _) = m.prefill_embeddings(&inst.emb, PrefillMode::Exact);
        let n = inst.emb.rows();
        let q = inst.emb.row(n - 1).to_vec();
        let plan = SparsePlan::dense(m.geometry().layers);
        m.decode_step_traced(&q, n, &mut kv, &mut &plan).1
    }

    #[test]
    fn dense_attention_finds_needles_at_all_depths() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let task = NeedleTask {
            context_len: 96,
            needle_len: 3,
        };
        for depth in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let inst = task.build(&m, &b, depth, &mut SimRng::seed(4 + depth as u64));
            let trace = trace_for(&m, &inst);
            assert!(
                inst.found(&trace, 3.0),
                "depth {depth}: salience {}",
                inst.salience(&trace)
            );
        }
    }

    #[test]
    fn needle_at_requested_depth() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let task = NeedleTask {
            context_len: 100,
            needle_len: 2,
        };
        let shallow = task.build(&m, &b, 0.0, &mut SimRng::seed(1));
        let deep = task.build(&m, &b, 1.0, &mut SimRng::seed(1));
        assert!(shallow.needle[0] < 10);
        assert!(deep.needle[0] > 80);
    }

    #[test]
    fn sliding_window_misses_shallow_needles() {
        // The classic failure: a window over the recent tokens cannot
        // retrieve a needle at the start of the context.
        let m = model();
        let b = ContextBuilder::new(&m);
        let task = NeedleTask {
            context_len: 96,
            needle_len: 3,
        };
        let inst = task.build(&m, &b, 0.05, &mut SimRng::seed(8));
        let (mut kv, _) = m.prefill_embeddings(&inst.emb, PrefillMode::Exact);
        let n = inst.emb.rows();
        let q = inst.emb.row(n - 1).to_vec();
        // Window covering only the last 16 positions.
        let keep: Vec<usize> = (n - 16..=n).collect();
        let plan = SparsePlan::uniform(m.geometry().layers, m.geometry().kv_heads, keep);
        let (_, trace) = m.decode_step_traced(&q, n, &mut kv, &mut &plan);
        assert!(!inst.found(&trace, 3.0), "window must miss the needle");
    }
}
