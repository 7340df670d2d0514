//! Synthetic LongBench tasks: 2WikiMQA, TriviaQA, HotpotQA, PassageCount.
//!
//! Each instance is a planted-evidence context plus a task-specific
//! scoring rule applied to the model's *answer-step attention trace*:
//! a group of evidence tokens counts as "found" when the trace assigns it
//! sufficient attention mass relative to the most salient group. The
//! causal chain is real end to end: planting → genuine attention →
//! genuine sparse selection → measured recall/precision. Selections that
//! drop evidence lose it from the softmax and inflate distractor mass,
//! producing genuine false positives.

use crate::context::{ContextBuilder, PlantedContext};
use serde::{Deserialize, Serialize};
use spec_model::{Model, StepTrace};
use spec_tensor::SimRng;

/// The four LongBench task families of the paper's Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// 2WikiMQA: two-hop multi-document QA (F1).
    TwoWikiMqa,
    /// TriviaQA: single-evidence QA (F1).
    TriviaQa,
    /// HotpotQA: two-hop QA with many distractors (F1).
    HotpotQa,
    /// PassageCount: count the relevant passages (exact match).
    PassageCount,
}

impl TaskKind {
    /// All four tasks, in the paper's figure order.
    pub fn all() -> [TaskKind; 4] {
        [
            TaskKind::TwoWikiMqa,
            TaskKind::TriviaQa,
            TaskKind::HotpotQa,
            TaskKind::PassageCount,
        ]
    }

    /// Name as the paper prints it.
    pub fn paper_name(&self) -> &'static str {
        match self {
            TaskKind::TwoWikiMqa => "2WikiMQA",
            TaskKind::TriviaQa => "TriviaQA",
            TaskKind::HotpotQa => "HotpotQA",
            TaskKind::PassageCount => "Passage count",
        }
    }

    /// (gold groups, group size, distractor groups) per task family.
    fn shape(&self, rng: &mut SimRng) -> (usize, usize, usize) {
        match self {
            TaskKind::TwoWikiMqa => (2, 3, 3),
            TaskKind::TriviaQa => (1, 4, 3),
            TaskKind::HotpotQa => (2, 2, 5),
            TaskKind::PassageCount => (2 + rng.below(3), 2, 2),
        }
    }
}

/// One task instance.
#[derive(Debug, Clone)]
pub struct TaskInstance {
    /// The task family.
    pub kind: TaskKind,
    /// The planted context (question token last).
    pub ctx: PlantedContext,
}

/// A task family bound to a context length.
#[derive(Debug, Clone, Copy)]
pub struct LongBenchTask {
    /// The family.
    pub kind: TaskKind,
    /// Context length in tokens.
    pub context_len: usize,
}

impl LongBenchTask {
    /// Builds one instance.
    pub fn build(&self, model: &Model, builder: &ContextBuilder, rng: &mut SimRng) -> TaskInstance {
        let (gold, size, distract) = self.kind.shape(rng);
        let ctx =
            builder.build_with_distractors(model, self.context_len, gold, size, distract, rng);
        TaskInstance {
            kind: self.kind,
            ctx,
        }
    }
}

/// The salience threshold: a group is "found" when its per-token
/// attention is at least this multiple of the uniform baseline
/// `1/total_len`, so dense and sparse runs are scored on equal footing.
pub const SALIENCE_THRESHOLD: f32 = 3.0;

impl TaskInstance {
    /// Salience ratio per group: per-token group attention divided by the
    /// uniform per-token baseline `1/total_len` of the full context,
    /// averaged over layers and query heads. 1.0 = indistinguishable from
    /// background; 0.0 = the group was dropped from attention entirely.
    /// Using the *total* length as the baseline keeps the metric fair
    /// across dense and sparse runs: a perfect sparse selection scores at
    /// least as high as dense (renormalization concentrates mass), while
    /// dropping evidence zeroes it.
    /// Returns `(gold_saliences, distractor_saliences)`.
    fn group_saliences(&self, trace: &StepTrace) -> (Vec<f32>, Vec<f32>) {
        let total = self.ctx.emb.rows() + 1;
        let gold = self
            .ctx
            .groups
            .iter()
            .map(|g| group_salience(trace, g, total))
            .collect();
        let distractor = self
            .ctx
            .distractors
            .iter()
            .map(|g| group_salience(trace, g, total))
            .collect();
        (gold, distractor)
    }

    /// Scores the answer-step trace in `[0, 1]` per the task's metric.
    pub fn score(&self, trace: &StepTrace) -> f32 {
        let (gold, distractor) = self.group_saliences(trace);
        let found_gold = gold.iter().filter(|&&s| s >= SALIENCE_THRESHOLD).count();
        let found_distract = distractor
            .iter()
            .filter(|&&s| s >= SALIENCE_THRESHOLD)
            .count();
        match self.kind {
            TaskKind::TriviaQa => {
                // Answer = the most salient group; correct iff it is the
                // gold one and genuinely salient.
                let best_gold = gold.iter().cloned().fold(0.0f32, f32::max);
                let best_distract = distractor.iter().cloned().fold(0.0f32, f32::max);
                if best_gold >= SALIENCE_THRESHOLD && best_gold > best_distract {
                    1.0
                } else {
                    0.0
                }
            }
            TaskKind::TwoWikiMqa | TaskKind::HotpotQa => {
                // F1 over found groups vs gold groups.
                let tp = found_gold as f32;
                let fp = found_distract as f32;
                let fn_ = (gold.len() - found_gold) as f32;
                if tp == 0.0 {
                    0.0
                } else {
                    2.0 * tp / (2.0 * tp + fp + fn_)
                }
            }
            TaskKind::PassageCount => {
                // Exact match of the predicted count.
                let predicted = found_gold + found_distract;
                if predicted == self.ctx.groups.len() {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

fn group_salience(trace: &StepTrace, group: &[usize], total_len: usize) -> f32 {
    let set: std::collections::HashSet<usize> = group.iter().copied().collect();
    let mut total = 0.0;
    let mut count = 0;
    for (layer_w, layer_p) in trace.attn.iter().zip(&trace.positions) {
        for (head, pos) in layer_w.iter().zip(layer_p) {
            let group_mass: f32 = head
                .iter()
                .zip(pos)
                .filter(|(_, p)| set.contains(p))
                .map(|(w, _)| w)
                .sum();
            // (group mass / group size) / (1 / total_len):
            total += group_mass / group.len().max(1) as f32 * total_len as f32;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, PrefillMode, SimGeometry, SparsePlan};

    fn model() -> Model {
        Model::new(SimGeometry::tiny(AttentionKind::Gqa), 93)
    }

    fn dense_trace(m: &Model, inst: &TaskInstance) -> StepTrace {
        let (mut kv, _) = m.prefill_embeddings(&inst.ctx.emb, PrefillMode::Exact);
        let n = inst.ctx.emb.rows();
        let q = inst.ctx.emb.row(n - 1).to_vec();
        let plan = SparsePlan::dense(m.geometry().layers);
        m.decode_step_traced(&q, n, &mut kv, &mut &plan).1
    }

    #[test]
    fn dense_attention_scores_high_on_all_tasks() {
        let m = model();
        let b = ContextBuilder::new(&m);
        for kind in TaskKind::all() {
            let task = LongBenchTask {
                kind,
                context_len: 128,
            };
            let mut total = 0.0;
            let n = 6;
            for i in 0..n {
                let inst = task.build(&m, &b, &mut SimRng::seed(100 + i));
                let trace = dense_trace(&m, &inst);
                total += inst.score(&trace);
            }
            let avg = total / n as f32;
            assert!(
                avg > 0.6,
                "{}: dense average score {avg}",
                kind.paper_name()
            );
        }
    }

    #[test]
    fn dropping_evidence_degrades_score() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let task = LongBenchTask {
            kind: TaskKind::TwoWikiMqa,
            context_len: 128,
        };
        let mut dense_total = 0.0;
        let mut broken_total = 0.0;
        let n = 6;
        for i in 0..n {
            let inst = task.build(&m, &b, &mut SimRng::seed(200 + i));
            dense_total += inst.score(&dense_trace(&m, &inst));

            // A selection that excludes all evidence.
            let evid: std::collections::HashSet<usize> =
                inst.ctx.evidence.iter().copied().collect();
            let keep: Vec<usize> = (0..=128).filter(|p| !evid.contains(p)).collect();
            let plan = SparsePlan::uniform(m.geometry().layers, m.geometry().kv_heads, keep);
            let (mut kv, _) = m.prefill_embeddings(&inst.ctx.emb, PrefillMode::Exact);
            let q = inst.ctx.emb.row(127).to_vec();
            let (_, trace) = m.decode_step_traced(&q, 128, &mut kv, &mut &plan);
            broken_total += inst.score(&trace);
        }
        assert!(
            broken_total < 0.5 * dense_total,
            "dense {dense_total} vs evidence-free {broken_total}"
        );
    }

    #[test]
    fn passage_count_counts_exactly() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let task = LongBenchTask {
            kind: TaskKind::PassageCount,
            context_len: 128,
        };
        // With dense attention, the count should frequently be exact.
        let mut hits = 0;
        let n = 8;
        for i in 0..n {
            let inst = task.build(&m, &b, &mut SimRng::seed(300 + i));
            let trace = dense_trace(&m, &inst);
            if inst.score(&trace) == 1.0 {
                hits += 1;
            }
        }
        assert!(hits >= n / 2, "only {hits}/{n} exact counts");
    }

    #[test]
    fn shapes_match_task_definitions() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let mut rng = SimRng::seed(9);
        let inst = LongBenchTask {
            kind: TaskKind::TriviaQa,
            context_len: 128,
        }
        .build(&m, &b, &mut rng);
        assert_eq!(inst.ctx.groups.len(), 1);
        assert_eq!(inst.ctx.distractors.len(), 3);
    }
}
