//! The decode step's in-place attention against the gather it replaced.
//!
//! `Model::step` attends the cache where it lives: per KV head, a list of
//! positions and three dispatched kernels (indexed QK, one softmax call
//! for the query group, indexed value pass). Before that it copied every
//! attended K and V row into fresh matrices and ran `ops::attention_weights`
//! / `ops::weighted_sum` per query head. That step lives on here as the
//! model ([`oracle_step`], written against the public weights), and the
//! shipped step is held to it **bit for bit** — logits, hidden state, the
//! appended cache rows, and under a trace every recorded weight and
//! position — across attention families and sparse, dense and mixed
//! plans — and with the step's KV-head halves split across two threads
//! and run on one. CI runs this suite at `SPEC_SIMD=scalar` as well:
//! decode attention shares the prefill's kernel bodies, so one
//! scalar-tier lane covers both; and at `SPEC_THREADS=1`, where no half
//! leaves the caller.

use proptest::prelude::*;
use spec_model::{
    AttentionKind, LayerKv, Model, ModelConfig, ModelKv, PrefillMode, SelectScratch, SimGeometry,
    SparsePlan, StepOutput, StepTrace,
};
use spec_tensor::{dispatch, ops, Matrix, SimRng};

const KINDS: [AttentionKind; 4] = [
    AttentionKind::Mha,
    AttentionKind::Gqa,
    AttentionKind::Mqa,
    AttentionKind::Mla,
];

fn add_assign(acc: &mut [f32], xs: &[f32]) {
    for (a, x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

/// One decode step as `Model::step` ran it before attention read the cache
/// in place: gather the attended rows, then the scalar specification per
/// query head. Always traced.
fn oracle_step(
    model: &Model,
    x: &[f32],
    pos: usize,
    kv: &mut ModelKv,
    plan: &SparsePlan,
) -> (StepOutput, StepTrace) {
    let geom = model.geometry();
    let weights = model.weights();
    let mla = geom.attention == AttentionKind::Mla;
    let rope = ops::rope_table(geom.head_dim, pos, geom.rope_base, model.rope_scale());
    let mut h = x.to_vec();
    let mut trace = StepTrace::default();
    for (lw, (layer, selection)) in weights
        .layers
        .iter()
        .zip(kv.layers.iter_mut().zip(&plan.layers))
    {
        let normed = ops::rmsnorm(&h, &lw.norm_attn, 1e-6);
        match layer {
            LayerKv::PerHead { keys, values } => {
                for hh in 0..geom.kv_heads {
                    let mut k = lw.wk[hh].vecmat(&normed);
                    ops::rope_apply(&mut k, &rope);
                    keys[hh].push_row(&k);
                    values[hh].push_row(&lw.wv[hh].vecmat(&normed));
                }
            }
            LayerKv::Latent { latent } => {
                let down = lw.w_down_latent.as_ref().expect("MLA weights");
                latent.push_row(&down.vecmat(&normed));
            }
        }
        let seq_len = layer.seq_len();
        let (mut concat, mut attn, mut attended) = (Vec::new(), Vec::new(), Vec::new());
        for (q, wq) in lw.wq.iter().enumerate() {
            let mut query = wq.vecmat(&normed);
            if !mla {
                ops::rope_apply(&mut query, &rope);
            }
            let hh = q / geom.group_size();
            let positions: Vec<usize> = match selection {
                None => (0..seq_len).collect(),
                Some(heads) => {
                    let mut p = heads[hh].clone();
                    if !p.contains(&pos) && pos < seq_len {
                        p.push(pos);
                    }
                    p
                }
            };
            let (k, v) = match &*layer {
                LayerKv::PerHead { keys, values } => (
                    keys[hh].gather_rows(&positions),
                    values[hh].gather_rows(&positions),
                ),
                LayerKv::Latent { latent } => {
                    let c = latent.gather_rows(&positions);
                    (c.matmul(&lw.wk[hh]), c.matmul(&lw.wv[hh]))
                }
            };
            let w = ops::attention_weights(&query, &k);
            concat.extend(ops::weighted_sum(&w, &v));
            attn.push(w);
            attended.push(positions);
        }
        trace.attn.push(attn);
        trace.positions.push(attended);
        add_assign(&mut h, &lw.wo.vecmat(&concat));
        let normed = ops::rmsnorm(&h, &lw.norm_ffn, 1e-6);
        let mut gate = lw.w_gate.vecmat(&normed);
        ops::silu_inplace(&mut gate);
        for (g, u) in gate.iter_mut().zip(lw.w_up.vecmat(&normed)) {
            *g *= u;
        }
        add_assign(&mut h, &lw.w_down.vecmat(&gate));
    }
    let hidden = ops::rmsnorm(&h, &weights.norm_final, 1e-6);
    let logits = weights.lm_head.vecmat(&hidden);
    (StepOutput { logits, hidden }, trace)
}

/// `f` where every `spec_parallel::join` runs both halves inline: inside
/// a `par_map` item, which never hands a half to a helper thread, at the
/// caller's SIMD tier. Beside a run on the test's own thread, where the
/// helper may take a half, it compares the split with the serial loop.
fn inline<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let tier = dispatch::active_tier();
    let runs = spec_parallel::with_threads(2, || {
        spec_parallel::par_map_range(2, |worker| {
            (worker == 0).then(|| dispatch::with_tier(tier, &f))
        })
    });
    runs.into_iter().flatten().next().expect("worker 0 ran f")
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs ({g} vs {w})"
        );
    }
}

fn cache_rows(kv: &ModelKv) -> Vec<&Matrix> {
    kv.layers
        .iter()
        .flat_map(|layer| match layer {
            LayerKv::PerHead { keys, values } => keys.iter().chain(values).collect::<Vec<_>>(),
            LayerKv::Latent { latent } => vec![latent],
        })
        .collect()
}

/// A plan over a cache of `cached` positions (the step appends one more,
/// `pos = cached`): per layer dense (one in four) or, per KV head, a
/// random ascending list — empty, sparse or everything, with or without
/// `pos` itself.
fn random_plan(geom: &SimGeometry, cached: usize, rng: &mut SimRng) -> SparsePlan {
    let layers = (0..geom.layers)
        .map(|_| {
            if rng.below(4) == 0 {
                return None;
            }
            let heads = (0..geom.kv_heads)
                .map(|_| {
                    let keep = [0.0, 0.1, 0.5, 1.0][rng.below(4)];
                    (0..=cached).filter(|_| rng.uniform() < keep).collect()
                })
                .collect();
            Some(heads)
        })
        .collect();
    SparsePlan { layers }
}

/// Decodes `steps` tokens after a `prompt_len`-token prefill, each step
/// four ways from the same cache — the oracle, the shipped step traced
/// and untraced, and untraced with its KV-head halves on one thread —
/// and holds all four to the same bits.
fn check(model: &Model, prompt_len: usize, steps: usize, seed: u64) {
    let geom = model.geometry();
    let mut rng = SimRng::seed(seed);
    let tokens: Vec<usize> = (0..prompt_len + steps)
        .map(|_| rng.below(geom.vocab))
        .collect();
    let emb = model.embed_tokens(&tokens);
    let prompt = Matrix::from_vec(
        prompt_len,
        geom.hidden,
        emb.as_slice()[..prompt_len * geom.hidden].to_vec(),
    );
    let (mut kv, _) = model.prefill_embeddings(&prompt, PrefillMode::Exact);
    // One warm scratch across the steps, as a decode loop keeps it.
    let mut scratch = SelectScratch::new();
    for pos in prompt_len..prompt_len + steps {
        let plan = random_plan(geom, pos, &mut rng);
        plan.validate(pos + 1, geom.kv_heads).expect("valid plan");
        let what = format!("{} pos {pos} seed {seed}", geom.attention);
        let x = emb.row(pos);
        let mut kv_oracle = kv.clone();
        let (want, want_trace) = oracle_step(model, x, pos, &mut kv_oracle, &plan);

        let mut kv_traced = kv.clone();
        let mut trace = StepTrace::default();
        let traced = model.step(
            x,
            pos,
            &mut kv_traced,
            &mut &plan,
            &mut scratch,
            Some(&mut trace),
        );
        let serial = inline(|| {
            let mut kv = kv.clone();
            let out = model.step(x, pos, &mut kv, &mut &plan, &mut SelectScratch::new(), None);
            (out, kv)
        });
        let plain = model.step(x, pos, &mut kv, &mut &plan, &mut scratch, None);
        assert_bits_eq(
            &plain.logits,
            &serial.0.logits,
            &format!("{what}: serial logits"),
        );
        assert_bits_eq(
            &plain.hidden,
            &serial.0.hidden,
            &format!("{what}: serial hidden"),
        );

        for (got, how) in [(&traced, "traced"), (&plain, "untraced")] {
            assert_bits_eq(&got.logits, &want.logits, &format!("{what} {how} logits"));
            assert_bits_eq(&got.hidden, &want.hidden, &format!("{what} {how} hidden"));
        }
        assert_eq!(trace.positions, want_trace.positions, "{what}: positions");
        assert_eq!(trace.attn.len(), want_trace.attn.len(), "{what}: layers");
        for (l, (got, want)) in trace.attn.iter().zip(&want_trace.attn).enumerate() {
            assert_eq!(got.len(), want.len(), "{what}: layer {l} heads");
            for (q, (g, w)) in got.iter().zip(want).enumerate() {
                assert_bits_eq(g, w, &format!("{what}: layer {l} head {q} weights"));
            }
        }
        for (other, how) in [
            (&kv_traced, "traced"),
            (&kv_oracle, "oracle"),
            (&serial.1, "serial"),
        ] {
            for (i, (got, want)) in cache_rows(&kv).iter().zip(cache_rows(other)).enumerate() {
                assert_eq!(got.shape(), want.shape(), "{what}: cache {i} vs {how}");
                assert_bits_eq(
                    got.as_slice(),
                    want.as_slice(),
                    &format!("{what}: cache {i} vs {how}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every attention family, prompts from one token to past the 64-row
    /// key tile, a few steps each under fresh random plans.
    #[test]
    fn step_matches_the_gathering_oracle(
        params in (0usize..4, 1usize..150, 1usize..4, any::<u64>())
    ) {
        let (kind, prompt_len, steps, seed) = params;
        let mut model = Model::new(SimGeometry::tiny(KINDS[kind]), seed ^ 0x5EED);
        if seed % 3 == 0 {
            model.set_rope_scale(4.0);
        }
        check(&model, prompt_len, steps, seed);
    }
}

/// The benchmark's geometry (a group of four 16-wide heads: whole value
/// tiles) over a context several key tiles long, at every SIMD tier.
#[test]
fn engine_geometry_matches_the_oracle_at_every_tier() {
    let model = Model::new(
        ModelConfig::deepseek_distill_llama_8b().sim_geometry(),
        0x5EED,
    );
    for &tier in dispatch::available_tiers() {
        dispatch::with_tier(tier, || check(&model, 300, 3, 0xD1CE));
    }
}
