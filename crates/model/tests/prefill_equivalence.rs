//! The chunked, layer-major prefill against the loop it replaced.
//!
//! `Model::prefill_embeddings` walks the prompt in blocks and runs every
//! projection as one gemm per block; before that it fed the positions one
//! at a time through the decode step. That loop lives on here as the
//! model ([`prefill_oracle`]: public `Model::step` under the plan of each
//! position's attention set), and the shipped prefill is held to it **bit
//! for bit** — the last position's logits and hidden state, and every
//! cached K/V (or latent) float of every layer — across attention
//! families, exact and windowed modes, prompt lengths either side of the
//! block boundaries, windows and sink counts either side of every clamp,
//! and both RoPE scales — and the prefill split across two threads (its
//! attention by KV head, its row-wise work by block rows) equals it run
//! on one. CI runs this suite under `SPEC_SIMD=scalar` as well (the block
//! gemms must stay tier-invariant), under `SPEC_THREADS=1` and under
//! `SPEC_THREADS=7` (the halves post to any of six slots).

use proptest::prelude::*;
use spec_model::{
    AttentionKind, LayerKv, Model, ModelConfig, ModelKv, PrefillMode, SelectScratch, SimGeometry,
    SparsePlan, StepOutput,
};
use spec_tensor::{dispatch, Matrix};

/// The prefill's block length (`PREFILL_CHUNK`, private to the crate).
const CHUNK: usize = 64;

const KINDS: [AttentionKind; 4] = [
    AttentionKind::Mha,
    AttentionKind::Gqa,
    AttentionKind::Mqa,
    AttentionKind::Mla,
];

/// Token-at-a-time prefill: position `pos` attends `[0, min(sinks, lo))`
/// and `[lo, pos]` with `lo = pos - window` clamped at 0 (everything, in
/// exact mode), through the one decode step.
fn prefill_oracle(model: &Model, emb: &Matrix, mode: PrefillMode) -> (ModelKv, StepOutput) {
    let geom = model.geometry();
    let mut kv = ModelKv::empty(geom);
    let mut scratch = SelectScratch::new();
    let mut last = None;
    for pos in 0..emb.rows() {
        let plan = match mode {
            PrefillMode::Exact => SparsePlan::dense(geom.layers),
            PrefillMode::Windowed { window, sinks } => {
                let lo = pos.saturating_sub(window);
                let mut positions: Vec<usize> = (0..sinks.min(lo)).collect();
                positions.extend(lo..=pos);
                SparsePlan::uniform(geom.layers, geom.kv_heads, positions)
            }
        };
        last = Some(model.step(emb.row(pos), pos, &mut kv, &mut &plan, &mut scratch, None));
    }
    (kv, last.expect("nonempty prompt"))
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

fn assert_same_prefill(got: &(ModelKv, StepOutput), want: &(ModelKv, StepOutput), what: &str) {
    assert_bits_eq(&got.1.logits, &want.1.logits, &format!("{what}: logits"));
    assert_bits_eq(&got.1.hidden, &want.1.hidden, &format!("{what}: hidden"));
    assert_eq!(got.0.layers.len(), want.0.layers.len(), "{what}: layers");
    for (l, (g, w)) in got.0.layers.iter().zip(&want.0.layers).enumerate() {
        let same = |g: &Matrix, w: &Matrix, name: &str| {
            assert_eq!(g.shape(), w.shape(), "{what}: layer {l} {name} shape");
            assert_bits_eq(
                g.as_slice(),
                w.as_slice(),
                &format!("{what}: layer {l} {name}"),
            );
        };
        match (g, w) {
            (
                LayerKv::PerHead { keys, values },
                LayerKv::PerHead {
                    keys: want_keys,
                    values: want_values,
                },
            ) => {
                assert_eq!(keys.len(), want_keys.len(), "{what}: layer {l} kv heads");
                for (h, (g, w)) in keys.iter().zip(want_keys).enumerate() {
                    same(g, w, &format!("keys[{h}]"));
                }
                for (h, (g, w)) in values.iter().zip(want_values).enumerate() {
                    same(g, w, &format!("values[{h}]"));
                }
            }
            (
                LayerKv::Latent { latent },
                LayerKv::Latent {
                    latent: want_latent,
                },
            ) => {
                same(latent, want_latent, "latent");
            }
            _ => panic!("{what}: layer {l} storage kind differs"),
        }
    }
}

fn prompt(model: &Model, len: usize, salt: usize) -> Matrix {
    let vocab = model.geometry().vocab;
    let tokens: Vec<usize> = (0..len).map(|i| (i * 31 + salt * 7 + 3) % vocab).collect();
    model.embed_tokens(&tokens)
}

fn check(model: &Model, len: usize, mode: PrefillMode, salt: usize) {
    let emb = prompt(model, len, salt);
    let what = format!(
        "{} len {len} {mode:?} rope_scale {}",
        model.geometry().attention,
        model.rope_scale()
    );
    let got = model.prefill_embeddings(&emb, mode);
    assert_same_prefill(&got, &prefill_oracle(model, &emb, mode), &what);
    let serial = inline(|| model.prefill_embeddings(&emb, mode));
    assert_same_prefill(&serial, &got, &format!("{what} serial"));
}

/// Every mode the fixed grid covers: exact, and windows {0, 1, below the
/// block, the block, above the block, above every prompt} x sinks {0, 1,
/// 4, more than any window start}.
fn modes() -> Vec<PrefillMode> {
    let mut modes = vec![PrefillMode::Exact];
    for window in [0, 1, 17, CHUNK, CHUNK + 36, 500] {
        for sinks in [0, 1, 4, 300] {
            modes.push(PrefillMode::Windowed { window, sinks });
        }
    }
    modes
}

/// Lengths either side of one and two block boundaries x every mode; the
/// two RoPE scales alternate over the grid, so each length, window and
/// sink count meets both. The prefill splits a block's row-wise work in
/// two halves from 8 rows: `CHUNK + 5` ends on a block below that, run
/// whole, and `2 * CHUNK + 9` on one split unevenly (4 rows and 5), as
/// `CHUNK - 1` is (31 and 32).
fn fixed_grid(geom: SimGeometry) {
    let mut models = [1.0, 4.0].map(|rope_scale| {
        let mut model = Model::new(geom, 0x5EED);
        model.set_rope_scale(rope_scale);
        model
    });
    for len in [
        1,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        CHUNK + 5,
        2 * CHUNK + 3,
        2 * CHUNK + 9,
    ] {
        for (salt, mode) in modes().into_iter().enumerate() {
            check(&models[0], len, mode, salt);
            models.swap(0, 1);
        }
    }
}

#[test]
fn fixed_grid_mha() {
    fixed_grid(SimGeometry::tiny(AttentionKind::Mha));
}

#[test]
fn fixed_grid_gqa() {
    fixed_grid(SimGeometry::tiny(AttentionKind::Gqa));
}

#[test]
fn fixed_grid_mqa() {
    fixed_grid(SimGeometry::tiny(AttentionKind::Mqa));
}

#[test]
fn fixed_grid_mla() {
    fixed_grid(SimGeometry::tiny(AttentionKind::Mla));
}

/// The DLM's depth, one layer, where the layer the prefill prunes — its
/// attention, `wo` and FFN computed for the prompt's final row alone —
/// is the only layer: every cached K/V row and the logits come from it.
/// Each attention family x the fixed grid. Two pruning mistakes fail it,
/// as they fail every test in this file: attending the block's first row
/// instead of its last, and skipping the final row's FFN.
#[test]
fn fixed_grid_one_layer() {
    for kind in KINDS {
        fixed_grid(SimGeometry {
            layers: 1,
            ..SimGeometry::tiny(kind)
        });
    }
}

/// The benchmark's geometry and prefill mode (8 query heads in groups of
/// 4, `head_dim` 16, four layers), at every SIMD tier; a decode step from
/// either cache then agrees too.
#[test]
fn bench_geometry_windowed_prefill_matches_at_every_tier() {
    let geom = ModelConfig::deepseek_distill_llama_8b().sim_geometry();
    let model = Model::new(geom, 0xBE7C);
    let emb = prompt(&model, 600, 1);
    let mode = PrefillMode::Windowed {
        window: 96,
        sinks: 4,
    };
    let want = prefill_oracle(&model, &emb, mode);
    let want_next = model.decode_step(emb.row(7), 600, &mut want.0.clone());
    for &tier in dispatch::available_tiers() {
        let mut got = dispatch::with_tier(tier, || model.prefill_embeddings(&emb, mode));
        let what = format!("tier {tier}");
        assert_same_prefill(&got, &want, &what);
        let next = model.decode_step(emb.row(7), 600, &mut got.0);
        assert_bits_eq(&next.logits, &want_next.logits, &format!("{what}: decode"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prefill_matches_the_token_at_a_time_loop(
        shape in (0usize..4, 1usize..200, any::<bool>(), any::<u64>()),
        mode in (any::<bool>(), 0usize..150, 0usize..9),
    ) {
        let (kind, len, scaled, seed) = shape;
        let mut model = Model::new(SimGeometry::tiny(KINDS[kind]), seed);
        if scaled {
            model.set_rope_scale(4.0);
        }
        let mode = match mode {
            (true, ..) => PrefillMode::Exact,
            (false, window, sinks) => PrefillMode::Windowed { window, sinks },
        };
        check(&model, len, mode, seed as usize % 64);
    }
}
