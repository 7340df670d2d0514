//! The prefill's row-wise split reaches the helper thread.
//!
//! `prefill_equivalence.rs` holds the split prefill to the serial one bit
//! for bit, which a prefill that never splits passes too. This file
//! counts the hand-offs instead: alone in its test binary, no other test
//! holds a slot, so every join a prefill makes posts when the process
//! allows two threads, and none does when it allows one.

use spec_model::{Model, ModelConfig, PrefillMode};

/// The prefill's block length (`PREFILL_CHUNK`, private to the crate).
const CHUNK: usize = 64;

/// A 600-token prefill at the benchmark's geometry and prefill mode: ten
/// blocks, the last of 24 rows, each splitting its layer-0 projection and
/// the stretch after every attention but the last layer's — one join a
/// layer.
#[test]
fn a_prefill_posts_its_stretch_joins() {
    let geom = ModelConfig::deepseek_distill_llama_8b().sim_geometry();
    let model = Model::new(geom, 0xBE7C);
    let tokens: Vec<usize> = (0..600).map(|i| (i * 31 + 7) % geom.vocab).collect();
    let emb = model.embed_tokens(&tokens);
    let mode = PrefillMode::Windowed {
        window: 96,
        sinks: 4,
    };
    let before = spec_parallel::join_counts();
    model.prefill_embeddings(&emb, mode);
    let posted = spec_parallel::join_counts().posted - before.posted;
    let stretch_joins = (600usize.div_ceil(CHUNK) * geom.layers) as u64;
    if spec_parallel::process_threads() >= 2 {
        assert!(
            posted >= stretch_joins,
            "{posted} joins posted, fewer than the {stretch_joins} stretches"
        );
    } else {
        assert_eq!(posted, 0, "one thread posts nothing");
    }
}
