//! The rank-free assemblies against the `argsort_desc` + ordered-walk
//! references they replaced, where a threshold selection could go wrong
//! and `selection_equivalence.rs`'s smooth pseudo-random scores never
//! look: scores that tie (a vocabulary-limited context repeats tokens),
//! are all equal, strictly monotone, `±0.0`, `±inf` or denormal; forced
//! ends that overlap (`seq_len < sinks + recent`); a middle that is empty
//! or one position long; a budget below the forced count. Selections and
//! stats must match bit for bit.

use proptest::prelude::*;
use spec_retrieval::common::{
    assemble_baseline_selection, assemble_baseline_selection_reference,
    assemble_budgeted_selection, assemble_budgeted_selection_reference, SelectorConfig,
};
use spec_tensor::topk::SelectScratch;
use spec_tensor::SimRng;

/// Score vectors that stress a threshold selection, by `shape`.
fn awkward_scores(n: usize, shape: usize, seed: u64) -> Vec<f32> {
    let mut rng = SimRng::seed(seed);
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        1e-42,
        -1e-42,
        1.0,
    ];
    (0..n)
        .map(|i| match shape {
            // A softmax over a small vocabulary: few distinct values.
            0 => (-((rng.uniform() * 7.0) as i32 as f32)).exp(),
            1 => 0.25,
            2 => i as f32,
            3 => -(i as f32),
            4 => specials[(rng.uniform() * specials.len() as f32) as usize % specials.len()],
            // Denormals, many equal.
            5 => f32::from_bits((rng.uniform() * 40.0) as u32),
            _ => rng.normal(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn assemblies_match_references_on_awkward_scores(
        params in (0usize..140, 0usize..20, 0usize..7, any::<u64>()),
        cfg in (0usize..160, 0usize..12, 0usize..12),
    ) {
        let (prefill, extra, shape, seed) = params;
        let (budget, sinks, recent) = cfg;
        let cfg = SelectorConfig {
            budget,
            sinks,
            recent,
            ..SelectorConfig::with_budget(budget.max(1))
        };
        let mut scratch = SelectScratch::new();

        let scores = awkward_scores(prefill, shape, seed);
        let got = assemble_baseline_selection(
            &scores, prefill, prefill + extra, &cfg, &mut scratch.rank, &mut scratch.marks,
        );
        let want = assemble_baseline_selection_reference(&scores, prefill, prefill + extra, &cfg);
        prop_assert_eq!(got, want, "baseline, shape {}", shape);

        let seq_len = prefill + extra;
        let scores = awkward_scores(seq_len, shape, seed ^ 0x5EED);
        let got = assemble_budgeted_selection(
            &scores, seq_len, &cfg, &mut scratch.rank, &mut scratch.marks,
        );
        let want = assemble_budgeted_selection_reference(&scores, seq_len, &cfg);
        prop_assert_eq!(got, want, "budgeted, shape {}", shape);
    }
}

/// NaN scores select *something* of the right size without panicking
/// (order among NaNs is unspecified, as for `top_k_indices`).
#[test]
fn nan_scores_do_not_panic_the_assemblies() {
    let mut scores = awkward_scores(64, 6, 9);
    for i in (0..64).step_by(5) {
        scores[i] = f32::NAN;
    }
    let cfg = SelectorConfig {
        sinks: 2,
        recent: 3,
        ..SelectorConfig::with_budget(16)
    };
    let mut scratch = SelectScratch::new();
    let (sel, _) =
        assemble_budgeted_selection(&scores, 64, &cfg, &mut scratch.rank, &mut scratch.marks);
    assert_eq!(sel.len(), 16);
    let (sel, stats) =
        assemble_baseline_selection(&scores, 64, 70, &cfg, &mut scratch.rank, &mut scratch.marks);
    assert_eq!(sel.len(), 16 + 6);
    assert_eq!(stats.retained_new, 6);
}
