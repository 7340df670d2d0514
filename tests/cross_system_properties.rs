//! Property-based integration tests: invariants that must hold across
//! arbitrary budgets, context lengths and seeds for every retrieval
//! system.

use proptest::prelude::*;
use specontext::model::{AttentionKind, DistillOptions, Dlm, Model, PrefillMode, SimGeometry};
use specontext::retrieval::clusterkv::ClusterKvSelector;
use specontext::retrieval::common::SelectorConfig;
use specontext::retrieval::quest::QuestSelector;
use specontext::retrieval::shadowkv::ShadowKvSelector;
use specontext::retrieval::spec_head::{MappingLevel, SpecContextRetriever};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every layer-wise selector returns sorted, unique, in-range
    /// positions that the model accepts, for any budget and length.
    #[test]
    fn layerwise_selectors_produce_valid_selections(
        n in 24usize..80,
        budget in 2usize..40,
        seed in 0u64..50,
    ) {
        let geom = SimGeometry::tiny(AttentionKind::Gqa);
        let model = Model::new(geom, seed);
        let tokens: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % 60).collect();
        let (mut kv, _) = model.prefill_tokens(&tokens, PrefillMode::Exact);
        let cfg = SelectorConfig {
            budget,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(budget)
        };

        let mut selectors: Vec<Box<dyn specontext::model::LayerSelector>> = vec![
            Box::new(QuestSelector::preprocess(&kv, cfg)),
            Box::new(ClusterKvSelector::preprocess(&kv, cfg, seed)),
            Box::new(ShadowKvSelector::preprocess(&kv, cfg)),
        ];
        let emb = model.embed_tokens(&[1]);
        let mut scratch = specontext::model::SelectScratch::new();
        for sel in &mut selectors {
            // Direct selection validity.
            let g = model.geometry();
            let queries = specontext::tensor::Matrix::from_vec(
                g.q_heads,
                g.head_dim,
                vec![0.1f32; g.q_heads * g.head_dim],
            );
            if let Some(s) = sel.select(0, &queries, &kv.layers[0], &mut scratch) {
                for head in &s {
                    prop_assert!(head.windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(head.iter().all(|&p| p < n));
                }
            }
            // The model accepts the selector end to end.
            let out = model.step(emb.row(0), n, &mut kv, sel.as_mut(), &mut scratch, None);
            prop_assert!(out.logits.iter().all(|v| v.is_finite()));
            // Re-derive the cache so each selector starts from the same
            // prefill state.
            let (kv2, _) = model.prefill_tokens(&tokens, PrefillMode::Exact);
            kv = kv2;
        }
    }

    /// SpeContext selections respect the budget exactly and survive the
    /// model's plan validation for every attention kind.
    #[test]
    fn spec_selection_respects_budget(
        kind_ix in 0usize..4,
        n in 24usize..72,
        budget in 6usize..48,
    ) {
        let kind = [
            AttentionKind::Mha,
            AttentionKind::Gqa,
            AttentionKind::Mqa,
            AttentionKind::Mla,
        ][kind_ix];
        let model = Model::new(SimGeometry::tiny(kind), 99);
        let head = Dlm::distill(&model, DistillOptions::default()).to_retrieval_head();
        let cfg = SelectorConfig {
            budget,
            sinks: 2,
            recent: 2,
            ..SelectorConfig::with_budget(budget)
        };
        let mut retr = SpecContextRetriever::new(head, cfg, MappingLevel::Head);
        let tokens: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let emb = model.embed_tokens(&tokens);
        for r in 0..emb.rows() {
            retr.observe(emb.row(r));
        }
        let sel = retr.select(emb.row(n - 1), model.geometry());
        for headsel in &sel.per_head {
            prop_assert!(headsel.len() <= budget.min(n));
        }
        let plan = sel.to_plan(model.geometry().layers);
        prop_assert!(plan.validate(n, model.geometry().kv_heads).is_ok());
    }

    /// Increasing the budget never shrinks the captured attention mass
    /// (on the same instance, same trace).
    #[test]
    fn selection_mass_monotone_in_budget(seed in 0u64..30) {
        use specontext::retrieval::oracle::selection_mass;
        use specontext::model::SparsePlan;
        use specontext::retrieval::spec_head::SpecSelection;

        let model = Model::new(SimGeometry::tiny(AttentionKind::Gqa), seed);
        let head = Dlm::distill(&model, DistillOptions::default()).to_retrieval_head();
        let n = 48;
        let tokens: Vec<usize> = (0..n).map(|i| i % 60).collect();
        let emb = model.embed_tokens(&tokens);
        let (mut kv, _) = model.prefill_embeddings(&emb, PrefillMode::Exact);
        let q = emb.row(n - 1).to_vec();
        let plan = SparsePlan::dense(model.geometry().layers);
        let (_, trace) = model.decode_step_traced(&q, n, &mut kv, &mut &plan);

        let mut state = head.new_state();
        for r in 0..emb.rows() {
            head.append(emb.row(r), &mut state);
        }
        let scores = head.head_scores(&q, &state);
        let group = model.geometry().group_size();
        let mut prev = 0.0;
        for budget in [4usize, 8, 16, 32, 48] {
            let sel = SpecSelection::from_head_scores(
                &scores,
                model.geometry(),
                &SelectorConfig {
                    budget,
                    sinks: 1,
                    recent: 1,
                    ..SelectorConfig::with_budget(budget)
                },
                MappingLevel::Head,
            );
            let mass = selection_mass(&trace, &sel.per_head, group);
            prop_assert!(mass >= prev - 0.02, "budget {budget}: {mass} < {prev}");
            prev = mass;
        }
    }
}
