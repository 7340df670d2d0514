//! Criterion micro-benchmarks of the kernels every retrieval system is
//! built from: top-k selection, softmax, quantized scoring, k-means
//! assignment, elastic set-difference planning, and the matmuls of the
//! simulated forward pass — the blocked kernel against the reference
//! triple loop at the shapes the chunked prefill issues, that prefill
//! whole against the token-at-a-time loop it replaced and against itself
//! with every join inline, and the decode step's in-place attention
//! against the gather it replaced, the
//! retrieval head's appends through one projection of its heads side by
//! side against one per head, its key sweep over int8 blocks against f32
//! ones, and the
//! overlap count by merge against the hash set it replaced, the union
//! and overlap of consecutive selections by bitmap against the merges
//! they replaced; and the
//! forward pass's hot loops one by one — the value tile beside the
//! per-row zero test it dropped, the softmax at a query group's shapes, a
//! prefill block's attention kernel and the fused projection's gemm. The
//! simulator's per-iteration layers ride along: a step-table hit through
//! the quiet run's walk against the per-step lookup, misses priced a
//! block of lanes at a time against one price per length and against a
//! recording timeline, and one engine's `advance_until` over the
//! committed trace's prefix. Last, `spec_parallel::join`'s hand-off, a
//! two-item `par_map` over it, and a decode step with its KV-head halves
//! on two threads against one.
//!
//! Everything that selects from scores is timed over a [`Rotation`] of 64
//! distinct inputs, not one: a sort's branch sequence on a single
//! repeated input is memorised by the predictor (1280 -> 256 on tie-heavy
//! scores read 7 us on one input and 35 us rotating), which a decode loop
//! never grants it. The attention entries rotate their selections for the
//! same reason one level down: one memorised list keeps its scattered
//! rows in cache, and those misses are half of a step's attention. The
//! head sweeps rotate through 16 sessions' key caches: one cache alone
//! stays in L2, which a decode step — whose weights and K/V rows share
//! that L2 — never grants it, and which is the whole difference between
//! the two layouts.
//!
//! Unlike the figure/table regenerators this harness measures wall
//! clock, so its output is *not* expected to be byte-stable; it writes a
//! machine-readable timing summary to `results/bench_kernels.json`,
//! headed by its provenance (commit, SIMD tier, CPU and its
//! microarchitecture), so future PRs have a perf trajectory to compare
//! against.

use criterion::{BatchSize, Criterion};
use spec_kvcache::{BudgetBuffer, PageTable, ResidentSet};
use spec_model::LayerSelector;
use spec_model::{
    AttentionKind, LayerKv, Model, ModelConfig, ModelKv, PrefillMode, SimGeometry, SparsePlan,
    StepOutput,
};
use spec_retrieval::clusterkv::ClusterKvSelector;
use spec_retrieval::common::SelectorConfig;
use spec_retrieval::infinigen::InfiniGenSelector;
use spec_retrieval::quest::QuestSelector;
use spec_retrieval::shadowkv::ShadowKvSelector;
use spec_retrieval::spec_head::{union_overlap_rate, MappingLevel, SpecSelection};
use spec_runtime::dataflow::{step_timeline_into, DataflowKind, StepParams};
use spec_runtime::{
    FairConfig, PreemptionPolicy, QueueDiscipline, Request, Scheduler, SchedulerConfig, ServingSim,
    StepCache, SystemKind, Thresholds,
};
use spec_telemetry::{seconds_to_ticks, Tick};
use spec_tensor::kmeans::nearest_centroid;
use spec_tensor::lut::QueryLut;
use spec_tensor::quant::{BitWidth, QuantVec};
use spec_tensor::topk::{top_k_mass, top_k_positions, PosBitSet, RankScratch, SelectScratch};
use spec_tensor::{ops, stats, KeyBlocks, Matrix, QuantKeyBlocks, SimRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Distinct inputs a selection bench cycles through, one per iteration.
const ROTATION: usize = 64;

/// A ring of benchmark inputs: [`next`](Self::next) hands out a different
/// one every iteration so no branch history survives from the last visit.
struct Rotation<T> {
    items: Vec<T>,
    at: usize,
}

impl<T> Rotation<T> {
    fn new(make: impl FnMut() -> T) -> Self {
        Self {
            items: std::iter::repeat_with(make).take(ROTATION).collect(),
            at: 0,
        }
    }

    fn next(&mut self) -> &T {
        self.at = (self.at + 1) % self.items.len();
        &self.items[self.at]
    }
}

/// `n` distinct positions below `universe`, ascending: a selection.
fn ascending_sample(rng: &mut SimRng, universe: usize, n: usize) -> Vec<usize> {
    let mut marks = PosBitSet::default();
    marks.reset(universe);
    while marks.count() < n {
        marks.mark(rng.below(universe));
    }
    marks.collect_sorted()
}

/// Softmax-like scores over `n` positions with only `n / 3` distinct
/// values, as a vocabulary-limited context gives (469 distinct values in
/// the 1280 pooled scores of a `reason_2k_16k` step): a few large
/// weights, a long tail, many exact ties.
fn tie_heavy_scores(rng: &mut SimRng, n: usize) -> Vec<f32> {
    let distinct = (n / 3).max(1);
    let logits: Vec<f32> = (0..distinct).map(|_| rng.normal() * 2.0).collect();
    let mut scores: Vec<f32> = (0..n)
        .map(|_| logits[(rng.uniform() * distinct as f32) as usize % distinct])
        .collect();
    ops::softmax_inplace(&mut scores);
    scores
}

/// The softmax the shipped kernel replaced (libm `exp`, sequential sum,
/// a divide per element) — the bench's and the tests' oracle only.
fn softmax_libm(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// `(context, budget)` of the set top-k comparison: a `reason_2k_16k`
/// step, a `prompt_32k_2k` step, and the paper's 16K decode shape.
const MARK_SHAPES: [(usize, usize); 3] = [(1280, 256), (4224, 256), (16_384, 2048)];

/// Row lengths of the softmax comparison: a prefill attention row's
/// neighbourhood (a few hundred) and a retrieval-head row at 4 K context.
const SOFTMAX_LENS: [usize; 2] = [264, 4224];

/// `(label, m, k, n)` for the matmul speedup comparison: the gemms
/// `Model::prefill_embeddings` runs per 64-position block at the sim
/// geometry (hidden 64, head_dim 16, FFN 128; see
/// `ModelConfig::sim_geometry`) — a head's Q/K/V projection, the FFN
/// gate/up, the FFN down (also `wo`'s shape) — and the probe's bilinear
/// form.
const FORWARD_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("prefill_head_proj", 64, 64, 16),
    ("prefill_ffn_up", 64, 64, 128),
    ("prefill_ffn_down", 64, 128, 64),
    ("probe_bilinear", 64, 64, 64),
];

/// `(label, cached positions, attended positions)` of the decode-attention
/// comparison: a late `reason_2k_16k` step, a `prompt_32k_2k` step (budget
/// 256 + sinks + recent + the current position), and the dense baseline's
/// step over that context.
const ATTEND_SHAPES: [(&str, usize, usize); 3] = [
    ("260of2304", 2304, 260),
    ("260of4352", 4352, 260),
    ("dense4352", 4352, 4352),
];

/// `(rows, cols)` of the decode step's matvecs at the sim geometry: a
/// head projection's neighbour `wo` (64x64), the FFN gate/up and down,
/// and `lm_head`.
const VECMAT_SHAPES: [(usize, usize); 4] = [(64, 64), (64, 128), (128, 64), (64, 512)];

/// The sides of the prefill comparisons, at the benchmark's
/// `prompt_32k_2k` shape: 4096 tokens, window 96 + 4 sinks. The prefill
/// as shipped (its attention and row-wise work split across two threads
/// where the process allows two), the same prefill inside a `par_map`
/// item, where every join runs inline, and the token-at-a-time loop.
const PREFILL: &str = "prefill/windowed96+4/4096";
const PREFILL_SERIAL: &str = "prefill/serial/4096";
const PREFILL_ORACLE: &str = "prefill_oracle/windowed96+4/4096";

/// Appends of the retrieval-head comparison, a `prompt_32k_2k` prompt, and
/// its two sides: the head as shipped and the per-head twin.
const HEAD_APPENDS: usize = 4096;
const HEAD_APPEND: &str = "retrieval_head/append/4096";
const HEAD_APPEND_PER_HEAD: &str = "retrieval_head/append_per_head/4096";

/// Cached positions of the decode-step comparison: a late `reason_2k_16k`
/// step (budget 256 + the forced ends, 2304 positions).
const DECODE_CACHED: usize = 2304;

/// The decode-step comparison's two sides, the join round trip and a
/// two-item `par_map`.
const DECODE_STEP_SPLIT: &str = "decode_step/split";
const DECODE_STEP_SERIAL: &str = "decode_step/serial";
const JOIN_ROUNDTRIP: &str = "join/roundtrip";
const PAR_MAP_2: &str = "par_map/2_items";

fn bench_kernels(c: &mut Criterion) {
    let mut rng = SimRng::seed(0xBE7C);
    let scores: Vec<f32> = (0..16_384).map(|_| rng.normal()).collect();

    let mut rotation = Rotation::new(|| tie_heavy_scores(&mut rng, 16_384));
    c.bench_function("top_k_positions/16384->2048", |b| {
        b.iter(|| top_k_positions(black_box(rotation.next()), 2048))
    });

    c.bench_function("top_k_mass/16384->2048", |b| {
        b.iter(|| top_k_mass(black_box(&scores), 2048))
    });

    let mut soft = scores.clone();
    c.bench_function("softmax/16384", |b| {
        b.iter(|| {
            soft.copy_from_slice(&scores);
            ops::softmax_inplace(black_box(&mut soft));
        })
    });

    // The polynomial-`exp` kernel beside the libm softmax it replaced.
    for n in SOFTMAX_LENS {
        let logits: Vec<f32> = (0..n).map(|_| rng.normal() * 3.0).collect();
        let (mut got, mut want) = (logits.clone(), logits.clone());
        ops::softmax_inplace(&mut got);
        softmax_libm(&mut want);
        assert!(
            got.iter().zip(&want).all(|(g, w)| (g - w).abs() <= 1e-6),
            "softmax/{n} left the libm oracle's tolerance"
        );
        c.bench_function(&format!("softmax/{n}"), |b| {
            b.iter(|| {
                got.copy_from_slice(&logits);
                ops::softmax_inplace(black_box(&mut got));
            })
        });
        c.bench_function(&format!("softmax_libm/{n}"), |b| {
            b.iter(|| {
                want.copy_from_slice(&logits);
                softmax_libm(black_box(&mut want));
            })
        });
    }

    let wide = rng.normal_matrix(256, 2048, 1.0);
    c.bench_function("softmax_rows/256x2048", |b| {
        b.iter(|| ops::softmax_rows(black_box(&wide)))
    });

    let key: Vec<f32> = (0..128).map(|_| rng.normal()).collect();
    let q = QuantVec::quantize(&key, BitWidth::Int4);
    let query: Vec<f32> = (0..128).map(|_| rng.normal()).collect();
    c.bench_function("quant_dot/int4/128", |b| {
        b.iter(|| black_box(&q).dot(black_box(&query)))
    });

    let keys = rng.normal_matrix(1024, 128, 1.0);
    c.bench_function("page_table_build/1024x128", |b| {
        b.iter(|| PageTable::build(black_box(&keys), 16))
    });
    let table = PageTable::build(&keys, 16);
    c.bench_function("page_scores/64pages", |b| {
        b.iter(|| black_box(&table).scores(black_box(&query)))
    });

    let centroids = rng.normal_matrix(64, 128, 1.0);
    c.bench_function("kmeans_assign/64x128", |b| {
        b.iter(|| nearest_centroid(black_box(&query), black_box(&centroids)))
    });

    let wanted_a: Vec<usize> = (0..2048).collect();
    let wanted_b: Vec<usize> = (256..2304).collect();
    c.bench_function("elastic_plan/2048_budget", |b| {
        b.iter_batched(
            || {
                let mut rs = ResidentSet::new(2048);
                rs.apply(&rs.plan(&wanted_a));
                rs
            },
            |rs| rs.plan(black_box(&wanted_b)),
            BatchSize::SmallInput,
        )
    });

    // The call the decode loop makes: every layer handed the same per-head
    // lists, each step keeping half of the last one (the measured reuse
    // fraction of `reason_2k_16k`).
    let mut buffer = BudgetBuffer::new(4, 2, 2048);
    let steps = [0, 2].map(|shift| {
        let head = |h: usize| (0..2048).map(|i| 8 * i + h + shift * (i % 2)).collect();
        vec![vec![head(0), head(1)]; 4]
    });
    buffer.step(&steps[0]);
    let mut flip = 0;
    c.bench_function("elastic_step/4x2x2048", |b| {
        b.iter(|| {
            flip ^= 1;
            buffer.step(black_box(&steps[flip]))
        })
    });

    // The retrieval head at the engine's shape (8 heads of dim 16) over a
    // 16K-position key cache: one softmax distribution per head.
    let engine = spec_bench::sim_engine(&ModelConfig::deepseek_distill_llama_8b(), 256, 0x5EED);
    let head = engine.dlm().to_retrieval_head();
    let tokens: Vec<usize> = (0..16_384).map(|i| (i * 31 + 7) % 512).collect();
    let emb = head.embed_tokens(&tokens);
    let mut state = head.new_state();
    head.append_all(&emb, &mut state);
    c.bench_function("retrieval_head/head_scores/8x16@16384", |b| {
        b.iter(|| head.head_scores(black_box(emb.row(16_383)), &state))
    });

    // A `prompt_32k_2k` prompt's appends into a fresh state: the head's one
    // projection of the heads side by side beside one `vecmat` per head.
    let layer = &engine.dlm().model().weights().layers[0];
    let append_per_head = |keys: &mut Vec<QuantKeyBlocks>, normed: &mut Vec<f32>| {
        keys.clear();
        keys.resize(layer.wk.len(), QuantKeyBlocks::new(layer.wk[0].cols()));
        let mut key = vec![0.0; layer.wk[0].cols()];
        for r in 0..HEAD_APPENDS {
            ops::rmsnorm_into(normed, black_box(emb.row(r)), &layer.norm_attn, 1e-6);
            for (wk, keys) in layer.wk.iter().zip(keys.iter_mut()) {
                wk.vecmat_into(normed, &mut key);
                keys.push(&key);
            }
        }
    };
    let append_all = || {
        let mut state = head.new_state();
        for r in 0..HEAD_APPENDS {
            head.append(black_box(emb.row(r)), &mut state);
        }
        state
    };
    let (mut twin, mut normed) = (Vec::new(), Vec::new());
    append_per_head(&mut twin, &mut normed);
    let shipped = append_all();
    for (h, twin) in twin.iter().enumerate() {
        let got = shipped.keys(h);
        for p in 0..HEAD_APPENDS {
            assert_eq!(
                got.scale(p).to_bits(),
                twin.scale(p).to_bits(),
                "head {h}: the fused and per-head appends scale position {p} differently"
            );
            assert!(
                (0..layer.wk[h].cols()).all(|d| got.level(p, d) == twin.level(p, d)),
                "head {h}: the fused and per-head appends quantize position {p} differently"
            );
        }
    }
    c.bench_function(HEAD_APPEND, |b| b.iter(|| append_all().len()));
    c.bench_function(HEAD_APPEND_PER_HEAD, |b| {
        b.iter(|| {
            append_per_head(&mut twin, &mut normed);
            twin[0].len()
        })
    });

    for (rows, cols) in VECMAT_SHAPES {
        let a = rng.normal_matrix(rows, cols, 1.0);
        let x: Vec<f32> = (0..rows).map(|_| rng.normal()).collect();
        c.bench_function(&format!("vecmat/{rows}x{cols}"), |b| {
            b.iter(|| black_box(&a).vecmat(black_box(&x)))
        });
    }
}

/// The selection hot path at the paper's 16K-context decode shape:
/// partial-select vs full-sort top-k, incremental vs rebuilt page
/// tables, and every migrated selector's `select()` against its kept
/// reference implementation. Every pair is asserted bit-equal before it
/// is timed (check, don't trust — the `matmul`/`matmul_naive` contract).
fn bench_selection(c: &mut Criterion) {
    let mut rng = SimRng::seed(0x5E1E);
    const CTX: usize = 16_384;
    const BUDGET: usize = 2_048;
    const HEAD_DIM: usize = 64;
    const KV_HEADS: usize = 2;
    const Q_HEADS: usize = 4;

    // --- top_k_indices (select_nth) vs the argsort full-sort path ------
    let mut rank = RankScratch::default();
    let mut rotation = Rotation::new(|| tie_heavy_scores(&mut rng, CTX));
    for scores in &rotation.items {
        assert_eq!(
            rank.top_k_desc(scores, BUDGET),
            &spec_tensor::topk::argsort_desc(scores)[..BUDGET],
            "partial selection diverged from the argsort prefix"
        );
    }
    c.bench_function("selection/top_k_indices/16384->2048", |b| {
        b.iter(|| rank.top_k_desc(black_box(rotation.next()), BUDGET).len())
    });
    c.bench_function("selection/argsort_topk/16384->2048", |b| {
        b.iter(|| {
            let mut idx = spec_tensor::topk::argsort_desc(black_box(rotation.next()));
            idx.truncate(BUDGET);
            idx.len()
        })
    });

    // --- the set top-k (threshold marking) vs rank-then-mark ------------
    // What `assemble_budgeted_selection` does per KV head and step against
    // what it did: `top_k_desc` + a walk marking each index.
    let mut marks = PosBitSet::default();
    for (n, k) in MARK_SHAPES {
        let mut rotation = Rotation::new(|| tie_heavy_scores(&mut rng, n));
        for scores in &rotation.items {
            marks.reset(n);
            rank.mark_top_k(scores, 0, k, &mut marks);
            let got = marks.collect_sorted();
            marks.reset(n);
            rank.top_k_desc(scores, k).iter().for_each(|&i| {
                marks.mark(i);
            });
            assert_eq!(
                got,
                marks.collect_sorted(),
                "set top-k diverged at {n}->{k}"
            );
        }
        c.bench_function(&format!("selection/mark_top_k/{n}->{k}"), |b| {
            b.iter(|| {
                marks.reset(n);
                rank.mark_top_k(black_box(rotation.next()), 0, k, &mut marks)
            })
        });
        c.bench_function(&format!("selection/sort_top_k/{n}->{k}"), |b| {
            b.iter(|| {
                marks.reset(n);
                for &i in rank.top_k_desc(black_box(rotation.next()), k) {
                    marks.mark(i);
                }
                marks.count()
            })
        });
    }

    // --- page table: incremental extend vs full rebuild ----------------
    let keys16k = rng.normal_matrix(CTX, HEAD_DIM, 1.0);
    let tail = rng.normal_matrix(16, HEAD_DIM, 1.0);
    {
        let mut incremental = PageTable::build(&keys16k, 16);
        incremental.extend(&tail);
        let mut concat = keys16k.clone();
        for r in 0..tail.rows() {
            concat.push_row(tail.row(r));
        }
        let rebuilt = PageTable::build(&concat, 16);
        assert_eq!(
            incremental.scores(&keys16k.row(0)[..HEAD_DIM]),
            rebuilt.scores(&keys16k.row(0)[..HEAD_DIM]),
            "extended table diverged from rebuild"
        );
    }
    // Row-outer build vs the retained column-outer reference (bit-equal
    // metadata is pinned in the unit/property tests; spot-check scores).
    assert_eq!(
        PageTable::build(&keys16k, 16).scores(&keys16k.row(0)[..HEAD_DIM]),
        PageTable::build_reference(&keys16k, 16).scores(&keys16k.row(0)[..HEAD_DIM]),
        "row-outer build diverged from reference"
    );
    c.bench_function("page_table_build/16384x64", |b| {
        b.iter(|| PageTable::build(black_box(&keys16k), 16))
    });
    c.bench_function("page_table_build_reference/16384x64", |b| {
        b.iter(|| PageTable::build_reference(black_box(&keys16k), 16))
    });
    c.bench_function("page_table_extend/16tok@16k", |b| {
        b.iter_batched(
            || PageTable::build(&keys16k, 16),
            |mut t| {
                t.extend(black_box(&tail));
                t
            },
            BatchSize::SmallInput,
        )
    });

    // --- per-selector select() latency at the 16K decode shape ---------
    // A synthetic per-head KV cache (values are never touched by the
    // selectors, so only keys are materialized).
    let kv = ModelKv {
        layers: vec![LayerKv::PerHead {
            keys: (0..KV_HEADS)
                .map(|_| rng.normal_matrix(CTX, HEAD_DIM, 1.0))
                .collect(),
            values: vec![Matrix::default(); KV_HEADS],
        }],
    };
    let mut rotation = Rotation::new(|| rng.normal_matrix(Q_HEADS, HEAD_DIM, 1.0));
    let queries = rotation.items[0].clone();
    let cfg = SelectorConfig {
        budget: BUDGET,
        sinks: 4,
        recent: 8,
        page_size: 16,
        tokens_per_cluster: 256,
    };
    let mut scratch = SelectScratch::new();

    let mut quest = QuestSelector::preprocess(&kv, cfg);
    assert_eq!(
        quest.select(0, &queries, &kv.layers[0], &mut scratch),
        quest.select_reference(0, &queries, &kv.layers[0]),
        "quest diverged from reference"
    );
    c.bench_function("selection/quest/16k->2048", |b| {
        b.iter(|| quest.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
    c.bench_function("selection/quest_reference/16k->2048", |b| {
        b.iter(|| quest.select_reference(0, black_box(rotation.next()), &kv.layers[0]))
    });

    let mut ckv = ClusterKvSelector::preprocess(&kv, cfg, 0xC1);
    assert_eq!(
        ckv.select(0, &queries, &kv.layers[0], &mut scratch),
        ckv.select_reference(0, &queries, &kv.layers[0]),
        "clusterkv diverged from reference"
    );
    c.bench_function("selection/clusterkv/16k->2048", |b| {
        b.iter(|| ckv.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
    c.bench_function("selection/clusterkv_reference/16k->2048", |b| {
        b.iter(|| ckv.select_reference(0, black_box(rotation.next()), &kv.layers[0]))
    });

    let mut skv = ShadowKvSelector::preprocess(&kv, cfg);
    assert_eq!(
        skv.select(0, &queries, &kv.layers[0], &mut scratch),
        skv.select_reference(0, &queries, &kv.layers[0]),
        "shadowkv diverged from reference"
    );
    c.bench_function("selection/shadowkv/16k->2048", |b| {
        b.iter(|| skv.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
    c.bench_function("selection/shadowkv_reference/16k->2048", |b| {
        b.iter(|| skv.select_reference(0, black_box(rotation.next()), &kv.layers[0]))
    });

    let mut inf = InfiniGenSelector::preprocess(&kv, cfg);
    let mut inf_ref = inf.clone();
    assert_eq!(
        inf.select(0, &queries, &kv.layers[0], &mut scratch),
        inf_ref.select_reference(0, &queries, &kv.layers[0]),
        "infinigen diverged from reference"
    );
    c.bench_function("selection/infinigen/16k->2048", |b| {
        b.iter(|| inf.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
    c.bench_function("selection/infinigen_reference/16k->2048", |b| {
        b.iter(|| inf_ref.select_reference(0, black_box(rotation.next()), &kv.layers[0]))
    });

    // SpeContext head-level mapping over 16K-position head scores.
    let geom = SimGeometry::tiny(AttentionKind::Gqa);
    let mut head_scores = Rotation::new(|| {
        (0..geom.q_heads)
            .map(|_| tie_heavy_scores(&mut rng, CTX))
            .collect::<Vec<_>>()
    });
    for scores in &head_scores.items {
        assert_eq!(
            SpecSelection::from_head_scores(scores, &geom, &cfg, MappingLevel::Head),
            SpecSelection::from_head_scores_reference(scores, &geom, &cfg, MappingLevel::Head),
            "spec_head diverged from reference"
        );
    }
    c.bench_function("selection/spec_head/16k->2048", |b| {
        b.iter(|| {
            SpecSelection::from_head_scores_scratch(
                black_box(head_scores.next()),
                &geom,
                &cfg,
                MappingLevel::Head,
                &mut scratch,
            )
        })
    });
    c.bench_function("selection/spec_head_reference/16k->2048", |b| {
        b.iter(|| {
            SpecSelection::from_head_scores_reference(
                black_box(head_scores.next()),
                &geom,
                &cfg,
                MappingLevel::Head,
            )
        })
    });

    // The static policies ride along for completeness (no reference pair:
    // their selection was allocation-minimal already).
    let mut window = spec_retrieval::window::StreamingLlm::new(4, BUDGET);
    c.bench_function("selection/streaming_llm/16k", |b| {
        b.iter(|| window.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
    let mut full = spec_retrieval::FullAttention;
    c.bench_function("selection/full/16k", |b| {
        b.iter(|| full.select(0, black_box(rotation.next()), &kv.layers[0], &mut scratch))
    });
}

/// LUT-quantized scoring at the ShadowKV shape: one query scoring a
/// 16K-key int4 shadow (dim 64). The LUT path gathers precomputed
/// products; the reference unpacks/converts/multiplies per element. Int8
/// keys are scored by the widened-multiply kernel (`dot_i8_fma`, the
/// production path behind `QuantVec::dot`). Every pair is asserted
/// bit-equal before timing.
fn bench_lut(c: &mut Criterion) {
    let mut rng = SimRng::seed(0x10_07);
    const CTX: usize = 16_384;
    const HEAD_DIM: usize = 64;
    let query: Vec<f32> = (0..HEAD_DIM).map(|_| rng.normal()).collect();
    let rows = rng.normal_matrix(CTX, HEAD_DIM, 1.0);
    let keys_i4: Vec<QuantVec> = rows
        .iter_rows()
        .map(|r| QuantVec::quantize(r, BitWidth::Int4))
        .collect();
    let keys_i8: Vec<QuantVec> = rows
        .iter_rows()
        .map(|r| QuantVec::quantize(r, BitWidth::Int8))
        .collect();

    let mut lut = QueryLut::build(&query);
    c.bench_function("lut/build_i4/64", |b| {
        b.iter(|| lut.rebuild(black_box(&query)))
    });

    let want_i4: Vec<f32> = keys_i4.iter().map(|k| k.dot_reference(&query)).collect();
    let mut out = Vec::new();
    lut.scores_into(&keys_i4, &mut out);
    assert_eq!(
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want_i4.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "int4 LUT scoring diverged from reference"
    );
    c.bench_function("lut/dot_i4/16384x64", |b| {
        b.iter(|| lut.scores_into(black_box(&keys_i4), &mut out))
    });
    c.bench_function("lut/dot_i4_reference/16384x64", |b| {
        b.iter(|| {
            out.clear();
            out.extend(black_box(&keys_i4).iter().map(|k| k.dot_reference(&query)));
        })
    });

    let want_i8: Vec<f32> = keys_i8.iter().map(|k| k.dot_reference(&query)).collect();
    spec_tensor::quant::dot_i8_batch_into(&query, &keys_i8, &mut out);
    assert_eq!(
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want_i8.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "int8 widened batch kernel diverged from reference"
    );
    c.bench_function("lut/dot_i8_fma/16384x64", |b| {
        b.iter(|| spec_tensor::quant::dot_i8_batch_into(&query, black_box(&keys_i8), &mut out))
    });
    c.bench_function("lut/dot_i8_reference/16384x64", |b| {
        b.iter(|| {
            out.clear();
            out.extend(black_box(&keys_i8).iter().map(|k| k.dot_reference(&query)));
        })
    });
}

/// Blocked kernel vs the reference triple loop at the forward shapes.
fn bench_matmul(c: &mut Criterion) {
    let mut rng = SimRng::seed(0x6E66);
    for (label, m, k, n) in FORWARD_SHAPES {
        let a = rng.normal_matrix(m, k, 1.0);
        let b = rng.normal_matrix(k, n, 1.0);
        // The speedup claim rests on identical results; check, don't trust.
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        assert_eq!(
            blocked, naive,
            "blocked kernel diverged from reference at {label}"
        );
        c.bench_function(&format!("matmul/{label}/{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
        c.bench_function(&format!("matmul_naive/{label}/{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(&a).matmul_naive(black_box(&b)))
        });
    }
}

/// Token-at-a-time prefill, as `prefill_embeddings` ran before it was
/// chunked: one decode step per position under that position's window
/// plan (the oracle of `crates/model/tests/prefill_equivalence.rs`).
fn prefill_oracle(
    model: &Model,
    emb: &Matrix,
    window: usize,
    sinks: usize,
) -> (ModelKv, StepOutput) {
    let geom = model.geometry();
    let mut kv = ModelKv::empty(geom);
    let mut scratch = SelectScratch::new();
    let mut last = None;
    for pos in 0..emb.rows() {
        let lo = pos.saturating_sub(window);
        let mut positions: Vec<usize> = (0..sinks.min(lo)).collect();
        positions.extend(lo..=pos);
        let plan = SparsePlan::uniform(geom.layers, geom.kv_heads, positions);
        last = Some(model.step(emb.row(pos), pos, &mut kv, &mut &plan, &mut scratch, None));
    }
    (kv, last.expect("nonempty prompt"))
}

/// The chunked, layer-major prefill against the token-at-a-time loop at
/// the engine's geometry, and against itself inside a `par_map` item
/// (`prefill/serial`), as `decode_step/{split,serial}` compare a step.
fn bench_prefill(c: &mut Criterion) {
    let model = Model::new(
        ModelConfig::deepseek_distill_llama_8b().sim_geometry(),
        0x5EED,
    );
    let tokens: Vec<usize> = (0..4096).map(|i| (i * 31 + 7) % 512).collect();
    let emb = model.embed_tokens(&tokens);
    let (window, sinks) = (96, 4);
    let mode = PrefillMode::Windowed { window, sinks };
    // Same cache, same logits; check, don't trust.
    let (kv, out) = model.prefill_embeddings(&emb, mode);
    let (want_kv, want_out) = prefill_oracle(&model, &emb, window, sinks);
    assert_eq!(out.logits, want_out.logits, "chunked prefill diverged");
    for (got, want) in kv.layers.iter().zip(&want_kv.layers) {
        match (got, want) {
            (
                LayerKv::PerHead { keys, values },
                LayerKv::PerHead {
                    keys: want_keys,
                    values: want_values,
                },
            ) => assert!(keys == want_keys && values == want_values, "KV diverged"),
            _ => panic!("GQA geometry stores per-head KV"),
        }
    }
    c.bench_function(PREFILL, |b| {
        b.iter(|| model.prefill_embeddings(black_box(&emb), mode))
    });
    c.bench_function(PREFILL_ORACLE, |b| {
        b.iter(|| prefill_oracle(&model, black_box(&emb), window, sinks))
    });
    let c = Mutex::new(c);
    spec_parallel::with_threads(2, || {
        spec_parallel::par_map_range(2, |worker| {
            if worker == 0 {
                let mut c = c.lock().expect("one worker");
                c.bench_function(PREFILL_SERIAL, |b| {
                    b.iter(|| model.prefill_embeddings(black_box(&emb), mode))
                });
            }
        })
    });
}

/// One KV head's decode attention as `Model::step` ran it before it read
/// the cache in place: copy the attended K and V rows out, then the scalar
/// specification per query head. The bench's oracle only.
fn attend_gathered(
    queries: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    positions: &[usize],
    out: &mut [f32],
) {
    let (k, v) = (keys.gather_rows(positions), values.gather_rows(positions));
    for (query, o) in queries.iter_rows().zip(out.chunks_exact_mut(values.cols())) {
        let weights = ops::attention_weights(query, &k);
        o.copy_from_slice(&ops::weighted_sum(&weights, &v));
    }
}

/// The same through the kernels `Model::attention` is made of.
fn attend_fused(
    queries: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    positions: &[usize],
    (tile, scores): &mut (Vec<f32>, Vec<f32>),
    out: &mut [f32],
) {
    let len = positions.len();
    scores.clear();
    scores.resize(queries.rows() * len, 0.0);
    ops::indexed_dots(queries.as_slice(), keys, positions, tile, scores);
    ops::softmax_rows_inplace(scores, len, 1.0 / (keys.cols() as f32).sqrt());
    ops::indexed_weighted_sums(scores, values, positions, out);
}

/// A decode step's attention at the engine's shape — 4 layers x 2 KV
/// heads, each a cache of its own, a group of four 16-wide query heads —
/// in place through an index list against gather-then-attend.
fn bench_attend(c: &mut Criterion) {
    const HEAD_LAYERS: usize = 8;
    const GROUP: usize = 4;
    const HEAD_DIM: usize = 16;
    let mut rng = SimRng::seed(0xA77E);
    let queries = rng.normal_matrix(GROUP, HEAD_DIM, 1.0);
    for (label, cached, attended) in ATTEND_SHAPES {
        let caches: Vec<(Matrix, Matrix)> = (0..HEAD_LAYERS)
            .map(|_| {
                (
                    rng.normal_matrix(cached, HEAD_DIM, 1.0),
                    rng.normal_matrix(cached, HEAD_DIM, 1.0),
                )
            })
            .collect();
        // Ascending selections; all of the cache is the one dense list.
        let mut lists = Rotation::new(|| {
            if attended == cached {
                return (0..cached).collect();
            }
            ascending_sample(&mut rng, cached, attended)
        });
        if attended == cached {
            lists.items.truncate(1);
        }
        let mut work = (Vec::new(), Vec::new());
        let mut got = vec![0.0f32; GROUP * HEAD_DIM];
        let mut want = got.clone();
        // Same bits; check, don't trust.
        for list in &lists.items {
            for (keys, values) in &caches {
                attend_fused(&queries, keys, values, list, &mut work, &mut got);
                attend_gathered(&queries, keys, values, list, &mut want);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "in-place attention diverged from gather-then-attend at {label}"
                );
            }
        }
        c.bench_function(&format!("attend/{label}"), |b| {
            b.iter(|| {
                let list = lists.next();
                for (keys, values) in &caches {
                    attend_fused(&queries, keys, values, black_box(list), &mut work, &mut got);
                }
                got[0]
            })
        });
        c.bench_function(&format!("attend_gathered/{label}"), |b| {
            b.iter(|| {
                let list = lists.next();
                for (keys, values) in &caches {
                    attend_gathered(&queries, keys, values, black_box(list), &mut want);
                }
                want[0]
            })
        });
    }
}

/// `(rows, cols)` of the grouped-softmax entries: a prefill position's
/// query group over window + sinks, a decode step's over its budget, and
/// the long rows four-in-step must not slow (the retrieval head's).
const SOFTMAX_GROUPS: [(usize, usize); 3] = [(4, 101), (4, 261), (8, 4224)];

/// The value tile beside its twin, at a prefill position's shape: four
/// heads weighing 101 rows of 16.
const VALUE_TILE: &str = "value_pass/4x101";
const VALUE_TILE_BRANCHY: &str = "value_pass_branchy/4x101";

spec_tensor::dispatch_kernel! {
    /// The value tile as it ran while it tested every weight for zero in
    /// the walk — PR 19's `indexed_weighted_rows` over PR 17's
    /// `weighted_tiles`, its full-tile arm verbatim: four heads by
    /// sixteen columns in registers over the listed `d`-wide rows of
    /// `values`, `weights` head-major. The bench's twin only.
    branchy_value_tile(
        weights: &[f32],
        values: &[f32],
        d: usize,
        positions: &[usize],
        out: &mut [f32],
    ) {
        let rows = positions.iter().map(|&p| &values[p * d..][..d]);
        let (stride, len) = (positions.len(), positions.len());
        let (h0, c0) = (0, 0);
        let w: [&[f32]; 4] = std::array::from_fn(|j| &weights[(h0 + j) * stride..][..len]);
        let mut acc: [[f32; 16]; 4] = std::array::from_fn(|j| {
            out[(h0 + j) * d + c0..][..16]
                .try_into()
                .expect("tile row")
        });
        for (row, i) in rows.clone().zip(0..len) {
            let v: &[f32; 16] = row[c0..c0 + 16].try_into().expect("tile row");
            for (a, w) in acc.iter_mut().zip(&w) {
                if w[i] == 0.0 {
                    continue;
                }
                for (a, &x) in a.iter_mut().zip(v) {
                    *a += w[i] * x;
                }
            }
        }
        for (j, a) in acc.iter().enumerate() {
            out[(h0 + j) * d + c0..][..16].copy_from_slice(a);
        }
    }
}

/// `ops::indexed_weighted_sums` around the twin: the same checks, the
/// same zeroed output, the same dispatch.
fn branchy_weighted_sums(weights: &[f32], values: &Matrix, positions: &[usize], out: &mut [f32]) {
    assert!(positions.iter().all(|&p| p < values.rows()));
    out.fill(0.0);
    assert_eq!(weights.len(), out.len() / values.cols() * positions.len());
    branchy_value_tile::dispatch(
        spec_tensor::dispatch::active_tier(),
        weights,
        values.as_slice(),
        values.cols(),
        positions,
        out,
    );
}

/// The forward pass's hot loops, each alone and cache-hot at the engine's
/// shapes (a GQA group of four 16-wide heads, window 96 + 4 sinks).
fn bench_forward(c: &mut Criterion) {
    const GROUP: usize = 4;
    const HEAD_DIM: usize = 16;
    let mut rng = SimRng::seed(0xF0A4);

    // The value pass of one prefill position and KV head.
    let rows = 101;
    let values = rng.normal_matrix(rows, HEAD_DIM, 1.0);
    let mut weights: Vec<f32> = (0..GROUP * rows).map(|_| rng.normal()).collect();
    ops::softmax_rows_inplace(&mut weights, rows, 1.0);
    let list: Vec<usize> = (0..rows).collect();
    let (mut got, mut want) = (
        vec![0.0f32; GROUP * HEAD_DIM],
        vec![0.0f32; GROUP * HEAD_DIM],
    );
    // Same bits; check, don't trust.
    ops::indexed_weighted_sums(&weights, &values, &list, &mut got);
    branchy_weighted_sums(&weights, &values, &list, &mut want);
    assert!(
        got.iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()),
        "the value tile diverged from its branchy twin"
    );
    c.bench_function(VALUE_TILE, |b| {
        b.iter(|| ops::indexed_weighted_sums(black_box(&weights), &values, &list, &mut got))
    });
    c.bench_function(VALUE_TILE_BRANCHY, |b| {
        b.iter(|| branchy_weighted_sums(black_box(&weights), &values, &list, &mut want))
    });

    for (rows, cols) in SOFTMAX_GROUPS {
        let logits: Vec<f32> = (0..rows * cols).map(|_| rng.normal() * 3.0).collect();
        let mut work = logits.clone();
        c.bench_function(&format!("softmax/{rows}x{cols}"), |b| {
            b.iter(|| {
                work.copy_from_slice(&logits);
                ops::softmax_rows_inplace(black_box(&mut work), cols, 0.25);
            })
        });
    }

    // One KV head's attention over a prefill block: queries in the fused
    // projection's rows, outputs in the heads' concatenation, the block
    // anywhere in a 4 K cache.
    let cached = 4352;
    let (keys, values) = (
        rng.normal_matrix(cached, HEAD_DIM, 1.0),
        rng.normal_matrix(cached, HEAD_DIM, 1.0),
    );
    let proj = rng.normal_matrix(64, 12 * HEAD_DIM, 1.0);
    let mut concat = Matrix::zeros(64, 8 * HEAD_DIM);
    let mut starts = Rotation::new(|| 64 * (2 + rng.below(cached / 64 - 3)));
    let (mut span, mut scores) = (KeyBlocks::new(HEAD_DIM), Vec::new());
    c.bench_function("prefill_attend/block64", |b| {
        b.iter(|| {
            let block = ops::BlockAttention {
                queries: proj.as_slice(),
                q_stride: proj.cols(),
                heads: GROUP,
                keys: &keys,
                values: &values,
                cut: 0,
                start: *starts.next(),
                rows: 64,
                window: 96,
                sinks: 4,
            };
            let out_stride = concat.cols();
            ops::attend_block(
                black_box(&block),
                &mut span,
                &mut scores,
                concat.as_mut_slice(),
                out_stride,
            );
            concat.get(0, 0)
        })
    });

    // The fused Q|K|V projection of a prefill block.
    let (a, b) = (
        rng.normal_matrix(64, 64, 1.0),
        rng.normal_matrix(64, 192, 1.0),
    );
    c.bench_function("gemm/64x64x192", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)))
    });
}

/// `spec_parallel::join`'s hand-off, and a decode step through it.
///
/// `join/roundtrip` is one join whose `b` waits (a bounded spin) until the
/// helper has started `a`: a post, the helper's pick-up, an empty `a` and
/// its completion, as a split step pays them. `par_map/2_items` is a
/// `par_map_range` of two empty items at two leaves: one join over them
/// (the helper's leaf usually claimed back, the items being empty), the
/// two leaves' vectors and their concatenation. `decode_step/{split,serial}`
/// is a `reason_2k_16k` step late in the op, 2304 positions cached: the
/// retrieval head's select and the model's forward under the selection,
/// then the step's K/V rows taken back. `split` runs on this thread, where
/// the helper may take each KV-head half; `serial` inside a `par_map`
/// item, whose joins run inline.
fn bench_split(c: &mut Criterion) {
    c.bench_function(JOIN_ROUNDTRIP, |b| {
        b.iter(|| {
            let started = AtomicBool::new(false);
            spec_parallel::join(
                || started.store(true, Ordering::Release),
                || {
                    // Bounded: inline (one CPU), `a` runs after this.
                    for _ in 0..100_000 {
                        if started.load(Ordering::Acquire) {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                },
            )
        })
    });
    c.bench_function(PAR_MAP_2, |b| {
        b.iter(|| spec_parallel::with_threads(2, || spec_parallel::par_map_range(2, black_box)))
    });

    let engine = spec_bench::sim_engine(
        &ModelConfig::deepseek_distill_llama_8b(),
        spec_bench::to_sim(2048),
        0x5EED,
    );
    let model = engine.model();
    let geom = model.geometry();
    let mut rng = SimRng::seed(0xDEC0);
    let tokens: Vec<usize> = (0..=DECODE_CACHED).map(|_| rng.below(geom.vocab)).collect();
    let emb = model.embed_tokens(&tokens);
    let prompt = Matrix::from_vec(
        DECODE_CACHED,
        geom.hidden,
        emb.as_slice()[..DECODE_CACHED * geom.hidden].to_vec(),
    );
    let (kv, _) = model.prefill_embeddings(&prompt, engine.config().prefill_mode);
    let mut retriever = engine.retriever();
    for row in 0..DECODE_CACHED {
        retriever.observe(emb.row(row));
    }
    let x = emb.row(DECODE_CACHED);
    let step = |c: &mut Criterion, name: &str| {
        let (mut kv, mut scratch) = (kv.clone(), SelectScratch::new());
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut selection = retriever.select_scratch(black_box(x), geom, &mut scratch);
                let out = model.step(
                    x,
                    DECODE_CACHED,
                    &mut kv,
                    &mut selection,
                    &mut scratch,
                    None,
                );
                kv.truncate(DECODE_CACHED);
                out.logits[0]
            })
        });
    };
    step(c, DECODE_STEP_SPLIT);
    let c = Mutex::new(c);
    spec_parallel::with_threads(2, || {
        spec_parallel::par_map_range(2, |worker| {
            if worker == 0 {
                step(&mut c.lock().expect("one worker"), DECODE_STEP_SERIAL);
            }
        })
    });
}

/// Cached positions of the head-sweep comparison: a `reason_2k_16k` step
/// midway and at its end, and a `prompt_32k_2k` step.
const SWEEP_LENS: [usize; 3] = [1280, 2304, 4224];

/// Union sizes of the overlap comparison: the mean union selection of a
/// `reason_2k_16k` and of a `prompt_32k_2k` step.
const OVERLAP_LENS: [usize; 2] = [376, 425];

/// `stats::hit_rate` as it was: a `HashSet` of `b` built per call.
fn overlap_hashed(a: &[usize], b: &[usize]) -> f32 {
    let set: std::collections::HashSet<usize> = b.iter().copied().collect();
    a.iter().filter(|i| set.contains(i)).count() as f32 / a.len().max(1) as f32
}

/// `(label, context, union size)` of the selection-glue comparison: the
/// mean union selection of a `reason_2k_16k` step at that workload's mean
/// context and of a `prompt_32k_2k` step.
const GLUE_SHAPES: [(&str, usize, usize); 2] = [("376of1280", 1280, 376), ("425of4224", 4224, 425)];

/// A two-KV-head selection of 260 positions a head below `ctx` whose
/// union holds `union` of them, the heads sharing the rest.
fn two_head_selection(rng: &mut SimRng, ctx: usize, union: usize) -> SpecSelection {
    const PER_HEAD: usize = 260;
    let positions = ascending_sample(rng, ctx, union);
    let mut order: Vec<usize> = (0..union).collect();
    for i in (1..union).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let shared = 2 * PER_HEAD - union;
    let mut per_head = vec![Vec::new(), Vec::new()];
    for (rank, &i) in order.iter().enumerate() {
        if rank < shared {
            per_head[0].push(positions[i]);
            per_head[1].push(positions[i]);
        } else {
            per_head[(rank - shared) % 2].push(positions[i]);
        }
    }
    per_head.iter_mut().for_each(|head| head.sort_unstable());
    SpecSelection {
        per_head,
        budget: 256,
    }
}

/// The union as `SpecSelection::union_positions_into` built it before
/// bitmaps — a k-way merge of the ascending per-head lists, a cursor per
/// head — the bench's baseline only.
fn union_merged(per_head: &[Vec<usize>], out: &mut Vec<usize>) {
    out.clear();
    let mut cursors = [0usize; 16];
    let cursors = &mut cursors[..per_head.len()];
    loop {
        let heads = per_head.iter().zip(cursors.iter());
        let Some(next) = heads.filter_map(|(head, &c)| head.get(c)).min().copied() else {
            return;
        };
        out.push(next);
        for (head, c) in per_head.iter().zip(cursors.iter_mut()) {
            *c += usize::from(head.get(*c) == Some(&next));
        }
    }
}

/// What a decode step does around the forward pass: the retrieval head's
/// sweep of every cached key — 8 heads of 16-wide keys, f32 blocks
/// against the int8 blocks the head keeps — the overlap of adjacent
/// union selections, and the union and overlap together as the decode
/// loop counts them, by bitmap beside the merges they replaced.
fn bench_retrieval_side(c: &mut Criterion) {
    const HEADS: usize = 8;
    const HEAD_DIM: usize = 16;
    const SESSIONS: usize = 16;
    let mut rng = SimRng::seed(0x5EEB);
    let queries = rng.normal_matrix(HEADS, HEAD_DIM, 1.0);
    for n in SWEEP_LENS {
        let session = |_| {
            let mut f32_keys = vec![KeyBlocks::new(HEAD_DIM); HEADS];
            let mut int8_keys = vec![QuantKeyBlocks::new(HEAD_DIM); HEADS];
            for (f, q) in f32_keys.iter_mut().zip(&mut int8_keys) {
                for key in rng.normal_matrix(n, HEAD_DIM, 1.0).iter_rows() {
                    f.push(key);
                    q.push(key);
                }
            }
            (f32_keys, int8_keys)
        };
        let mut sessions = Rotation {
            items: (0..SESSIONS).map(session).collect(),
            at: 0,
        };
        let mut out = Vec::new();
        c.bench_function(&format!("head_sweep/f32/{n}"), |b| {
            b.iter(|| {
                for (keys, q) in sessions.next().0.iter().zip(queries.iter_rows()) {
                    keys.dots_into(black_box(q), &mut out);
                }
                out[0]
            })
        });
        c.bench_function(&format!("head_sweep/int8/{n}"), |b| {
            b.iter(|| {
                for (keys, q) in sessions.next().1.iter().zip(queries.iter_rows()) {
                    keys.dots_into(black_box(q), &mut out);
                }
                out[0]
            })
        });
    }

    for n in OVERLAP_LENS {
        // Adjacent unions share about half their positions.
        let mut pairs = Rotation::new(|| {
            let mut draw = || ascending_sample(&mut rng, 2 * n, n);
            (draw(), draw())
        });
        for (a, b) in &pairs.items {
            assert_eq!(
                stats::overlap_rate(a, b).to_bits(),
                overlap_hashed(a, b).to_bits(),
                "the merge and the hash set count different overlaps"
            );
        }
        c.bench_function(&format!("stats/overlap_merge/{n}"), |b| {
            b.iter(|| {
                let (prev, next) = pairs.next();
                stats::overlap_rate(black_box(prev), black_box(next))
            })
        });
        c.bench_function(&format!("stats/overlap_hash/{n}"), |b| {
            b.iter(|| {
                let (prev, next) = pairs.next();
                overlap_hashed(black_box(prev), black_box(next))
            })
        });
    }

    // Consecutive selections: the previous step's union is at hand (the
    // loop carries it), this step's is built and counted against it.
    for (label, ctx, union) in GLUE_SHAPES {
        let mut pairs = Rotation::new(|| {
            let prev = two_head_selection(&mut rng, ctx, union);
            let (mut words, mut list) = (Vec::new(), Vec::new());
            prev.union_words_into(&mut words);
            union_merged(&prev.per_head, &mut list);
            (words, list, two_head_selection(&mut rng, ctx, union))
        });
        let (mut words, mut list) = (Vec::new(), Vec::new());
        for (prev_words, prev_list, cur) in &pairs.items {
            cur.union_words_into(&mut words);
            union_merged(&cur.per_head, &mut list);
            assert_eq!(
                cur.union_positions(),
                list,
                "the bitmap and the merge unite differently"
            );
            assert_eq!(
                union_overlap_rate(prev_words, &words).to_bits(),
                stats::overlap_rate(prev_list, &list).to_bits(),
                "the popcount and the merge count different overlaps"
            );
        }
        c.bench_function(&format!("selection_glue/words/{label}"), |b| {
            b.iter(|| {
                let (prev, _, cur) = pairs.next();
                black_box(cur).union_words_into(&mut words);
                union_overlap_rate(prev, &words)
            })
        });
        c.bench_function(&format!("selection_glue/merge/{label}"), |b| {
            b.iter(|| {
                let (_, prev, cur) = pairs.next();
                union_merged(&black_box(cur).per_head, &mut list);
                stats::overlap_rate(prev, &list)
            })
        });
    }
}

/// The walk and the lookup over `STEP_HIT`'s lengths at batch 4.
const STEP_HIT_WALK: &str = "serving/step_hit_walk/4x2048..6144";
const STEP_HIT_LOOKUP: &str = "serving/step_hit_lookup/4x2048..6144";
/// 512 consecutive cold lengths (one table page) at batch 4: through the
/// table, which prices them a block of `STEP_BLOCK` lanes per miss; one
/// `step_time` each, on a one-lane price-only timeline; and one step at a
/// time on a recording timeline.
const STEP_MISS: &str = "serving/step_miss/specontext";
const STEP_PRICE: &str = "serving/step_price/specontext";
const STEP_MISS_RECORDED: &str = "serving/step_miss_recorded/specontext";
const ADVANCE_SAMPLE: &str = "scheduler/advance_until/sample512";

/// The simulator's per-iteration layers on the benchmark's replica: an
/// A100 running the 8B model at budget 2048 under `replay_gate`'s
/// scheduler.
fn bench_serving(c: &mut Criterion) {
    let system = SystemKind::SpeContext;
    let sim = ServingSim::new(
        ModelConfig::deepseek_distill_llama_8b(),
        spec_hwsim::DeviceSpec::a100_80g(),
        2048,
    );
    let (r, lens) = (4, 2048..6144usize);

    // A hit: consecutive lengths of one batch, as a quiet run meets them.
    let mut cache = StepCache::new();
    let lookup = |cache: &mut StepCache| -> Vec<Tick> {
        lens.clone()
            .map(|s| sim.step_time_cached(cache, system, r, s, s))
            .collect()
    };
    let want = lookup(&mut cache);
    // What a quiet run does: read the stretch's ticks off the blocks'
    // running sums, and stop where a deadline falls.
    let n = lens.len();
    let total: Tick = want.iter().sum();
    let walk = |cache: &mut StepCache, need| sim.run_ticks(cache, system, r, lens.start, n, need);
    // Same ticks; check, don't trust.
    assert_eq!(
        walk(&mut cache, Tick::MAX),
        (n, total),
        "the walk diverged from the lookup"
    );
    let half: Tick = want[..n / 2].iter().sum();
    assert_eq!(
        walk(&mut cache, half),
        (n / 2, half),
        "the walk stopped elsewhere"
    );
    c.bench_function(STEP_HIT_WALK, |b| {
        b.iter(|| walk(&mut cache, black_box(Tick::MAX)))
    });
    c.bench_function(STEP_HIT_LOOKUP, |b| {
        b.iter(|| {
            black_box(lens.clone())
                .map(|s| sim.step_time_cached(&mut cache, system, r, s, s))
                .sum::<Tick>()
        })
    });

    // A miss: one page of cold lengths, priced the way the table prices
    // them (a block of lanes per miss), one length at a time, and on a
    // timeline that records every op — the same offload depth and step
    // shape.
    let miss_lens = 2048..2048 + 512usize;
    let thresholds = Thresholds::compute(sim.memory_model(), r, sim.budget());
    let layers = sim.cost_model().config().layers;
    let profile = system.profile();
    let mut recording = spec_hwsim::EventSim::default();
    let mut recorded = |s: usize| {
        let params = StepParams {
            r,
            s_total: s,
            s_attended: sim.budget().min(s),
            candidates: 0,
            candidate_bytes: 0.0,
            l_cpu: thresholds.required_offload(s).unwrap_or(layers),
            budget: sim.budget(),
            reuse: sim.elastic_reuse,
        };
        let [bd] = step_timeline_into(
            &mut recording,
            DataflowKind::SpeContext,
            sim.cost_model(),
            &profile,
            sim.device(),
            &[params],
        );
        bd.total
    };
    let mut cold = StepCache::new();
    for s in miss_lens.clone() {
        let priced = sim.step_time_cached(&mut cold, system, r, s, s);
        assert_eq!(priced, seconds_to_ticks(recorded(s)), "miss price at {s}");
        let single = sim.step_time(system, r, s, s);
        assert_eq!(priced, seconds_to_ticks(single), "block lane at {s}");
    }
    c.bench_function(STEP_MISS, |b| {
        b.iter_batched(
            StepCache::new,
            |mut cold| {
                miss_lens
                    .clone()
                    .map(|s| sim.step_time_cached(&mut cold, system, r, s, s))
                    .sum::<Tick>()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function(STEP_PRICE, |b| {
        b.iter(|| {
            black_box(miss_lens.clone())
                .map(|s| sim.step_time(system, r, s, s))
                .sum::<f64>()
        })
    });
    c.bench_function(STEP_MISS_RECORDED, |b| {
        b.iter(|| black_box(miss_lens.clone()).map(&mut recorded).sum::<f64>())
    });

    // One engine over the committed trace's first 512 requests, table
    // cold: misses, quiet runs, sweeps and decisions in their real mix.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sample_trace.sptr"
    );
    let bytes = std::fs::read(path).expect("committed results/sample_trace.sptr");
    let requests: Vec<Request> = spec_serve::trace::decode(&bytes)
        .expect("sample trace decodes")
        .iter()
        .take(512)
        .map(|cr| cr.request)
        .collect();
    let scheduler = Scheduler::new(
        sim.clone(),
        system,
        SchedulerConfig {
            max_batch: 4,
            admission_stride: 4,
            fair: FairConfig {
                discipline: QueueDiscipline::DeficitRoundRobin,
                weights: vec![(0, 4), (1, 1)],
                preemption: PreemptionPolicy::DeficitRoundRobin,
                ..FairConfig::default()
            },
        },
    );
    c.bench_function(ADVANCE_SAMPLE, |b| {
        b.iter(|| scheduler.run(black_box(&requests)).makespan)
    });
}

/// `old / new` over two entries' best samples.
fn best_ratio(c: &Criterion, old: &str, new: &str) -> f64 {
    match (best_ns(c, old), best_ns(c, new)) {
        (Some(old), Some(new)) => old / new,
        _ => f64::NAN,
    }
}

/// Persists every timing plus the naive/blocked speedups to
/// `results/bench_kernels.json`.
fn write_summary(c: &Criterion) {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"kernels\",\n");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let provenance = spec_bench::provenance::Provenance::current(&root);
    json.push_str(&format!("  \"provenance\": {},\n", provenance.to_json()));
    json.push_str(&format!(
        "  \"spec_threads\": {},\n  \"entries\": [\n",
        spec_parallel::max_threads()
    ));
    let entries: Vec<String> = c
        .summaries()
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"best_ns\": {:.1}}}",
                s.name, s.mean_ns, s.best_ns
            )
        })
        .collect();
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ],\n  \"matmul_speedup_vs_naive\": {\n");
    let speedups: Vec<String> = FORWARD_SHAPES
        .iter()
        .filter_map(|(label, m, k, n)| {
            let blocked = c.mean_ns(&format!("matmul/{label}/{m}x{k}x{n}"))?;
            let naive = c.mean_ns(&format!("matmul_naive/{label}/{m}x{k}x{n}"))?;
            Some(format!("    \"{label}\": {:.2}", naive / blocked))
        })
        .collect();
    json.push_str(&speedups.join(",\n"));
    let prefill_speedup = match (c.mean_ns(PREFILL_ORACLE), c.mean_ns(PREFILL)) {
        (Some(oracle), Some(chunked)) => oracle / chunked,
        _ => f64::NAN,
    };
    let tile_speedup = best_ratio(c, VALUE_TILE_BRANCHY, VALUE_TILE);
    let append_speedup = best_ratio(c, HEAD_APPEND_PER_HEAD, HEAD_APPEND);
    json.push_str(&format!(
        "\n  }},\n  \"prefill_speedup_vs_oracle\": {prefill_speedup:.2},\n  \"value_tile_speedup_vs_branchy\": {tile_speedup:.2},\n  \"head_append_speedup_vs_per_head\": {append_speedup:.2},\n"
    ));
    let split_speedup = best_ratio(c, DECODE_STEP_SERIAL, DECODE_STEP_SPLIT);
    // Means, as for the oracle ratio: a sample is a whole prefill, and the
    // serial side's best swung 72-112 ms across four runs on one host.
    let prefill_split_speedup = match (c.mean_ns(PREFILL_SERIAL), c.mean_ns(PREFILL)) {
        (Some(serial), Some(split)) => serial / split,
        _ => f64::NAN,
    };
    json.push_str(&format!(
        "  \"decode_step_split_speedup_vs_serial\": {split_speedup:.2},\n  \"prefill_split_speedup_vs_serial\": {prefill_split_speedup:.2},\n"
    ));
    let walk_speedup = best_ratio(c, STEP_HIT_LOOKUP, STEP_HIT_WALK);
    let miss_speedup = best_ratio(c, STEP_MISS_RECORDED, STEP_MISS);
    let block_speedup = best_ratio(c, STEP_PRICE, STEP_MISS);
    json.push_str(&format!(
        "  \"step_walk_speedup_vs_lookup\": {walk_speedup:.2},\n  \"step_miss_speedup_vs_recorded\": {miss_speedup:.2},\n  \"step_block_speedup_vs_single\": {block_speedup:.2},\n"
    ));
    json.push_str("  \"selection_speedup_vs_reference\": {\n");
    let sel_speedups: Vec<String> = selection_speedups(c)
        .into_iter()
        .map(|(label, s)| format!("    \"{label}\": {s:.2}"))
        .collect();
    json.push_str(&sel_speedups.join(",\n"));
    json.push_str("\n  },\n  \"mark_top_k_speedup_vs_sort\": {\n");
    let mark_speedups: Vec<String> = MARK_SHAPES
        .iter()
        .filter_map(|(n, k)| {
            let sort = best_ns(c, &format!("selection/sort_top_k/{n}->{k}"))?;
            let mark = best_ns(c, &format!("selection/mark_top_k/{n}->{k}"))?;
            Some(format!("    \"{n}->{k}\": {:.2}", sort / mark))
        })
        .collect();
    json.push_str(&mark_speedups.join(",\n"));
    json.push_str("\n  },\n  \"softmax_speedup_vs_libm\": {\n");
    let softmax_speedups: Vec<String> = SOFTMAX_LENS
        .iter()
        .filter_map(|n| {
            let libm = best_ns(c, &format!("softmax_libm/{n}"))?;
            let poly = best_ns(c, &format!("softmax/{n}"))?;
            Some(format!("    \"{n}\": {:.2}", libm / poly))
        })
        .collect();
    json.push_str(&softmax_speedups.join(",\n"));
    json.push_str("\n  },\n  \"attend_speedup_vs_gathered\": {\n");
    let attend_speedups: Vec<String> = ATTEND_SHAPES
        .iter()
        .filter_map(|(label, _, _)| {
            let gathered = best_ns(c, &format!("attend_gathered/{label}"))?;
            let fused = best_ns(c, &format!("attend/{label}"))?;
            Some(format!("    \"{label}\": {:.2}", gathered / fused))
        })
        .collect();
    json.push_str(&attend_speedups.join(",\n"));
    json.push_str("\n  },\n  \"head_sweep_int8_speedup_vs_f32\": {\n");
    let sweep_speedups: Vec<String> = SWEEP_LENS
        .iter()
        .map(|n| {
            let speedup = best_ratio(
                c,
                &format!("head_sweep/f32/{n}"),
                &format!("head_sweep/int8/{n}"),
            );
            format!("    \"{n}\": {speedup:.2}")
        })
        .collect();
    json.push_str(&sweep_speedups.join(",\n"));
    json.push_str("\n  },\n  \"overlap_merge_speedup_vs_hash\": {\n");
    let overlap_speedups: Vec<String> = OVERLAP_LENS
        .iter()
        .map(|n| {
            let speedup = best_ratio(
                c,
                &format!("stats/overlap_hash/{n}"),
                &format!("stats/overlap_merge/{n}"),
            );
            format!("    \"{n}\": {speedup:.2}")
        })
        .collect();
    json.push_str(&overlap_speedups.join(",\n"));
    json.push_str("\n  },\n  \"selection_glue_speedup_vs_merge\": {\n");
    let glue_speedups: Vec<String> = GLUE_SHAPES
        .iter()
        .map(|(label, _, _)| {
            let speedup = best_ratio(
                c,
                &format!("selection_glue/merge/{label}"),
                &format!("selection_glue/words/{label}"),
            );
            format!("    \"{label}\": {speedup:.2}")
        })
        .collect();
    json.push_str(&glue_speedups.join(",\n"));
    json.push_str("\n  },\n  \"lut_speedup_vs_reference\": {\n");
    let lut_speedups: Vec<String> = lut_speedups(c)
        .into_iter()
        .map(|(label, s)| format!("    \"{label}\": {s:.2}"))
        .collect();
    json.push_str(&lut_speedups.join(",\n"));
    json.push_str("\n  }\n}\n");
    spec_bench::emit_raw_json("bench_kernels", &json);
    for line in speedups {
        println!("[speedup vs naive]{}", line.replace("    ", " "));
    }
    println!("[prefill speedup vs token-at-a-time] {prefill_speedup:.2}");
    println!("[value tile speedup vs per-row zero test] {tile_speedup:.2}");
    println!("[head append speedup vs one vecmat a head] {append_speedup:.2}");
    println!("[decode step split speedup vs serial] {split_speedup:.2}");
    println!("[prefill split speedup vs serial] {prefill_split_speedup:.2}");
    println!("[step-table walk speedup vs lookup] {walk_speedup:.2}");
    println!("[step miss speedup vs recorded timeline] {miss_speedup:.2}");
    println!("[step block speedup vs one price a length] {block_speedup:.2}");
    println!("[provenance] {}", provenance.to_json());
    for line in sel_speedups {
        println!(
            "[selection speedup vs reference]{}",
            line.replace("    ", " ")
        );
    }
    for line in mark_speedups {
        println!("[set top-k speedup vs sort]{}", line.replace("    ", " "));
    }
    for line in softmax_speedups {
        println!("[softmax speedup vs libm]{}", line.replace("    ", " "));
    }
    for line in attend_speedups {
        println!(
            "[decode attention speedup vs gather]{}",
            line.replace("    ", " ")
        );
    }
    for line in sweep_speedups {
        println!(
            "[head sweep int8 speedup vs f32]{}",
            line.replace("    ", " ")
        );
    }
    for line in overlap_speedups {
        println!(
            "[overlap merge speedup vs hash set]{}",
            line.replace("    ", " ")
        );
    }
    for line in glue_speedups {
        println!(
            "[selection glue speedup vs merge]{}",
            line.replace("    ", " ")
        );
    }
    for line in lut_speedups {
        println!("[lut speedup vs reference]{}", line.replace("    ", " "));
    }
}

/// The named entry's best sample. A sample is ~100 ms of iterations, so
/// this is still a mean over the whole input rotation; what it drops is
/// the sample a host stall landed in (one 100 ms stall inside a 3 us
/// iteration once put `softmax/4224`'s mean at 1.4 ms beside a best of
/// 3.1 us), which the microsecond-scale entries' ratios cannot absorb.
fn best_ns(c: &Criterion, name: &str) -> Option<f64> {
    let summary = c.summaries().iter().find(|s| s.name == name)?;
    Some(summary.best_ns)
}

/// Old-path / new-path ratios for the selection engine: the full-sort
/// top-k vs the partial select, the page-table rebuild vs the
/// incremental extend, and each migrated selector vs its kept reference.
fn selection_speedups(c: &Criterion) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |label: &str, old: Option<f64>, new: Option<f64>| {
        if let (Some(old), Some(new)) = (old, new) {
            out.push((label.to_string(), old / new));
        }
    };
    push(
        "top_k_indices",
        c.mean_ns("selection/argsort_topk/16384->2048"),
        c.mean_ns("selection/top_k_indices/16384->2048"),
    );
    push(
        "page_table_extend",
        c.mean_ns("page_table_build/16384x64"),
        c.mean_ns("page_table_extend/16tok@16k"),
    );
    push(
        "page_table_build",
        c.mean_ns("page_table_build_reference/16384x64"),
        c.mean_ns("page_table_build/16384x64"),
    );
    for sel in ["quest", "clusterkv", "shadowkv", "infinigen", "spec_head"] {
        push(
            sel,
            c.mean_ns(&format!("selection/{sel}_reference/16k->2048")),
            c.mean_ns(&format!("selection/{sel}/16k->2048")),
        );
    }
    out
}

/// LUT-path / reference ratios for quantized scoring at the 16K shadow
/// shape: the int4 gather kernel and the int8 widened multiply.
fn lut_speedups(c: &Criterion) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |label: &str, old: Option<f64>, new: Option<f64>| {
        if let (Some(old), Some(new)) = (old, new) {
            out.push((label.to_string(), old / new));
        }
    };
    push(
        "dot_i4",
        c.mean_ns("lut/dot_i4_reference/16384x64"),
        c.mean_ns("lut/dot_i4/16384x64"),
    );
    push(
        "dot_i8_fma",
        c.mean_ns("lut/dot_i8_reference/16384x64"),
        c.mean_ns("lut/dot_i8_fma/16384x64"),
    );
    out
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    bench_kernels(&mut c);
    bench_selection(&mut c);
    bench_lut(&mut c);
    bench_matmul(&mut c);
    bench_prefill(&mut c);
    bench_attend(&mut c);
    bench_forward(&mut c);
    bench_split(&mut c);
    bench_retrieval_side(&mut c);
    bench_serving(&mut c);
    write_summary(&c);
}
