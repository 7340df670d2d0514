//! The engine workloads: one request served through
//! `Engine::session() → prefill_embeddings → decode_teacher_forced`, and the
//! same loop mirrored from outside with a span round each layer call.

use crate::alloc::{counted, AllocCount};
use crate::metrics::Metrics;
use crate::spans::{self_ns, Tracer};
use crate::stats::{mean, median, min, ms, quantile, time_us};
use crate::workloads::{fingerprint, unattributed_problem, Bench, Op, TraceOutcome};
use spec_bench::{sim_engine, to_sim};
use spec_kvcache::budget::BudgetBuffer;
use spec_model::{
    LayerSelector, Model, ModelConfig, ModelKv, SelectScratch, SparsePlan, StepOutput,
};
use spec_retrieval::clusterkv::ClusterKvSelector;
use spec_retrieval::infinigen::InfiniGenSelector;
use spec_retrieval::quest::QuestSelector;
use spec_retrieval::shadowkv::ShadowKvSelector;
use spec_retrieval::window::StreamingLlm;
use spec_runtime::exec::{generate_free_running, DecodeStrategy};
use spec_tensor::{stats::overlap_rate, topk, Matrix, SimRng};
use spec_workloads::{ContextBuilder, LongWriterTask};
use specontext_core::engine::Engine;
use std::time::Instant;

/// Weight seed. The weights are part of the program under test, not of
/// the workload's input, so `--seed` does not move them.
const WEIGHT_SEED: u64 = 0x5EED;

/// Seed of the pinned prompt output quality is measured on. Agreement
/// with dense decode ranges 0.51-1.0 over prompts (README), so a floor
/// 0.02 under the measured value can only hold for one prompt: quality is
/// a property of the program, checked on the same input in every run,
/// while the op's own prompt moves with `--seed`.
const QUALITY_SEED: u64 = 14;

/// The paper's budget of 2048 at `SIM_SCALE`.
pub fn paper_budget() -> usize {
    to_sim(2048)
}

/// Session/mirror op pairs in a traced pass.
const TRACED_OPS: usize = 3;

/// Pairs at most: while the mirror/session wall ratio is outside
/// [`MIRROR_BAND`] the pass adds pairs up to this many, so that a noisy
/// host alone does not mark the attribution invalid.
pub const MAX_TRACED_OPS: usize = 8;

/// Where `core.mirror_over_session` must lie for the mirrored loop's
/// spans to stand for the session's time.
const MIRROR_BAND: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Free-running steps of the `Session::generate` equivalence check.
const GENERATE_STEPS: usize = 64;

/// Teacher-forced steps each baseline selector decodes in a traced pass.
const BASELINE_STEPS: usize = 64;

/// The shape of an engine workload.
#[derive(Debug, Clone, Copy)]
pub struct EngineShape {
    /// Prompt tokens (paper length / `SIM_SCALE`).
    pub prompt_len: usize,
    /// Generated tokens.
    pub gen_len: usize,
    /// Prompt from `ContextBuilder` (planted evidence, the LongBench
    /// regime) instead of `LongWriterTask` (the LongWriter regime).
    pub planted: bool,
    /// Floor on `retrieval.token_match_rate`: measured − 0.02.
    pub match_floor: f64,
    /// Time the baseline selectors in the traced pass.
    pub baselines: bool,
}

impl EngineShape {
    /// `reason_2k_16k`: 256-token instruction, 2048 generated tokens.
    pub const REASON_2K_16K: EngineShape = EngineShape {
        prompt_len: 256,
        gen_len: 2048,
        planted: false,
        // Measured 0.85888671875 on the pinned prompt.
        match_floor: 0.8389,
        baselines: false,
    };
    /// `prompt_32k_2k`: 4096-token planted context, 256 generated tokens.
    pub const PROMPT_32K_2K: EngineShape = EngineShape {
        prompt_len: 4096,
        gen_len: 256,
        planted: true,
        // Measured 0.8828125 on the pinned prompt.
        match_floor: 0.8628,
        baselines: true,
    };
}

/// One request: the embedded prompt, and the token ids decode is fed.
///
/// Decode is teacher-forced on seed-drawn tokens, not free-running:
/// greedy decode of this random-weight model falls into loops whose
/// length depends on the prompt, and with them the work — 19 k to 1.19 M
/// KV entries fetched over seeds 1-6 on `reason_2k_16k`, against 2.00 M
/// to 2.09 M teacher-forced (README). Both drive the same per-step loop
/// in `spec_runtime::exec`.
struct Request {
    prompt: Matrix,
    decode_tokens: Vec<usize>,
}

struct Built {
    engine: Engine,
    request: Request,
}

/// Serves `request` through the session API; returns the decoded tokens.
fn serve(engine: &Engine, request: &Request) -> Vec<usize> {
    let mut session = engine.session();
    session.prefill_embeddings(&request.prompt);
    let inputs = engine.model().embed_tokens(&request.decode_tokens);
    session
        .decode_teacher_forced(&inputs, request.decode_tokens.len())
        .tokens
}

/// An engine workload.
pub struct EngineBench {
    shape: EngineShape,
    seed: u64,
    budget: usize,
    built: Option<Built>,
}

impl EngineBench {
    /// The workload `shape` on the prompt `seed` generates, with KV
    /// budget `budget` ([`paper_budget`] except in the self-check).
    pub fn new(shape: EngineShape, seed: u64, budget: usize) -> Self {
        Self {
            shape,
            seed,
            budget,
            built: None,
        }
    }

    fn build_engine(&self) -> Engine {
        sim_engine(
            &ModelConfig::deepseek_distill_llama_8b(),
            self.budget,
            WEIGHT_SEED,
        )
    }

    fn build_request(&self, model: &Model, seed: u64) -> Request {
        let mut rng = SimRng::seed(seed);
        let prompt = if self.shape.planted {
            ContextBuilder::new(model)
                .build(model, self.shape.prompt_len, 4, 4, &mut rng)
                .emb
        } else {
            LongWriterTask::build(model, self.shape.prompt_len, self.shape.gen_len, &mut rng).prompt
        };
        let vocab = model.geometry().vocab;
        let decode_tokens = (0..self.shape.gen_len).map(|_| rng.below(vocab)).collect();
        Request {
            prompt,
            decode_tokens,
        }
    }

    fn built(&self) -> &Built {
        self.built.as_ref().expect("setup() runs before ops")
    }

    /// Teacher-forced agreement with dense decode over the op's shape, on
    /// the pinned quality prompt: dense decode runs free from the prefill,
    /// then a session decodes the same inputs sparsely. Returns the share
    /// of steps whose argmax token agrees, and the prompt, inputs and
    /// dense tokens for the baselines to reuse.
    fn token_match_rate(&self) -> Quality {
        let b = self.built();
        let model = b.engine.model();
        let steps = self.shape.gen_len;
        let prompt = self.build_request(model, QUALITY_SEED).prompt;
        let (mut kv, out) = model.prefill_embeddings(&prompt, b.engine.config().prefill_mode);
        let first_tok = Model::argmax_token(&out.logits);
        let first = model.embed_tokens(&[first_tok]);
        let dense = generate_free_running(
            model,
            &mut kv,
            first.row(0),
            steps,
            &mut DecodeStrategy::Dense,
            false,
        );
        let mut fed = vec![first_tok];
        fed.extend_from_slice(&dense.tokens[..steps - 1]);
        let inputs = model.embed_tokens(&fed);

        let mut session = b.engine.session();
        session.prefill_embeddings(&prompt);
        let sparse = session.decode_teacher_forced(&inputs, steps);
        Quality {
            rate: agreement(&sparse.tokens, &dense.tokens),
            prompt,
            inputs,
            dense_tokens: dense.tokens,
        }
    }

    fn floor_problem(&self, rate: f64) -> Option<String> {
        (rate < self.shape.match_floor).then(|| {
            format!(
                "token_match_rate {rate:.4} under its floor {:.4}",
                self.shape.match_floor
            )
        })
    }
}

impl EngineBench {
    /// The path the issue names, `prefill → generate`: the mirrored loop,
    /// fed its own argmax tokens, must reproduce `Session::generate` on
    /// the op's prompt. Short, because free-running decode of this model
    /// falls into loops (see [`Request`]); the ops are teacher-forced.
    fn generate_problem(&self) -> Option<String> {
        let b = self.built();
        let mut session = b.engine.session();
        session.prefill_embeddings(&b.request.prompt);
        let want = session.generate(GENERATE_STEPS).tokens;
        let got = mirrored_op(
            &b.engine,
            &b.request.prompt,
            Feed::Greedy(GENERATE_STEPS),
            &mut Tracer::with_capacity(9 * GENERATE_STEPS + 16),
            false,
        )
        .tokens;
        (got != want).then(|| "the mirrored loop diverged from Session::generate".to_string())
    }
}

/// The quality measurement and what it decoded.
struct Quality {
    rate: f64,
    prompt: Matrix,
    /// Row `i` is the embedding dense decode was fed at step `i`.
    inputs: Matrix,
    dense_tokens: Vec<usize>,
}

/// Share of positions at which `got` equals `want`.
fn agreement(got: &[usize], want: &[usize]) -> f64 {
    let same = got.iter().zip(want).filter(|(a, b)| a == b).count();
    same as f64 / want.len().max(1) as f64
}

fn token_fingerprint(tokens: &[usize]) -> u64 {
    fingerprint(tokens.iter().map(|&t| t as u64))
}

impl Bench for EngineBench {
    fn setup(&mut self) {
        self.built = None;
        let engine = self.build_engine();
        let request = self.build_request(engine.model(), self.seed);
        self.built = Some(Built { engine, request });
    }

    fn op(&mut self) -> Op {
        let b = self.built();
        let start = Instant::now();
        let tokens = serve(&b.engine, &b.request);
        let wall = start.elapsed();
        Op {
            wall,
            fingerprint: token_fingerprint(&tokens),
        }
    }

    fn check(&mut self, diagnostics: &mut Metrics) -> Vec<String> {
        let rate = self.token_match_rate().rate;
        diagnostics.put("retrieval.token_match_rate", rate);
        self.floor_problem(rate).into_iter().collect()
    }

    fn traced_pass(&mut self, m: &mut Metrics, t: &mut Tracer) -> TraceOutcome {
        let mut outcome = TraceOutcome::default();
        let steps = self.shape.gen_len;

        // Set-up, piece by piece.
        let mut build_ms = Vec::new();
        let mut prompt_ms = Vec::new();
        for _ in 0..5 {
            self.built = None;
            let start = Instant::now();
            let engine = t.scope("core.engine_build", |_| self.build_engine());
            build_ms.push(ms(start.elapsed()));
            let start = Instant::now();
            let request = t.scope("workloads.prompt_gen", |_| {
                self.build_request(engine.model(), self.seed)
            });
            prompt_ms.push(ms(start.elapsed()));
            self.built = Some(Built { engine, request });
        }
        m.put("core.engine_build_ms", median(&build_ms));
        m.put("workloads.prompt_gen_ms", median(&prompt_ms));
        let open_us = time_us(50, || {
            std::hint::black_box(self.built().engine.session());
        });
        m.put("core.session_open_us", open_us);

        // Session ops and mirrored ops, interleaved so host drift lands on
        // both. The first session op's tokens are the reference.
        let reference = serve(&self.built().engine, &self.built().request);
        let reference_fingerprint = token_fingerprint(&reference);
        let mut session_ms = Vec::new();
        let mut mirror_ms = Vec::new();
        let mut first_mirror = None;
        let mut ratio = 0.0;
        for i in 0..MAX_TRACED_OPS {
            if i >= TRACED_OPS && MIRROR_BAND.contains(&ratio) {
                break;
            }
            let op = self.op();
            session_ms.push(ms(op.wall));
            outcome.attempted += 1;
            if op.fingerprint != reference_fingerprint {
                outcome.failed += 1;
            }
            t.set_request(i as u32 + 1);
            let b = self.built();
            let start = Instant::now();
            let out = mirrored_op(
                &b.engine,
                &b.request.prompt,
                Feed::Forced(&b.request.decode_tokens),
                t,
                i == 0,
            );
            mirror_ms.push(ms(start.elapsed()));
            outcome.attempted += 1;
            if out.tokens != reference {
                outcome.failed += 1;
                outcome.problems.push(format!(
                    "mirrored op {i} diverged from the session's tokens"
                ));
            }
            first_mirror.get_or_insert(out);
            ratio = min(&mirror_ms) / min(&session_ms);
        }
        t.set_request(0);
        let mirror = first_mirror.expect("at least one traced op");
        m.put("core.mirror_over_session", ratio);
        m.put("host.tracing_overhead", ratio);
        if !MIRROR_BAND.contains(&ratio) {
            outcome.problems.push(format!(
                "mirror/session wall ratio {ratio:.3} is outside {:.2}-{:.2} after {} pairs: \
                 the spans do not stand for the session's time",
                MIRROR_BAND.start(),
                MIRROR_BAND.end(),
                mirror_ms.len()
            ));
        }
        outcome.problems.extend(self.generate_problem());
        m.put_host_diagnostics(&session_ms);

        let two = (0..2)
            .map(|_| ms(spec_parallel::with_threads(2, || self.op()).wall))
            .collect::<Vec<_>>();
        m.put("parallel.t2_over_t1", min(&two) / min(&session_ms));

        attribute(m, t, steps, &mirror);
        outcome.problems.extend(unattributed_problem(m));

        // Quality: exact for a fixed seed.
        let quality = self.token_match_rate();
        m.put("retrieval.token_match_rate", quality.rate);
        outcome.problems.extend(self.floor_problem(quality.rate));
        if self.shape.baselines {
            self.baselines(m, &quality);
        }
        self.tensor_kernels(m);
        outcome
    }
}

/// What a mirrored op saw besides its spans.
#[derive(Debug, Default)]
struct MirrorOut {
    tokens: Vec<usize>,
    /// Cache positions the retrieval head scored, summed over steps.
    scored_positions: u64,
    /// Size of each step's union selection.
    union_sizes: Vec<f64>,
    overlaps: Vec<f64>,
    fetched: u64,
    reused: u64,
    /// Allocations of the decode loop, when counted.
    allocs: Option<AllocCount>,
}

/// What the mirrored loop feeds each decode step.
#[derive(Debug, Clone, Copy)]
enum Feed<'a> {
    /// The embeddings of these token ids, one a step: the op
    /// (`Session::decode_teacher_forced`).
    Forced(&'a [usize]),
    /// The previous step's argmax token, starting from the prefill's, for
    /// this many steps (`Session::generate`).
    Greedy(usize),
}

/// One request through the same public calls, in the same order, as
/// `Session::prefill_embeddings` + `decode_teacher_forced` / `generate`
/// (`spec_runtime::exec`'s SpeContext step), with a span round each. Must
/// reproduce the session's tokens exactly.
fn mirrored_op(
    engine: &Engine,
    prompt: &Matrix,
    feed: Feed,
    t: &mut Tracer,
    count_allocs: bool,
) -> MirrorOut {
    let model = engine.model();
    let geom = *model.geometry();
    let mut out = MirrorOut::default();
    t.scope("op", |t| {
        let mut retr = t.scope("core.session_open", |_| engine.retriever());
        let (mut kv, prefilled) = t.scope("runtime.prefill", |t| {
            t.scope("retrieval.prompt_observe", |_| {
                for r in 0..prompt.rows() {
                    retr.observe(prompt.row(r));
                }
            });
            t.scope("model.prefill", |_| {
                model.prefill_embeddings(prompt, engine.config().prefill_mode)
            })
        });
        let (steps, inputs) = match feed {
            Feed::Forced(tokens) => (
                tokens.len(),
                t.scope("model.embed", |_| model.embed_tokens(tokens)),
            ),
            Feed::Greedy(steps) => (
                steps,
                model.embed_tokens(&[Model::argmax_token(&prefilled.logits)]),
            ),
        };
        let cfg = *retr.config();
        let mut buffer = BudgetBuffer::new(
            geom.layers,
            geom.kv_heads,
            cfg.budget.max(1) + cfg.recent + cfg.sinks + 1,
        );
        let mut scratch = SelectScratch::new();
        let mut last_union: Option<Vec<usize>> = None;
        let mut outputs: Vec<StepOutput> = Vec::new();
        out.tokens.reserve(steps);
        out.union_sizes.reserve(steps);
        out.overlaps.reserve(steps);

        let mut decode = |t: &mut Tracer| {
            let mut x = match feed {
                Feed::Forced(_) => Vec::new(),
                Feed::Greedy(_) => inputs.row(0).to_vec(),
            };
            for i in 0..steps {
                t.scope("runtime.step", |t| {
                    if let Feed::Forced(_) = feed {
                        x = inputs.row(i).to_vec();
                    }
                    let pos = kv.seq_len();
                    t.scope("retrieval.observe", |_| retr.observe(&x));
                    out.scored_positions += retr.observed() as u64;
                    let sel = t.scope("retrieval.select", |_| {
                        retr.select_scratch(&x, &geom, &mut scratch)
                    });
                    let per_layer = vec![sel.per_head.clone(); geom.layers];
                    let moved = t.scope("kvcache.elastic_step", |_| buffer.step(&per_layer));
                    out.fetched += moved.fetched_entries;
                    out.reused += moved.reused_entries;
                    let union = t.scope("retrieval.union_positions", |_| sel.union_positions());
                    if let Some(prev) = &last_union {
                        out.overlaps.push(f64::from(overlap_rate(prev, &union)));
                    }
                    out.union_sizes.push(union.len() as f64);
                    last_union = Some(union);
                    let plan = t.scope("retrieval.to_plan", |_| sel.to_plan(geom.layers));
                    let step = t.scope("model.forward", |_| {
                        model.decode_step_sparse(&x, pos, &mut kv, &plan)
                    });
                    let token = Model::argmax_token(&step.logits);
                    out.tokens.push(token);
                    if let Feed::Greedy(_) = feed {
                        x = model.embed_tokens(&[token]).row(0).to_vec();
                    }
                    outputs.push(step);
                });
            }
        };
        if count_allocs {
            let ((), n) = counted(|| decode(t));
            out.allocs = Some(n);
        } else {
            decode(t);
        }
    });
    out
}

/// Turns the spans of the mirrored ops into the per-layer metrics.
fn attribute(m: &mut Metrics, t: &Tracer, steps: usize, mirror: &MirrorOut) {
    let spans = t.spans();
    let own = self_ns(spans);

    // Glue = what a step spends outside the four named layer calls: its
    // self time plus the selection's union/plan expansion.
    let mut glue = own.clone();
    for s in spans {
        if matches!(s.name, "retrieval.union_positions" | "retrieval.to_plan") {
            glue[s.parent as usize - 1] += s.dur_ns();
        }
    }
    let mut step_us = Vec::new();
    let mut first_quarter = Vec::new();
    let mut last_quarter = Vec::new();
    let mut glue_us = Vec::new();
    let mut index_in_op = 0;
    let mut op_ns = 0u64;
    let mut op_own_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "op" => {
                index_in_op = 0;
                op_ns += s.dur_ns();
                op_own_ns += own[i];
            }
            "runtime.step" => {
                let us = s.dur_ns() as f64 / 1e3;
                step_us.push(us);
                glue_us.push(glue[i] as f64 / 1e3);
                if index_in_op < steps / 4 {
                    first_quarter.push(us);
                } else if index_in_op >= steps - steps / 4 {
                    last_quarter.push(us);
                }
                index_in_op += 1;
            }
            _ => {}
        }
    }
    m.put("core.unattributed_share", op_own_ns as f64 / op_ns as f64);
    m.put(
        "runtime.prefill_ms",
        median(&t.durations_us("runtime.prefill")) / 1e3,
    );
    m.put("runtime.step_us_p50", quantile(&step_us, 0.50));
    m.put("runtime.step_us_p95", quantile(&step_us, 0.95));
    m.put("runtime.step_us_p99", quantile(&step_us, 0.99));
    m.put(
        "runtime.step_us_first_quarter_p50",
        quantile(&first_quarter, 0.50),
    );
    m.put(
        "runtime.step_us_last_quarter_p50",
        quantile(&last_quarter, 0.50),
    );
    m.put("runtime.glue_us_p50", quantile(&glue_us, 0.50));
    let allocs = mirror.allocs.expect("the first mirrored op counts");
    m.put(
        "runtime.allocs_per_step",
        allocs.calls as f64 / steps as f64,
    );
    m.put(
        "runtime.alloc_kb_per_step",
        allocs.bytes as f64 / 1024.0 / steps as f64,
    );

    let select = t.durations_us("retrieval.select");
    m.put("retrieval.select_us_p50", quantile(&select, 0.50));
    m.put("retrieval.select_us_p95", quantile(&select, 0.95));
    // Spans cover every traced op, the position count one op.
    let ops = t.durations_us("op").len() as f64;
    m.put(
        "retrieval.select_ns_per_pos",
        select.iter().sum::<f64>() * 1e3 / (mirror.scored_positions as f64 * ops),
    );
    m.put(
        "retrieval.observe_us_p50",
        quantile(&t.durations_us("retrieval.observe"), 0.50),
    );
    m.put(
        "retrieval.prompt_observe_ms",
        median(&t.durations_us("retrieval.prompt_observe")) / 1e3,
    );
    m.put(
        "retrieval.selected_positions_mean",
        mean(&mirror.union_sizes),
    );
    m.put("retrieval.overlap_rate_mean", mean(&mirror.overlaps));

    let elastic = t.durations_us("kvcache.elastic_step");
    m.put("kvcache.elastic_step_us_p50", quantile(&elastic, 0.50));
    m.put("kvcache.elastic_step_us_p95", quantile(&elastic, 0.95));
    m.put("kvcache.fetched_entries", mirror.fetched as f64);
    m.put("kvcache.reused_entries", mirror.reused as f64);
    m.put(
        "kvcache.reuse_fraction",
        mirror.reused as f64 / (mirror.fetched + mirror.reused).max(1) as f64,
    );
    // Eq. 6 bytes of the real model (FP16 K and V of one KV head), never
    // measured: the CPU run moves no such bytes.
    let cfg = ModelConfig::deepseek_distill_llama_8b();
    let entry_bytes = cfg.kv_bytes_per_token_layer() / cfg.kv_heads as u64;
    m.put(
        "kvcache.fetched_mb_computed",
        (mirror.fetched * entry_bytes) as f64 / 1e6,
    );

    m.put(
        "model.prefill_ms",
        median(&t.durations_us("model.prefill")) / 1e3,
    );
    let forward = t.durations_us("model.forward");
    m.put("model.forward_us_p50", quantile(&forward, 0.50));
    m.put("model.forward_us_p95", quantile(&forward, 0.95));
    m.put(
        "model.embed_us_p50",
        quantile(&t.durations_us("model.embed"), 0.50),
    );
}

impl EngineBench {
    /// ROADMAP 1(a)'s per-selector row: each baseline decodes the same
    /// teacher-forced inputs on a clone of the shared prefilled KV.
    fn baselines(&self, m: &mut Metrics, quality: &Quality) {
        let b = self.built();
        let model = b.engine.model();
        let (kv0, _) = model.prefill_embeddings(&quality.prompt, b.engine.config().prefill_mode);
        let cfg = b.engine.config().selector_config();
        let inputs = &quality.inputs;
        let steps = BASELINE_STEPS.min(quality.dense_tokens.len());
        let want = &quality.dense_tokens[..steps];

        let dense_plan = SparsePlan::dense(model.geometry().layers);
        let (us, got) = decode_steps(&kv0, inputs, steps, |x, pos, kv, _| {
            model.decode_step_sparse(x, pos, kv, &dense_plan)
        });
        m.put("retrieval.dense.preprocess_ms", 0.0);
        m.put("retrieval.dense.step_us_p50", us);
        m.put("retrieval.dense.token_match_rate", agreement(&got, want));

        let mut layerwise = |name: &str, build: &dyn Fn() -> Box<dyn LayerSelector>| {
            let start = Instant::now();
            let mut selector = build();
            let preprocess_ms = ms(start.elapsed());
            let (us, got) = decode_steps(&kv0, inputs, steps, |x, pos, kv, scratch| {
                model.decode_step_selected_scratch(x, pos, kv, selector.as_mut(), scratch)
            });
            m.put(&format!("retrieval.{name}.preprocess_ms"), preprocess_ms);
            m.put(&format!("retrieval.{name}.step_us_p50"), us);
            m.put(
                &format!("retrieval.{name}.token_match_rate"),
                agreement(&got, want),
            );
        };
        layerwise("streaming", &|| {
            Box::new(StreamingLlm::new(cfg.sinks, cfg.budget))
        });
        layerwise("quest", &|| Box::new(QuestSelector::preprocess(&kv0, cfg)));
        layerwise("clusterkv", &|| {
            Box::new(ClusterKvSelector::preprocess(&kv0, cfg, WEIGHT_SEED))
        });
        layerwise("shadowkv", &|| {
            Box::new(ShadowKvSelector::preprocess(&kv0, cfg))
        });
        layerwise("infinigen", &|| {
            Box::new(InfiniGenSelector::preprocess(&kv0, cfg))
        });
    }

    /// The tensor kernels under the workload, at its shapes.
    fn tensor_kernels(&self, m: &mut Metrics) {
        let geom = *self.built().engine.model().geometry();
        let mut rng = SimRng::seed(self.seed);
        let a = rng.normal_matrix(self.shape.prompt_len, geom.hidden, 1.0);
        let w = rng.normal_matrix(geom.hidden, geom.ffn_dim, 1.0);
        m.put(
            "tensor.matmul_prefill_ms",
            time_us(9, || {
                std::hint::black_box(a.matmul(&w));
            }) / 1e3,
        );
        let scores = rng.normal_vec(self.shape.prompt_len + self.shape.gen_len, 1.0);
        m.put(
            "tensor.top_k_us",
            time_us(201, || {
                std::hint::black_box(topk::top_k_positions(&scores, self.budget));
            }),
        );
        let x = rng.normal_vec(geom.hidden, 1.0);
        let batch = 200;
        m.put(
            "tensor.vecmat_us",
            time_us(51, || {
                for _ in 0..batch {
                    std::hint::black_box(w.vecmat(std::hint::black_box(&x)));
                }
            }) / batch as f64,
        );
    }
}

/// Decodes `steps` teacher-forced steps on a clone of `kv0`; returns the
/// median step time (µs) and the argmax tokens.
fn decode_steps(
    kv0: &ModelKv,
    inputs: &Matrix,
    steps: usize,
    mut step: impl FnMut(&[f32], usize, &mut ModelKv, &mut SelectScratch) -> StepOutput,
) -> (f64, Vec<usize>) {
    let mut kv = kv0.clone();
    let mut scratch = SelectScratch::new();
    let mut us = Vec::with_capacity(steps);
    let mut tokens = Vec::with_capacity(steps);
    for i in 0..steps {
        let pos = kv.seq_len();
        let start = Instant::now();
        let out = step(inputs.row(i), pos, &mut kv, &mut scratch);
        us.push(start.elapsed().as_secs_f64() * 1e6);
        tokens.push(Model::argmax_token(&out.logits));
    }
    (median(&us), tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_loop_reproduces_the_session_on_the_tiny_geometry() {
        let engine = spec_bench::tiny_engine(16, 7);
        let tokens: Vec<usize> = (0..40).map(|i| (i * 7) % 60).collect();
        let prompt = engine.model().embed_tokens(&tokens);
        let steps = 24;
        let request = Request {
            prompt,
            decode_tokens: (0..steps).map(|i| (i * 11 + 3) % 60).collect(),
        };
        let b = Built { engine, request };

        let mut session = b.engine.session();
        session.prefill_embeddings(&b.request.prompt);
        let inputs = b.engine.model().embed_tokens(&b.request.decode_tokens);
        let want = session.decode_teacher_forced(&inputs, steps);
        assert_eq!(serve(&b.engine, &b.request), want.tokens);

        let mut t = Tracer::with_capacity(1024);
        let forced = Feed::Forced(&b.request.decode_tokens);
        let got = mirrored_op(&b.engine, &b.request.prompt, forced, &mut t, true);
        assert_eq!(got.tokens, want.tokens);
        let moved = want.transfer.expect("SpeContext accounts transfers");
        assert_eq!(
            (got.fetched, got.reused),
            (moved.fetched_entries, moved.reused_entries)
        );
        let overlaps: Vec<f64> = want.overlaps.iter().map(|&o| f64::from(o)).collect();
        assert_eq!(got.overlaps, overlaps);
        assert!(got.allocs.expect("counted").calls > 0);

        // One span a step for each layer call, all inside the op.
        assert_eq!(t.durations_us("runtime.step").len(), steps);
        assert_eq!(t.durations_us("model.forward").len(), steps);
        assert_eq!(t.durations_us("retrieval.select").len(), steps);
        assert_eq!(t.durations_us("op").len(), 1);
        let own = self_ns(t.spans());
        assert_eq!(own.iter().sum::<u64>(), t.spans()[0].dur_ns());

        // Fed its own tokens, the same loop is `Session::generate`.
        let mut session = b.engine.session();
        session.prefill_embeddings(&b.request.prompt);
        let want = session.generate(steps);
        let greedy = Feed::Greedy(steps);
        let got = mirrored_op(&b.engine, &b.request.prompt, greedy, &mut t, false);
        assert_eq!(got.tokens, want.tokens);
        assert_eq!(got.overlaps.len(), want.overlaps.len());
    }

    #[test]
    fn agreement_counts_matching_positions() {
        assert_eq!(agreement(&[1, 2, 3, 4], &[1, 2, 0, 4]), 0.75);
        assert_eq!(agreement(&[], &[]), 0.0);
    }
}
