//! Golden pins for the engine path: the decode step, the generation loop,
//! the session, the accuracy harness and speculative decoding.
//!
//! The in-crate suites compare one entry point with another (dense ≡
//! full selector, traced ≡ untraced). With one step body and one loop
//! behind every entry point those compare a function with itself, so the
//! runs below are pinned against constants instead: FNV-1a over token
//! ids, logit bits, transfer counters, overlap bits and recorded trace
//! positions, recorded on the parent of the fold (seven `decode_step*`
//! entries, two `generate_*` loops). Every session here is single-call;
//! what a second call continues from is pinned in `engine.rs`.
//!
//! CI also runs this file at `SPEC_THREADS`={1,4,7} and `SPEC_SIMD=scalar`:
//! the constants hold at any thread count and SIMD tier.

use spec_model::{AttentionKind, LayerSelector, Model, ModelKv, PrefillMode, SimGeometry};
use spec_retrieval::clusterkv::ClusterKvSelector;
use spec_retrieval::infinigen::InfiniGenSelector;
use spec_retrieval::quest::QuestSelector;
use spec_retrieval::shadowkv::ShadowKvSelector;
use spec_retrieval::spec_head::SpecContextRetriever;
use spec_retrieval::window::StreamingLlm;
use spec_runtime::exec::{
    generate_free_running, generate_teacher_forced, DecodeStrategy, GenerationResult,
};
use spec_runtime::spec_decode::SpeculativeDecoder;
use spec_workloads::longbench::TaskKind;
use specontext_core::engine::{Engine, EngineConfig};
use specontext_core::evaluate::{
    longbench_matrix, longwriter_scores, EvalSystem, LongBenchOptions, LongWriterOptions,
};

const KINDS: [AttentionKind; 4] = [
    AttentionKind::Mha,
    AttentionKind::Gqa,
    AttentionKind::Mqa,
    AttentionKind::Mla,
];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        v.iter().for_each(|x| self.word(u64::from(x.to_bits())));
    }

    fn indices(&mut self, v: &[usize]) {
        self.word(v.len() as u64);
        v.iter().for_each(|&x| self.word(x as u64));
    }
}

/// Tokens, logit bits, transfer counters and overlap bits of a run.
fn outputs_hash(res: &GenerationResult) -> u64 {
    let mut h = Fnv::new();
    h.indices(&res.tokens);
    for out in &res.outputs {
        h.floats(&out.logits);
    }
    let moved = res.transfer.unwrap_or_default();
    h.word(u64::from(res.transfer.is_some()));
    h.word(moved.fetched_entries);
    h.word(moved.reused_entries);
    h.floats(&res.overlaps);
    h.0
}

/// Attention bits and attended positions of every recorded step.
fn traces_hash(res: &GenerationResult) -> u64 {
    let mut h = Fnv::new();
    h.word(res.traces.len() as u64);
    for trace in &res.traces {
        for (attn, positions) in trace.attn.iter().zip(&trace.positions) {
            for (weights, attended) in attn.iter().zip(positions) {
                h.floats(weights);
                h.indices(attended);
            }
        }
    }
    h.0
}

fn engine(kind: AttentionKind) -> Engine {
    Engine::build(EngineConfig {
        geometry: SimGeometry::tiny(kind),
        budget: 16,
        ..EngineConfig::default()
    })
}

fn prompt_tokens(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7) % 60).collect()
}

fn forced_tokens(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 11 + 3) % 60).collect()
}

/// (a) `Session::prefill_tokens → generate` and `→ decode_teacher_forced`
/// for all four attention kinds, and the traced session.
#[test]
fn golden_a_session() {
    let mut got = Vec::new();
    for kind in KINDS {
        let e = engine(kind);
        let session = || {
            let mut s = e.session();
            s.prefill_tokens(&prompt_tokens(40));
            s
        };
        let free = session().generate(24);
        let traced = session().generate_traced(24);
        assert_eq!(outputs_hash(&traced), outputs_hash(&free), "{kind}");
        let inputs = e.model().embed_tokens(&forced_tokens(24));
        let forced = session().decode_teacher_forced(&inputs, 24);
        got.push((
            outputs_hash(&free),
            traces_hash(&traced),
            outputs_hash(&forced),
        ));
    }
    assert_eq!(
        got,
        [
            (
                8062077985373897247,
                4367322764548538703,
                9209582240593704497
            ),
            (
                6435756491284058996,
                3516979923038768995,
                13075223588053332096
            ),
            (
                13699006987821019999,
                18320674822169437230,
                17510542180919695849
            ),
            (
                3523208394639522101,
                1707155057746684692,
                13457362377662784165
            ),
        ]
    );
}

/// (a, long) A prompt past the retrieval head's parallel threshold
/// (`kv_heads × positions ≥ 2^14`), so the thread-count lanes pin the
/// per-head fan-out and not only the serial scratch path.
#[test]
fn golden_a_session_past_the_parallel_threshold() {
    let e = Engine::build(EngineConfig {
        geometry: SimGeometry::tiny(AttentionKind::Gqa),
        budget: 64,
        prefill_mode: PrefillMode::Windowed {
            window: 32,
            sinks: 4,
        },
        ..EngineConfig::default()
    });
    let mut s = e.session();
    s.prefill_tokens(&prompt_tokens(8200));
    let inputs = e.model().embed_tokens(&forced_tokens(8));
    let forced = s.decode_teacher_forced(&inputs, 8);
    assert_eq!(outputs_hash(&forced), 3191897300605940347);
}

/// A 48-token prompt prefilled exactly: the cache and the first decode
/// token (the prefill's argmax).
fn prefilled(model: &Model) -> (ModelKv, usize) {
    let (kv, out) = model.prefill_tokens(&prompt_tokens(48), PrefillMode::Exact);
    (kv, Model::argmax_token(&out.logits))
}

const STRATEGIES: [&str; 7] = [
    "dense",
    "streaming",
    "quest",
    "clusterkv",
    "shadowkv",
    "infinigen",
    "specontext",
];

/// The named `DecodeStrategy`, built over the prefilled cache `kv`.
fn strategy(name: &str, e: &Engine, kv: &ModelKv) -> DecodeStrategy {
    let cfg = e.config().selector_config();
    let selector: Box<dyn LayerSelector> = match name {
        "dense" => return DecodeStrategy::Dense,
        "specontext" => return DecodeStrategy::SpeContext(Box::new(observed_retriever(e))),
        "streaming" => Box::new(StreamingLlm::new(cfg.sinks, cfg.budget)),
        "quest" => Box::new(QuestSelector::preprocess(kv, cfg)),
        "clusterkv" => Box::new(ClusterKvSelector::preprocess(kv, cfg, 5)),
        "shadowkv" => Box::new(ShadowKvSelector::preprocess(kv, cfg)),
        "infinigen" => Box::new(InfiniGenSelector::preprocess(kv, cfg)),
        other => panic!("no strategy named {other}"),
    };
    DecodeStrategy::LayerWise(selector)
}

/// The engine's retriever after observing the 48-token prompt.
fn observed_retriever(e: &Engine) -> SpecContextRetriever {
    let mut retr = e.retriever();
    let prompt = e.model().embed_tokens(&prompt_tokens(48));
    for r in 0..prompt.rows() {
        retr.observe(prompt.row(r));
    }
    retr
}

/// (b) `generate_free_running` and `generate_teacher_forced` under every
/// strategy, traces on and off: recording never perturbs the outputs,
/// and what it records is pinned.
#[test]
fn golden_b_strategies_traced_and_untraced() {
    let e = engine(AttentionKind::Gqa);
    let (kv0, first) = prefilled(e.model());
    let first = e.model().embed_tokens(&[first]);
    let inputs = e.model().embed_tokens(&forced_tokens(12));
    let bits = |res: &GenerationResult| -> Vec<u32> {
        let logits = res.outputs.iter().flat_map(|o| &o.logits);
        logits.map(|x| x.to_bits()).collect()
    };

    let mut got = Vec::new();
    for name in STRATEGIES {
        let run = |forced: bool, traced: bool| {
            let mut strategy = strategy(name, &e, &kv0);
            let mut kv = kv0.clone();
            let m = e.model();
            let res = if forced {
                generate_teacher_forced(m, &mut kv, &inputs, 12, &mut strategy, traced)
            } else {
                generate_free_running(m, &mut kv, first.row(0), 12, &mut strategy, traced)
            };
            assert_eq!(kv.seq_len(), 48 + 12, "{name}");
            assert_eq!(res.traces.len(), if traced { 12 } else { 0 }, "{name}");
            res
        };
        let (free, free_traced) = (run(false, false), run(false, true));
        let (forced, forced_traced) = (run(true, false), run(true, true));
        for (plain, traced) in [(&free, &free_traced), (&forced, &forced_traced)] {
            assert_eq!(plain.tokens, traced.tokens, "{name}");
            assert_eq!(bits(plain), bits(traced), "{name}");
            assert_eq!(outputs_hash(plain), outputs_hash(traced), "{name}");
        }
        got.push((
            name,
            outputs_hash(&free),
            traces_hash(&free_traced),
            outputs_hash(&forced),
            traces_hash(&forced_traced),
        ));
    }
    assert_eq!(
        got,
        [
            (
                "dense",
                13686936851361247211,
                7076778759869601659,
                1116861174830382805,
                13859192327616738412
            ),
            (
                "streaming",
                13697665526552727605,
                8263894200385199581,
                933632697843191778,
                11154047675808805589
            ),
            (
                "quest",
                9887901103081889195,
                321449727918443613,
                4784694769203668825,
                2747125923048534689
            ),
            (
                "clusterkv",
                2337468872304671678,
                18092757943791699203,
                15962007197063172238,
                17058114436419124443
            ),
            (
                "shadowkv",
                3670040791226243869,
                13217733820619439517,
                12660792049402386098,
                11628412361224852499
            ),
            (
                "infinigen",
                7715375575387069235,
                2226047229596528304,
                17461502834042699468,
                8969781974331551266
            ),
            (
                "specontext",
                2302712921656357011,
                5854375893281842695,
                3694895161123915094,
                7039106057869004981
            ),
        ]
    );
}

const SYSTEMS: [EvalSystem; 6] = [
    EvalSystem::Full,
    EvalSystem::StreamingLlm,
    EvalSystem::Quest,
    EvalSystem::ClusterKv,
    EvalSystem::ShadowKv,
    EvalSystem::SpeContext,
];

/// (c) The accuracy harness: LongBench matrices over every system at two
/// budgets, and one LongWriter score per system.
#[test]
fn golden_c_accuracy_harness() {
    let e = Engine::build(EngineConfig {
        geometry: SimGeometry::tiny(AttentionKind::Gqa),
        budget: 32,
        ..EngineConfig::default()
    });
    // Scores are thresholded, so one matrix is a coarse pin: take all four
    // task families, at budgets just past sinks + recent (12) where the
    // sparse systems' scores still move with every selected position.
    let mut h = Fnv::new();
    let mut matrices = Vec::new();
    for kind in TaskKind::all() {
        let opt = LongBenchOptions {
            instances: 3,
            seed: 11,
            strength: 5.0,
            ..LongBenchOptions::new(kind, 96, 0)
        };
        let matrix = longbench_matrix(&e, &SYSTEMS, &[14, 18], &opt);
        matrix.iter().for_each(|row| h.floats(row));
        matrices.push(matrix);
    }
    assert_eq!(h.0, 17668167222547535093, "longbench matrices {matrices:?}");

    let mut h = Fnv::new();
    for system in SYSTEMS {
        let s = longwriter_scores(
            &e,
            system,
            &LongWriterOptions {
                prompt_len: 24,
                gen_len: 16,
                budget: 12,
                seed: 5,
            },
        );
        h.floats(&[
            s.relevance,
            s.accuracy,
            s.coherence,
            s.clarity,
            s.breadth_depth,
            s.reading_experience,
        ]);
    }
    assert_eq!(h.0, 4247969670568263912, "longwriter scores");
}

/// (d) Speculative decoding, dense and sparse verification.
#[test]
fn golden_d_speculative_decoding() {
    let e = engine(AttentionKind::Gqa);
    let (kv0, first) = prefilled(e.model());
    let dec = SpeculativeDecoder::new(e.model(), e.dlm(), 3);

    let mut got = Vec::new();
    for sparse in [false, true] {
        let mut retr = observed_retriever(&e);
        let mut kv = kv0.clone();
        let res = dec.generate(&mut kv, sparse.then_some(&mut retr), first, 20);
        let mut h = Fnv::new();
        h.indices(&res.tokens);
        h.indices(&[res.rounds, res.accepted, res.drafted, kv.seq_len()]);
        h.word(retr.observed() as u64);
        got.push(h.0);
    }
    assert_eq!(got, [11059570157850294911, 14694844424001125451]);
}
