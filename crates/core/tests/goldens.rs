//! Golden pins for the engine path: the decode step, the generation loop,
//! the session, the accuracy harness and speculative decoding.
//!
//! The in-crate suites compare one entry point with another (dense ≡
//! full selector, traced ≡ untraced). With one step body and one loop
//! behind every entry point those compare a function with itself, so the
//! runs below are pinned against constants instead. Every pin is a
//! [`Pin`]: a **discrete** FNV-1a hash (token ids, attended positions of
//! every recorded step, transfer counters, overlap bits — ratios of
//! integer counts) beside a **float** one (logit bits, attention-weight
//! bits). A change to selection or bookkeeping may move neither; a change
//! to the arithmetic of a kernel (the polynomial `exp` of PR 18) re-records
//! the float half only, and a discrete half that moves with it is a
//! changed decision that has to be explained. One such change is on
//! record: PR 22 made the retrieval head's keys int8 (one `f32` scale a
//! position), which changes what the head scores, and re-recorded — once
//! — the pins of the SpeContext runs whose selection moved with it: in
//! (a) the GQA teacher-forced session and the MLA free-running (float
//! half only) and traced sessions, in (b) the teacher-forced pair of the
//! SpeContext row. Every pin of a run that never scores the head, and
//! every other SpeContext pin ((a)'s other nine, the 8 K session, (b)'s
//! free-running pair, (c), (d)), held unmodified. Every session here is
//! single-call; what a second call continues from is pinned in `engine.rs`.
//!
//! CI also runs this file at `SPEC_SIMD=scalar`: the constants hold at
//! any SIMD tier. Nothing here reaches a worker pool: ClusterKV's k-means
//! over these prompts (at most 96 points of dim 8) stays below its
//! 2^17-multiply-add fan-out, which only `spec_tensor`'s `determinism.rs`
//! sweeps exercise, via `with_threads`.

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

/// One pinned value: the hash of what a run decided beside the hash of
/// the floats it computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    discrete: u64,
    float: u64,
}

const fn pin(discrete: u64, float: u64) -> Pin {
    Pin { discrete, float }
}

/// Tokens, transfer counters and overlap bits of a run (discrete: an
/// overlap is a ratio of two position counts) beside its logit bits.
fn outputs_hash(res: &GenerationResult) -> Pin {
    let (mut d, mut f) = (Fnv::new(), Fnv::new());
    d.indices(&res.tokens);
    for out in &res.outputs {
        f.floats(&out.logits);
    }
    let moved = res.transfer.unwrap_or_default();
    d.word(u64::from(res.transfer.is_some()));
    d.word(moved.fetched_entries);
    d.word(moved.reused_entries);
    d.floats(&res.overlaps);
    pin(d.0, f.0)
}

/// Attended positions of every recorded step beside the attention bits.
fn traces_hash(res: &GenerationResult) -> Pin {
    let (mut d, mut f) = (Fnv::new(), Fnv::new());
    d.word(res.traces.len() as u64);
    for trace in &res.traces {
        for (attn, positions) in trace.attn.iter().zip(&trace.positions) {
            for (weights, attended) in attn.iter().zip(positions) {
                f.floats(weights);
                d.indices(attended);
            }
        }
    }
    pin(d.0, f.0)
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
                pin(10475154606077495533, 12988252916154329018),
                pin(11848279663113108061, 11262637350873772087),
                pin(14445929942982809614, 5377936590064295893)
            ),
            (
                pin(7850373594768187533, 7020324325503044662),
                pin(4150237533388169181, 13021602123753285947),
                pin(13391566573531207462, 4992451318266860936)
            ),
            (
                pin(6368780869566429273, 15906433854360651554),
                pin(1153671573191746525, 10497477207356619833),
                pin(624574832876074121, 7350739152430786568)
            ),
            (
                pin(14092512059828352078, 16023855248561364405),
                pin(17796039113191160477, 4853700503611747219),
                pin(7433420272008006205, 252293842180705333)
            ),
        ]
    );
}

/// (a, long) An 8 K-position context behind a windowed prefill: the
/// threshold selection several histogram buckets deep, 128 chunked
/// prefill blocks, softmax rows of 37 (prefill) and 8 200 (the head).
#[test]
fn golden_a_session_at_8k_positions() {
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
    assert_eq!(
        outputs_hash(&forced),
        pin(11920282830309825970, 3065324704147880146)
    );
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
                pin(13793283198852970937, 15541846029679622568),
                pin(8106868926620817865, 14383048119042192593),
                pin(11644623162575217840, 7040389250598935090),
                pin(8106868926620817865, 10236699057813051015)
            ),
            (
                "streaming",
                pin(15822195999535651384, 2646541268388327336),
                pin(9489417151715927625, 16443896350571312691),
                pin(13015049310788095534, 10222796788165348144),
                pin(9489417151715927625, 10358765866289558165)
            ),
            (
                "quest",
                pin(16695504521262120978, 16566403963373333279),
                pin(4434467540907501257, 605195665989744899),
                pin(16365880116995754468, 15471200162608544924),
                pin(16258531845192855497, 37739867097891185)
            ),
            (
                "clusterkv",
                pin(7349248862836032899, 6060985723430223913),
                pin(269012764231104841, 12855984480230777537),
                pin(13498071906527374922, 3194616625736419072),
                pin(12777502856489011497, 10106502157855598897)
            ),
            (
                "shadowkv",
                pin(13793283198852970937, 10270817113186017231),
                pin(16360029805195955369, 17359916709740550775),
                pin(17707951833710297940, 8696292353677663349),
                pin(12950764825901467049, 5971502762214075220)
            ),
            (
                "infinigen",
                pin(13793283198852970937, 10039017041860442771),
                pin(12180601162303639497, 8148554973368438477),
                pin(17707951833710297940, 12276080151898081439),
                pin(4347262713956341353, 2740287854014066841)
            ),
            (
                "specontext",
                pin(7325268137464719234, 178439598439114644),
                pin(4939664080201118729, 9653027934571458106),
                pin(3029824176499455394, 2006724821493212696),
                pin(8936053181117544969, 7540924304074154468)
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
    // Discrete: every score is a ratio of thresholded group counts.
    assert_eq!(h.0, 17668167222547535093, "longbench matrices {matrices:?}");

    // Relevance, coherence and breadth are token statistics; accuracy,
    // clarity and reading experience fold the logits themselves.
    let (mut d, mut f) = (Fnv::new(), Fnv::new());
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
        d.floats(&[s.relevance, s.coherence, s.breadth_depth]);
        f.floats(&[s.accuracy, s.clarity, s.reading_experience]);
    }
    assert_eq!(
        pin(d.0, f.0),
        pin(15548134581105812281, 3687364345902767773),
        "longwriter scores"
    );
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
