//! Bench-regression smoke gate for `results/bench_kernels.json`.
//!
//! Run after `cargo bench --bench kernels`. Fails (exit 1), after
//! listing every failure it finds, when the summary is missing an expected entry, when any selection or LUT
//! speedup regresses below 1.0x against its kept reference path, when
//! the headline `top_k_indices` partial-select speedup drops under the
//! 3x the zero-allocation selection engine is accountable for, when
//! the int4 LUT gather kernel drops under the 2x its gather-vs-unpack
//! design is accountable for, when the chunked prefill drops under
//! 1.8x the token-at-a-time loop it replaced, when the retrieval head's
//! appends drop under 1.3x a per-head projection twin, when the set top-k
//! (against rank-then-mark) or the polynomial-`exp` softmax (against the
//! libm one) drops under 2x at 4224 positions, when the decode step's
//! in-place attention drops under 1.5x gather-then-attend at 260 of 2304
//! positions (2.6x for a summary made on the AVX-512 tier, where the QK
//! transposes its key rows in registers), when the value tile drops under
//! 1.2x its twin that tests every weight for zero, when the retrieval
//! head's int8 key sweep drops
//! under 1.5x the f32 one at 4224 positions, the merge-counted overlap
//! under 4x the hash set at either union size or the bitmap union and
//! overlap under 5x the merges they replaced, when the simulator's
//! step-table walk drops under 2x the per-step lookup, or when its misses
//! — a block of lengths priced as the lanes of one timeline — drop under
//! 5x one price per length (the price-only miss beside the recording one
//! is reported, not floored), or when a decode step split by KV head
//! across two threads, or a 4096-token prefill split by KV head and block
//! rows, drops under 1.2x the same work on one thread, where the
//! provenance shows two CPUs or more. It also fails on a summary without
//! its provenance: commit, SIMD tier, CPU vendor / family / model,
//! microarchitecture label and CPU count. (The int8 entries are report-only: the
//! widened multiply sits at parity with the already-ILP-bound reference.)

use serde::Value;
use std::process::ExitCode;

/// Bench entries the kernels harness must always produce.
const EXPECTED_ENTRIES: &[&str] = &[
    "top_k_positions/16384->2048",
    "selection/top_k_indices/16384->2048",
    "selection/argsort_topk/16384->2048",
    "page_table_build/16384x64",
    "page_table_extend/16tok@16k",
    "selection/quest/16k->2048",
    "selection/quest_reference/16k->2048",
    "selection/clusterkv/16k->2048",
    "selection/clusterkv_reference/16k->2048",
    "selection/shadowkv/16k->2048",
    "selection/shadowkv_reference/16k->2048",
    "selection/infinigen/16k->2048",
    "selection/infinigen_reference/16k->2048",
    "selection/spec_head/16k->2048",
    "selection/spec_head_reference/16k->2048",
    "page_table_build_reference/16384x64",
    "lut/build_i4/64",
    "lut/dot_i4/16384x64",
    "lut/dot_i4_reference/16384x64",
    "lut/dot_i8_fma/16384x64",
    "lut/dot_i8_reference/16384x64",
    // The two data-structure passes of a SpeContext decode step. The
    // elastic entry hands every layer the same lists, as the decode loop
    // does, so since `BudgetBuffer::step` plans one set per KV head for
    // every layer it times one layer's plan and the lists' comparison.
    "elastic_step/4x2x2048",
    "retrieval_head/head_scores/8x16@16384",
    // A `prompt_32k_2k` prompt's retrieval-head appends: one projection of
    // the heads side by side, and the bench-local twin's one per head.
    "retrieval_head/append/4096",
    "retrieval_head/append_per_head/4096",
    // The chunked prefill, the same prefill with every join inline, and
    // the token-at-a-time loop it is held to.
    "prefill/windowed96+4/4096",
    "prefill/serial/4096",
    "prefill_oracle/windowed96+4/4096",
    // The set top-k beside rank-then-mark, at a `reason_2k_16k` step, a
    // `prompt_32k_2k` step and the 16K decode shape.
    "selection/mark_top_k/1280->256",
    "selection/sort_top_k/1280->256",
    "selection/mark_top_k/4224->256",
    "selection/sort_top_k/4224->256",
    "selection/mark_top_k/16384->2048",
    "selection/sort_top_k/16384->2048",
    // The polynomial-`exp` softmax beside the libm oracle.
    "softmax/264",
    "softmax_libm/264",
    "softmax/4224",
    "softmax_libm/4224",
    // The decode step's attention in place beside gather-then-attend: a
    // `reason_2k_16k` step, a `prompt_32k_2k` step, the dense baseline.
    "attend/260of2304",
    "attend_gathered/260of2304",
    "attend/260of4352",
    "attend_gathered/260of4352",
    "attend/dense4352",
    "attend_gathered/dense4352",
    // The retrieval head's sweep of every cached key, 8 heads rotating
    // through 16 sessions' caches: f32 blocks beside the int8 blocks the
    // head keeps, midway and at the end of a `reason_2k_16k` op and at a
    // `prompt_32k_2k` step.
    "head_sweep/f32/1280",
    "head_sweep/int8/1280",
    "head_sweep/f32/2304",
    "head_sweep/int8/2304",
    "head_sweep/f32/4224",
    "head_sweep/int8/4224",
    // Adjacent union selections' overlap, by merge beside the hash set, at
    // the two engine workloads' mean union sizes.
    "stats/overlap_merge/376",
    "stats/overlap_hash/376",
    "stats/overlap_merge/425",
    "stats/overlap_hash/425",
    // The union and overlap of consecutive selections as the decode loop
    // counts them — per-head bitmaps OR-ed, a popcount — beside the k-way
    // merge and merge-counted overlap they replaced, at the two engine
    // workloads' mean union sizes and contexts.
    "selection_glue/words/376of1280",
    "selection_glue/merge/376of1280",
    "selection_glue/words/425of4224",
    "selection_glue/merge/425of4224",
    // The forward pass's hot loops alone: the value tile beside its
    // per-row-zero-test twin, a query group's softmax at a prefill
    // position's and a decode step's shapes and the long rows grouping
    // must not slow, one KV head's attention over a prefill block, and
    // the fused Q|K|V projection's gemm.
    "value_pass/4x101",
    "value_pass_branchy/4x101",
    "softmax/4x101",
    "softmax/4x261",
    "softmax/8x4224",
    "prefill_attend/block64",
    "gemm/64x64x192",
    // The decode step's matvecs: `wo`, FFN gate/up, FFN down, `lm_head`.
    "vecmat/64x64",
    "vecmat/64x128",
    "vecmat/128x64",
    "vecmat/64x512",
    // The simulator's per-iteration layers: a step-table hit through the
    // quiet run's walk and through the per-step lookup, 512 cold lengths
    // priced by the table (a block of lanes per miss), one `step_time`
    // each and on a recording timeline, and one engine's `advance_until`
    // over the sample trace's first 512 requests.
    "serving/step_hit_walk/4x2048..6144",
    "serving/step_hit_lookup/4x2048..6144",
    "serving/step_miss/specontext",
    "serving/step_price/specontext",
    "serving/step_miss_recorded/specontext",
    "scheduler/advance_until/sample512",
    // `spec_parallel::join`'s hand-off, a two-item `par_map` over it (no
    // floor), and a late `reason_2k_16k` decode step (select + forward)
    // with its KV-head halves on two threads and on one.
    "join/roundtrip",
    "par_map/2_items",
    "decode_step/split",
    "decode_step/serial",
];

/// Keys of the `selection_speedup_vs_reference` map that must be present
/// and at least 1.0 (new path never slower than the kept reference).
const EXPECTED_SPEEDUPS: &[&str] = &[
    "top_k_indices",
    "page_table_extend",
    "page_table_build",
    "quest",
    "clusterkv",
    "shadowkv",
    "infinigen",
    "spec_head",
];

/// Keys of the `lut_speedup_vs_reference` map that must be present and
/// at least 1.0. `dot_i8_fma` is deliberately absent from the floor set
/// (presence-checked via `EXPECTED_ENTRIES` only): at dim 64 the int8
/// reference loop is already ILP-bound across keys, so the widened
/// multiply sits at ~parity — the bench reports it instead of pretending
/// a floor.
const EXPECTED_LUT_SPEEDUPS: &[&str] = &["dot_i4"];

/// The floor for the ordered partial select (`top_k_desc`) against the
/// full argsort at 16384 -> 2048. Both sides are timed over a rotation
/// of 64 tie-heavy score vectors, where every comparison is a coin flip
/// for the branch predictor: 5.1x there (366 us vs 1.87 ms), against the
/// 5.6x one memorised input used to read (260 us vs 1.46 ms). 3x keeps
/// the margin the old floor had over its own measurement.
const TOP_K_MIN_SPEEDUP: f64 = 3.0;

/// The acceptance-criteria floor for the int4 LUT gather kernel against
/// the unpack/convert/multiply reference.
const LUT_I4_MIN_SPEEDUP: f64 = 2.0;

/// The floor for `Model::prefill_embeddings` against one decode step per
/// position. Measured 2.1-3.2x while that step gathered its K/V rows and
/// 1.9x since it attends in place (PR 19: the oracle loop 305 -> 157 ms
/// beside a prefill of 98 -> 79). PR 24 sped both sides again — the
/// oracle *is* `Model::step`, which got the fused projection, the value
/// tile and the grouped softmax too: 1.94–2.09x over two refreshes.
/// Running the prefill's last layer — attention, `wo` and FFN — for the
/// final row alone took ~21 % off the prefill and left the oracle as it
/// was: 1.69x before, predicted ~2.1x, measured 2.22x (60.7 against
/// 134.6 ms). The floor sits where losing that pruning fails the gate.
const PREFILL_MIN_SPEEDUP: f64 = 1.8;

/// The floor for 4096 `RetrievalHead::append`s into a fresh state — one
/// `vecmat` of the heads' key projections side by side, 64 x 128 —
/// against the bench-local twin that projects each of the eight heads
/// with its own 64 x 16 `vecmat`, a single 64-deep dependent add chain
/// per lane (best samples). Measured 1.37x (4.26 against 5.82 ms) on the
/// AVX-512 build host. The eight int8 quantize-and-pushes a position,
/// which both sides pay, are most of what is left: in a harness the norm
/// and the one `vecmat` take 0.39 of an append's 1.07 µs (0.69 of 1.5
/// with a `vecmat` a head).
const HEAD_APPEND_MIN_SPEEDUP: f64 = 1.3;

/// The floor for `RankScratch::mark_top_k` against `top_k_desc` + a
/// marking walk at 4224 -> 256, and for `ops::softmax_inplace` against
/// the libm softmax at 4224 elements (best samples; the selection over
/// the bench's rotation of tie-heavy inputs). Measured 13-16x / 4.1-5.5x
/// on the AVX-512 build host; the scalar tier reads about 8x / 2.3x.
const MARK_TOP_K_MIN_SPEEDUP: f64 = 2.0;
/// See [`MARK_TOP_K_MIN_SPEEDUP`].
const SOFTMAX_MIN_SPEEDUP: f64 = 2.0;

/// The floor for the indexed attention kernels (QK over a staged key
/// tile, one softmax per query group, the value pass in place) against
/// two `gather_rows` copies and a per-head scalar loop, at 260 of 2304
/// positions over a rotation of 64 selections (best samples). Measured
/// 1.9x there, 1.6x at 260 of 4352 and 1.8x dense on the AVX-512 build
/// host.
const ATTEND_MIN_SPEEDUP: f64 = 1.5;

/// [`ATTEND_MIN_SPEEDUP`] for a summary whose provenance names the AVX-512
/// tier, where the QK transposes sixteen listed key rows at a time in
/// registers instead of staging them into the tile by scatter (the one
/// kernel whose tier changes how it moves its data, so the one floor set
/// by tier). Measured 3.25x there (34.7 against 112.6 µs), against 2.35x
/// for the staged tile in the summary before the transpose, which this
/// floor fails; the margin is a fifth of the measurement.
const ATTEND_AVX512_MIN_SPEEDUP: f64 = 2.6;

/// The floor for the retrieval head's int8 key sweep
/// (`QuantKeyBlocks::dots_into`, 8 heads) against the f32 one at 4224
/// positions, rotating through 16 sessions' caches so that neither stays
/// in L2 (best samples). The f32 sweep streams 2.16 MB a step from beyond
/// L2; the int8 one reads 0.68 MB and is bound by its widening
/// multiply-adds wherever the keys are. Measured 2.5x on the AVX-512
/// build host.
const HEAD_SWEEP_MIN_SPEEDUP: f64 = 1.5;

/// The floor for `stats::overlap_rate`'s merge against a `HashSet` built
/// per call, at both union sizes over a rotation of 64 pairs (best
/// samples). Measured 5.2x and 5.9x.
const OVERLAP_MIN_SPEEDUP: f64 = 4.0;

/// The floor for the union and overlap of consecutive selections by
/// bitmap (`SpecSelection::union_words_into` + `union_overlap_rate`)
/// against the k-way merge and `stats::overlap_rate` merge they replaced,
/// two heads of 260 positions over a rotation of 64 pairs (best samples).
/// Measured 10.6x (577 against 6114 ns) at 376 of 1280 positions and
/// 9.8x (730 against 7126 ns) at 425 of 4224 on the AVX-512 build host;
/// the floor keeps half of that.
const GLUE_MIN_SPEEDUP: f64 = 5.0;

/// The floor for the value tile (`ops::indexed_weighted_sums`, four heads
/// weighing 101 listed rows of 16: a prefill position's value pass through
/// the decode step's entry) against the bench-local twin that tests every
/// weight for zero in the walk, as the tile did until PR 24 (best
/// samples). The port count predicts 2.0x — 4 cycles a row where the twin
/// takes 11 — and the walk itself delivers it (2.7 against 4.0 ns a row
/// over a long list, ~2.1 over the prefill's contiguous rows); at 101 rows
/// the index list's per-row address arithmetic and bounds checks and the
/// call's fixed costs, which both sides pay, leave 1.32–1.45x (296
/// against 392 ns in the committed run) on the AVX-512 build host.
const VALUE_TILE_MIN_SPEEDUP: f64 = 1.2;

/// The floor for reading the step table through `ServingSim::step_prices`
/// against one `step_time_cached` call per length over 4096 consecutive
/// priced lengths of one batch (best samples). Measured 2.4 ns against
/// 6.0 ns a hit, 2.5x, on the build host with the closure walk it
/// replaced: the walk resolves stamp and page once per 512 lengths where
/// the lookup re-derives both per call.
const STEP_WALK_MIN_SPEEDUP: f64 = 2.0;

/// The floor for 512 cold consecutive lengths through
/// `ServingSim::step_time_cached`, which prices each aligned block of
/// `STEP_BLOCK` lengths as the lanes of one timeline, against one
/// `ServingSim::step_time` per length (best samples). A price is one
/// dependent chain of ~130 compare-and-adds, so sixteen independent
/// lengths side by side cost about two and a half one-lane chains (1.8
/// against 0.7 us on a recording timeline), and the single side also pays
/// `step_time`'s per-call Algorithm 1 and timeline allocation. Measured
/// 10.5x (56 against 589 us per 512 lengths) on the AVX-512 build host,
/// whose simulator code is baseline x86-64.
const STEP_BLOCK_MIN_SPEEDUP: f64 = 5.0;

/// The floor for a decode step whose KV-head halves `spec_parallel::join`
/// splits across two threads against the same step on one (best samples;
/// 2304 positions cached, the retrieval head's select and the forward),
/// held only for a summary whose provenance shows at least two CPUs.
/// Measured 1.37x (78.0 against 106.8 µs) on the 2-vCPU AVX-512 build
/// host, a hand-off (`join/roundtrip`) costing 0.54 µs there; on one CPU
/// both sides run the same serial code.
const SPLIT_MIN_SPEEDUP: f64 = 1.2;

/// The floor for a 4096-token prefill whose attention (by KV head) and
/// row-wise stretch (`wo`, the FFN and the next layer's projection, by
/// block rows) `spec_parallel::join` splits across two threads, against
/// the same prefill with every join inline (mean samples, as for the
/// oracle ratio), held only for a summary whose provenance shows at least
/// two CPUs. Measured 1.38-1.78x over five runs on the 2-vCPU AVX-512
/// build host (best samples read 1.17-1.65x: the serial side's best swung
/// 72-112 ms), where the row split alone took a harness prefill from ~80
/// to ~66 ms; on one CPU both sides run the same serial code.
const PREFILL_SPLIT_MIN_SPEEDUP: f64 = 1.2;

/// Fields the summary's `provenance` object must carry, and whether each
/// is a string (else a number).
const PROVENANCE_FIELDS: &[(&str, bool)] = &[
    ("git_sha", true),
    ("simd_tier", true),
    ("cpu_vendor", true),
    ("cpu_family", false),
    ("cpu_model", false),
    ("microarch", true),
    ("cpus", false),
];

fn numeric(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        other => Err(format!("{what} is not numeric: {other:?}")),
    }
}

/// What [`check`] found: a line per value that passed, and every missing
/// field, missing entry and floor under its value.
#[derive(Default)]
struct Verdict {
    report: Vec<String>,
    failures: Vec<String>,
}

impl Verdict {
    /// Reports `ratio` under `label`, or records a failure naming it
    /// `name` when it is not finite or under `floor` (`what` names the
    /// floor).
    fn ratio(&mut self, label: &str, name: &str, ratio: f64, floor: Option<f64>, what: &str) {
        if !ratio.is_finite() || floor.is_some_and(|floor| ratio < floor) {
            self.failures.push(format!("{name} {ratio:.2}x {what}"));
        } else {
            self.report.push(format!("{label}: {ratio:.2}x"));
        }
    }

    /// Unwraps `value`, recording its error as a failure.
    fn take<T>(&mut self, value: Result<T, String>) -> Option<T> {
        value.map_err(|e| self.failures.push(e)).ok()
    }
}

fn check(doc: &Value) -> Verdict {
    let mut v = Verdict::default();
    let provenance = v.take(
        doc.get_field("provenance")
            .map_err(|_| "missing `provenance`".to_string()),
    );
    let mut origin = Vec::new();
    let mut cpus = None;
    let mut attend_floor = ATTEND_MIN_SPEEDUP;
    if let Some(provenance) = provenance {
        for (key, is_str) in PROVENANCE_FIELDS {
            let Some(field) = v.take(
                provenance
                    .get_field(key)
                    .map_err(|_| format!("missing `provenance.{key}`")),
            ) else {
                continue;
            };
            match (field, is_str) {
                (Value::Str(s), true) if !s.is_empty() => origin.push(s.clone()),
                (_, false) => {
                    if let Some(n) = v.take(numeric(field, &format!("`provenance.{key}`"))) {
                        origin.push(format!("{n}"));
                        if *key == "cpus" {
                            cpus = Some(n);
                        }
                    }
                }
                _ => v
                    .failures
                    .push(format!("`provenance.{key}` is not a non-empty string")),
            }
        }
        if matches!(provenance.get_field("simd_tier"), Ok(Value::Str(t)) if t == "avx512") {
            attend_floor = ATTEND_AVX512_MIN_SPEEDUP;
        }
    }
    v.report.push(format!("provenance: {}", origin.join(" / ")));

    match doc.get_field("entries") {
        Ok(Value::Seq(entries)) => {
            let names: Vec<&str> = entries
                .iter()
                .filter_map(|e| match e.get_field("name") {
                    Ok(Value::Str(s)) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            for want in EXPECTED_ENTRIES {
                if !names.contains(want) {
                    v.failures.push(format!("missing bench entry `{want}`"));
                }
            }
        }
        Ok(_) => v.failures.push("`entries` is not an array".into()),
        Err(e) => v.failures.push(e.to_string()),
    }

    for (map, keys, name, prefix) in [
        (
            "selection_speedup_vs_reference",
            EXPECTED_SPEEDUPS,
            "selection speedup",
            "",
        ),
        (
            "lut_speedup_vs_reference",
            EXPECTED_LUT_SPEEDUPS,
            "lut speedup",
            "lut/",
        ),
    ] {
        let Some(speedups) = v.take(doc.get_field(map).map_err(|e| e.to_string())) else {
            continue;
        };
        for key in keys {
            let Some(ratio) = v.take(
                speedups
                    .get_field(key)
                    .map_err(|_| format!("missing {name} `{key}`"))
                    .and_then(|r| numeric(r, &format!("{name} `{key}`"))),
            ) else {
                continue;
            };
            let label = format!("{prefix}{key}");
            if !ratio.is_finite() || ratio < 1.0 {
                v.failures.push(format!(
                    "{name} `{key}` regressed: {ratio:.2}x < 1.0x vs reference"
                ));
            } else if *key == "top_k_indices" && ratio < TOP_K_MIN_SPEEDUP {
                v.failures.push(format!(
                    "`top_k_indices` speedup {ratio:.2}x under the {TOP_K_MIN_SPEEDUP}x floor"
                ));
            } else if label == "lut/dot_i4" && ratio < LUT_I4_MIN_SPEEDUP {
                v.failures.push(format!(
                    "`dot_i4` LUT speedup {ratio:.2}x under the {LUT_I4_MIN_SPEEDUP}x floor"
                ));
            } else {
                v.report.push(format!("{label}: {ratio:.2}x"));
            }
        }
    }

    for (map, key, floor) in [
        (
            "mark_top_k_speedup_vs_sort",
            "4224->256",
            MARK_TOP_K_MIN_SPEEDUP,
        ),
        ("softmax_speedup_vs_libm", "4224", SOFTMAX_MIN_SPEEDUP),
        ("attend_speedup_vs_gathered", "260of2304", attend_floor),
        (
            "head_sweep_int8_speedup_vs_f32",
            "4224",
            HEAD_SWEEP_MIN_SPEEDUP,
        ),
        ("overlap_merge_speedup_vs_hash", "376", OVERLAP_MIN_SPEEDUP),
        ("overlap_merge_speedup_vs_hash", "425", OVERLAP_MIN_SPEEDUP),
        (
            "selection_glue_speedup_vs_merge",
            "376of1280",
            GLUE_MIN_SPEEDUP,
        ),
        (
            "selection_glue_speedup_vs_merge",
            "425of4224",
            GLUE_MIN_SPEEDUP,
        ),
    ] {
        let ratio = doc
            .get_field(map)
            .and_then(|m| m.get_field(key))
            .map_err(|_| format!("missing `{map}.{key}`"))
            .and_then(|r| numeric(r, &format!("`{map}.{key}`")));
        if let Some(ratio) = v.take(ratio) {
            v.ratio(
                &format!("{map}/{key}"),
                &format!("`{map}.{key}`"),
                ratio,
                Some(floor),
                &format!("under the {floor}x floor"),
            );
        }
    }

    let prefill = doc
        .get_field("prefill_speedup_vs_oracle")
        .map_err(|_| "missing `prefill_speedup_vs_oracle`".to_string())
        .and_then(|r| numeric(r, "`prefill_speedup_vs_oracle`"));
    if let Some(ratio) = v.take(prefill) {
        v.ratio(
            "prefill",
            "chunked prefill speedup",
            ratio,
            Some(PREFILL_MIN_SPEEDUP),
            &format!("under the {PREFILL_MIN_SPEEDUP}x floor"),
        );
    }

    // Without a CPU count the split floors are held, as on two CPUs.
    let split = |floor| (cpus.is_none_or(|n| n >= 2.0)).then_some(floor);
    for (key, floor) in [
        (
            "value_tile_speedup_vs_branchy",
            Some(VALUE_TILE_MIN_SPEEDUP),
        ),
        (
            "head_append_speedup_vs_per_head",
            Some(HEAD_APPEND_MIN_SPEEDUP),
        ),
        ("step_walk_speedup_vs_lookup", Some(STEP_WALK_MIN_SPEEDUP)),
        ("step_block_speedup_vs_single", Some(STEP_BLOCK_MIN_SPEEDUP)),
        ("step_miss_speedup_vs_recorded", None),
        (
            "decode_step_split_speedup_vs_serial",
            split(SPLIT_MIN_SPEEDUP),
        ),
        (
            "prefill_split_speedup_vs_serial",
            split(PREFILL_SPLIT_MIN_SPEEDUP),
        ),
    ] {
        let ratio = doc
            .get_field(key)
            .map_err(|_| format!("missing `{key}`"))
            .and_then(|r| numeric(r, &format!("`{key}`")));
        if let Some(ratio) = v.take(ratio) {
            let name = format!("`{key}`");
            v.ratio(
                key,
                &name,
                ratio,
                floor,
                &format!("under its floor {floor:?}"),
            );
        }
    }
    v
}

fn main() -> ExitCode {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/bench_kernels.json");
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("check_kernels: cannot read {}: {e}", path.display());
            eprintln!("run `cargo bench --bench kernels` first");
            return ExitCode::FAILURE;
        }
    };
    let doc: Value = match serde_json::from_str(&raw) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("check_kernels: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let Verdict { report, failures } = check(&doc);
    if failures.is_empty() {
        println!("check_kernels: provenance present, all speedup floors hold:");
        for line in report {
            println!("  {line}");
        }
        return ExitCode::SUCCESS;
    }
    for line in report {
        eprintln!("  {line}");
    }
    eprintln!("check_kernels: FAIL: {} failure(s):", failures.len());
    for msg in failures {
        eprintln!("  {msg}");
    }
    ExitCode::FAILURE
}
