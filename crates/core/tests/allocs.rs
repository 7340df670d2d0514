//! Allocation regression test for the decode step.
//!
//! A `Session` keeps everything a step works in — the selection
//! workspace and the forward pass's buffers, the retrieval head's
//! `append` buffers, the two union bitmaps the overlap is counted between,
//! the elastic buffer's plan scratch — so what a warm step still takes
//! from the allocator is what it hands out or is asked for by signature.
//! This pins that list on the benchmark geometry (4 layers, 2 KV heads),
//! where each term can be counted; `bench_e2e`'s
//! `runtime.allocs_per_step` reads a mirrored loop that allocates more
//! (a plan, an input row, a union list and `layers` copies of the
//! per-head lists a step).

use spec_model::{ModelConfig, PrefillMode};
use specontext_core::engine::{Engine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether allocations are being counted, and how many have been while
/// they were: by every thread, so that what `spec_parallel::join`'s
/// helper allocates for a half of a step counts too. The file holds one
/// test, so while it is armed no other test is allocating.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn count() {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the only extra
// work is a load and an increment of two static atomics, which neither
// allocate nor can be torn down mid-call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations made while it
/// ran, on any thread. A `join` returns only after its helper half has,
/// so everything a step's halves allocate is in the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn a_warm_session_step_allocates_what_it_returns_and_is_asked_for() {
    const STEPS: u64 = 64;
    let geometry = ModelConfig::deepseek_distill_llama_8b().sim_geometry();
    let (layers, kv_heads, q_heads) = (
        geometry.layers as u64,
        geometry.kv_heads as u64,
        geometry.q_heads as u64,
    );
    let engine = Engine::build(EngineConfig {
        geometry,
        budget: 64,
        prefill_mode: PrefillMode::Windowed {
            window: 96,
            sinks: 4,
        },
        ..EngineConfig::default()
    });
    let mut session = engine.session();
    session.prefill_tokens(&(0..300).map(|i| (i * 7) % 500).collect::<Vec<_>>());
    let tokens: Vec<usize> = (0..2 * STEPS as usize)
        .map(|i| (i * 11 + 3) % 500)
        .collect();
    let inputs = engine.model().embed_tokens(&tokens);
    // Warm: every workspace sized, the elastic buffer built.
    session.decode_teacher_forced(&inputs, STEPS as usize);
    let rest = engine.model().embed_tokens(&tokens[STEPS as usize..]);
    let (res, allocations) = counted(|| session.decode_teacher_forced(&rest, STEPS as usize));
    assert_eq!(res.tokens.len(), STEPS as usize);

    // One list of per-head lists: the outer vector and each head's.
    let lists = 1 + kv_heads;
    let step_output = 2; // logits, hidden
    let selection = lists; // what `select_scratch` returns
    let layer_views = 1; // `BudgetBuffer::step(&[&per_head[..]; layers])`
    let selector_answers = layers * lists; // `LayerSelector::select`, a layer
    let per_step = step_output + selection + layer_views + selector_answers;
    // Vectors that grow by doubling, at most twice each over 64 pushes
    // onto 364 or more: the K and V matrices of every layer and KV head
    // and the retrieval head's key cache (levels and scales a head); the
    // run's token, output and overlap lists grow from empty.
    let growth = 2 * (2 * layers * kv_heads + 2 * q_heads) + 3 * 7;
    assert!(
        allocations <= STEPS * per_step + growth,
        "{allocations} allocations over {STEPS} warm steps; allowed a step: {step_output} \
         (StepOutput) + {selection} (the selection's lists) + {layer_views} (the vector of \
         `layers` borrowed views `BudgetBuffer::step` is lent) + {selector_answers} (the \
         selector's per-layer answers) = {per_step}, plus {growth} in all for amortised growth \
         of the KV cache, the head's key cache and the result lists"
    );
    // The bound is the list above, not slack: observe, select's scoring,
    // the union, the overlap count and the elastic step allocate nothing.
    assert!(
        allocations >= STEPS * per_step,
        "{allocations} allocations over {STEPS} steps is under the {per_step} a step the \
         signatures ask for: re-derive this test's list"
    );
}
