//! Shared bench harness: the standard simulated models, budget scaling,
//! and result persistence used by every table/figure regenerator.
//!
//! # Scale mapping
//!
//! Accuracy experiments run on the scaled-down simulated geometry
//! (CPU-executable); contexts and budgets are divided by
//! [`SIM_SCALE`] relative to the paper's, so a paper budget of 2048 at a
//! 16K context becomes a sim budget of 256 at a 2K context. Budget *labels*
//! in the printed tables are the paper's. Throughput experiments use the
//! models' **real** geometry on the hardware simulator — no scaling.

pub mod provenance;

use spec_model::{ModelConfig, PrefillMode, SimGeometry};
use specontext_core::engine::{Engine, EngineConfig};
use specontext_core::report::Table;

/// Paper-to-sim division factor for contexts and budgets.
pub const SIM_SCALE: usize = 8;

/// Converts a paper budget/length to the simulated one.
pub fn to_sim(paper: usize) -> usize {
    (paper / SIM_SCALE).max(4)
}

/// The standard simulated engine for a paper model preset.
pub fn sim_engine(cfg: &ModelConfig, budget: usize, seed: u64) -> Engine {
    Engine::build(EngineConfig {
        geometry: cfg.sim_geometry(),
        seed,
        budget,
        prefill_mode: PrefillMode::Windowed {
            window: 96,
            sinks: 4,
        },
        ..EngineConfig::default()
    })
}

/// A small engine for quick statistics (tiny geometry).
pub fn tiny_engine(budget: usize, seed: u64) -> Engine {
    Engine::build(EngineConfig {
        geometry: SimGeometry::tiny(spec_model::AttentionKind::Gqa),
        seed,
        budget,
        ..EngineConfig::default()
    })
}

/// Prints a table and writes it to `results/<slug>.json`.
pub fn emit(table: &Table, slug: &str) {
    println!("{table}");
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{slug}.json"));
    if let Err(e) = std::fs::write(&path, table.to_json()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]\n", path.display());
    }
}

/// Writes a pre-rendered JSON document to `results/<slug>.json` (used by
/// the `kernels` bench for its machine-readable timing summary).
pub fn emit_raw_json(slug: &str, json: &str) {
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{slug}.json"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
}

fn results_dir() -> std::path::PathBuf {
    // The workspace root's results/ directory.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Standard Table-3 / Fig. 10 workload shapes `[input, output]`.
pub fn paper_shapes() -> [(usize, usize); 4] {
    [
        (2048, 16 * 1024),
        (2048, 32 * 1024),
        (16 * 1024, 2048),
        (32 * 1024, 2048),
    ]
}

/// Formats a shape label as the paper prints it.
pub fn shape_label(inp: usize, out: usize) -> String {
    let k = |v: usize| format!("{}k", v / 1024);
    format!("[{}, {}]", k(inp), k(out))
}
