//! Fig. 7: per-token timelines of the five dataflow paradigms.
//!
//! Prints, for one decode step of an offloaded Llama3.1-8B at 32K context
//! and budget 2048, the per-paradigm makespan, the stream-level busy
//! times, and the retrieval/transfer/attention breakdown — the numbers
//! behind the timeline diagrams.

use spec_bench::emit;
use spec_hwsim::event::{COMPUTE, COPY};
use spec_hwsim::{DeviceSpec, EngineProfile};
use spec_model::ModelConfig;
use spec_runtime::costs::CostModel;
use spec_runtime::dataflow::{step_timeline, DataflowKind, StepParams};
use specontext_core::report::{f2, Table};

fn main() {
    let cm = CostModel::new(ModelConfig::llama3_1_8b());
    let dev = DeviceSpec::a100_80g();
    let profile = EngineProfile::flashinfer();
    let params = StepParams {
        r: 4,
        s_total: 32 * 1024,
        s_attended: 2048,
        candidates: 2048,
        candidate_bytes: 4.0 * 128.0,
        l_cpu: 32,
        budget: 2048,
        reuse: 0.85,
    };

    let kinds = [
        DataflowKind::PrefetchFullKv,
        DataflowKind::FetchSparseKv,
        DataflowKind::PrefetchSparseKv,
        DataflowKind::PrefetchSparseV,
        DataflowKind::SpeContext,
    ];
    let mut table = Table::new(
        "Fig. 7 — one decode step, Llama3.1-8B @32K offloaded, budget 2048 (ms)",
        &[
            "paradigm",
            "step",
            "compute busy",
            "copy busy",
            "retrieval",
            "transfer MB",
            "re+load frac",
        ],
    );
    for kind in kinds {
        let (sim, bd) = step_timeline(kind, &cm, &profile, &dev, &params);
        table.push_row(vec![
            kind.to_string(),
            f2(bd.total * 1e3),
            f2(sim.busy_time(COMPUTE) * 1e3),
            f2(sim.busy_time(COPY) * 1e3),
            f2(bd.retrieval * 1e3),
            f2(bd.bytes_transferred / 1e6),
            f2(bd.retrieval_and_load_fraction()),
        ]);
    }
    emit(&table, "fig07_dataflow");

    // Also dump the SpeContext timeline ops for the first 3 layers, the
    // data behind the Fig. 7(e) diagram.
    let (sim, _) = step_timeline(DataflowKind::SpeContext, &cm, &profile, &dev, &params);
    let mut ops = Table::new(
        "Fig. 7(e) — SpeContext timeline (first ops, µs)",
        &["op", "stream", "start", "end"],
    );
    for r in sim.records().iter().take(12) {
        ops.push_row(vec![
            r.label.to_string(),
            format!("{:?}", r.stream),
            f2(r.start * 1e6),
            f2(r.end * 1e6),
        ]);
    }
    emit(&ops, "fig07_timeline_ours");

    // ASCII Gantt charts — the Fig. 7 diagrams themselves.
    for kind in kinds {
        let (sim, bd) = step_timeline(kind, &cm, &profile, &dev, &params);
        println!("--- {kind} ({:.2} ms) ---", bd.total * 1e3);
        print!(
            "{}",
            spec_hwsim::gantt::render(&sim, &[(COMPUTE, "compute"), (COPY, "copy")], 88)
        );
        println!();
    }
}
