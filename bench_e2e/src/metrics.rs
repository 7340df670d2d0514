//! The benchmark's metric tables — the single list `BENCHMARK.json`
//! repeats (a unit test holds the two together) — and the collector that
//! turns what a run measured into that list.

use crate::stats::quantile;
use serde::{Deserialize, Serialize};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// `<crate>.<what>` (end-to-end metrics have no prefix).
    pub name: &'static str,
    /// Unit, in the contract's alphabet.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Repeats bit-for-bit for a fixed seed (a count, or a value on the
    /// simulated clock): `compare` flags any difference at all.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

/// What a user of the system sees; every workload reports all three.
pub const END_TO_END: [MetricDef; 3] = [
    timed("op_ms", "ms"),
    timed("setup_s", "s"),
    timed("peak_rss_mb", "MB"),
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced pass, prefix = crate. A metric that
/// does not apply to a workload (engine metrics on the simulator
/// workloads and the reverse) reads 0.
pub const PER_LAYER: [MetricDef; 86] = [
    // core
    timed("core.engine_build_ms", "ms"),
    timed("core.session_open_us", "us"),
    timed("core.mirror_over_session", "ratio"),
    timed("core.unattributed_share", "share"),
    // runtime, engine side
    timed("runtime.prefill_ms", "ms"),
    timed("runtime.step_us_p50", "us"),
    timed("runtime.step_us_p95", "us"),
    timed("runtime.step_us_p99", "us"),
    timed("runtime.step_us_first_quarter_p50", "us"),
    timed("runtime.step_us_last_quarter_p50", "us"),
    timed("runtime.glue_us_p50", "us"),
    exact("runtime.allocs_per_step", "count", Lower),
    exact("runtime.alloc_kb_per_step", "KB", Lower),
    // runtime, simulator side
    timed("runtime.scheduler_run_us_per_req", "us"),
    MetricDef {
        name: "runtime.step_cache_speedup",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    // retrieval
    timed("retrieval.select_us_p50", "us"),
    timed("retrieval.select_us_p95", "us"),
    timed("retrieval.select_ns_per_pos", "ns"),
    timed("retrieval.observe_us_p50", "us"),
    timed("retrieval.prompt_observe_ms", "ms"),
    exact("retrieval.selected_positions_mean", "count", Lower),
    exact("retrieval.overlap_rate_mean", "share", Higher),
    exact("retrieval.token_match_rate", "share", Higher),
    timed("retrieval.dense.preprocess_ms", "ms"),
    timed("retrieval.dense.step_us_p50", "us"),
    exact("retrieval.dense.token_match_rate", "share", Higher),
    timed("retrieval.streaming.preprocess_ms", "ms"),
    timed("retrieval.streaming.step_us_p50", "us"),
    exact("retrieval.streaming.token_match_rate", "share", Higher),
    timed("retrieval.quest.preprocess_ms", "ms"),
    timed("retrieval.quest.step_us_p50", "us"),
    exact("retrieval.quest.token_match_rate", "share", Higher),
    timed("retrieval.clusterkv.preprocess_ms", "ms"),
    timed("retrieval.clusterkv.step_us_p50", "us"),
    exact("retrieval.clusterkv.token_match_rate", "share", Higher),
    timed("retrieval.shadowkv.preprocess_ms", "ms"),
    timed("retrieval.shadowkv.step_us_p50", "us"),
    exact("retrieval.shadowkv.token_match_rate", "share", Higher),
    timed("retrieval.infinigen.preprocess_ms", "ms"),
    timed("retrieval.infinigen.step_us_p50", "us"),
    exact("retrieval.infinigen.token_match_rate", "share", Higher),
    // kvcache
    timed("kvcache.elastic_step_us_p50", "us"),
    timed("kvcache.elastic_step_us_p95", "us"),
    exact("kvcache.fetched_entries", "count", Lower),
    exact("kvcache.reused_entries", "count", Higher),
    exact("kvcache.reuse_fraction", "share", Higher),
    exact("kvcache.fetched_mb_computed", "MB", Lower),
    // model
    timed("model.prefill_ms", "ms"),
    timed("model.forward_us_p50", "us"),
    timed("model.forward_us_p95", "us"),
    timed("model.embed_us_p50", "us"),
    // tensor
    timed("tensor.matmul_prefill_ms", "ms"),
    timed("tensor.top_k_us", "us"),
    timed("tensor.vecmat_us", "us"),
    // parallel
    timed("parallel.t2_over_t1", "ratio"),
    // hwsim
    timed("hwsim.step_time_uncached_us", "us"),
    // serve
    timed("serve.host_us_per_req", "us"),
    timed("serve.host_us_per_event", "us"),
    exact("serve.events_total", "count", Lower),
    timed("serve.route_ns_per_call", "ns"),
    timed("serve.trace_decode_us_per_req", "us"),
    timed("serve.cluster_build_ms", "ms"),
    timed("serve.arrival_gen_us_per_req", "us"),
    exact("serve.allocs_per_req", "count", Lower),
    exact("serve.completed", "count", Higher),
    exact("serve.rejected", "count", Lower),
    exact("serve.dead_lettered", "count", Lower),
    exact("serve.shed", "count", Lower),
    exact("serve.retries", "count", Lower),
    exact("serve.crashes", "count", Lower),
    exact("serve.preemptions", "count", Lower),
    exact("serve.handoffs", "count", Lower),
    exact("serve.handoff_gb_computed", "GB", Lower),
    exact("serve.makespan_sim_s", "s", Lower),
    exact("serve.goodput_sim_rps", "1/s", Higher),
    exact("serve.ttft_p95_sim_s", "s", Lower),
    exact("serve.slo_attainment_sim", "share", Higher),
    // telemetry
    timed("telemetry.traced_over_untraced", "ratio"),
    timed("telemetry.perfetto_export_ms", "ms"),
    timed("telemetry.histogram_fold_ms", "ms"),
    // workloads
    timed("workloads.prompt_gen_ms", "ms"),
    // host: the harness's own diagnostics
    timed("host.op_ms_p50", "ms"),
    timed("host.op_ms_max", "ms"),
    timed("host.op_spread", "share"),
    timed("host.drift_share", "share"),
    timed("host.tracing_overhead", "ratio"),
];

/// Diagnostics only a timed run has (printed and logged, outside the
/// contract's metric lists).
pub const TIMED_DIAGNOSTICS: [MetricDef; 2] = [
    timed("host.speed_index", "ratio"),
    timed("host.op_ms_raw_p10", "ms"),
];

/// Looks a declared metric up by name.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&TIMED_DIAGNOSTICS)
        .find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// As measured, all digits.
    pub value: f64,
    /// Declared unit.
    pub unit: String,
}

/// Collects values by name during a run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared or is recorded twice — both are
    /// harness bugs.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(def(name).is_some(), "metric `{name}` is not declared");
        assert!(
            !self.values.iter().any(|(n, _)| n == name),
            "metric `{name}` recorded twice"
        );
        self.values.push((name.to_string(), value));
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// `host.*`: how the host treated a set of identical ops, from their
    /// raw wall times.
    pub fn put_host_diagnostics(&mut self, op_ms: &[f64]) {
        let p10 = quantile(op_ms, 0.10);
        let p50 = quantile(op_ms, 0.50);
        let (a, b) = op_ms.split_at(op_ms.len() / 2);
        let drift = if a.is_empty() {
            0.0
        } else {
            (quantile(a, 0.10) - quantile(b, 0.10)).abs() / p10
        };
        self.put("host.op_ms_p50", p50);
        self.put("host.op_ms_max", quantile(op_ms, 1.0));
        self.put("host.op_spread", (p50 - p10) / p10);
        self.put("host.drift_share", drift);
    }

    /// What was recorded, in recording order.
    pub fn recorded(&self) -> Vec<Metric> {
        self.values
            .iter()
            .map(|(name, value)| Metric {
                name: name.clone(),
                value: *value,
                unit: def(name).expect("checked by put").unit.to_string(),
            })
            .collect()
    }

    /// Every metric of `table` in table order; one the run did not record
    /// (it does not apply to the workload) reads 0.
    pub fn finish(&self, table: &[MetricDef]) -> Vec<Metric> {
        table
            .iter()
            .map(|d| Metric {
                name: d.name.to_string(),
                value: self.get(d.name).unwrap_or(0.0),
                unit: d.unit.to_string(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::repo_root;
    use crate::workloads::{Workload, RUN_SECONDS};
    use serde::Value;

    fn text(v: &Value, field: &str) -> String {
        match v.get_field(field) {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("`{field}` is not a string: {other:?}"),
        }
    }

    fn list(v: &Value, field: &str) -> Vec<Value> {
        match v.get_field(field) {
            Ok(Value::Seq(items)) => items.clone(),
            other => panic!("`{field}` is not a list: {other:?}"),
        }
    }

    /// `BENCHMARK.json` repeats these tables; the pipeline reads the file,
    /// the harness the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let raw = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc: Value = serde_json::from_str(&raw).unwrap();

        let command: Vec<String> = list(&doc, "command")
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => panic!("command word {other:?}"),
            })
            .collect();
        assert_eq!(command[0], "cargo");
        assert!(command.contains(&"bench_e2e/Cargo.toml".to_string()));
        assert_eq!(command.last().map(String::as_str), Some("--"));
        assert_eq!(list(&doc, "paths"), vec![Value::Str("bench_e2e".into())]);
        assert_eq!(
            doc.get_field("run_seconds").unwrap(),
            &Value::Int(RUN_SECONDS as i64)
        );

        let workloads = list(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, entry) in Workload::ALL.iter().zip(&workloads) {
            assert_eq!(text(entry, "name"), w.name());
            let why = text(entry, "why");
            assert!(
                why.contains(&format!("N={} ", w.ops())),
                "{}: `{why}`",
                w.name()
            );
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        let check = |field: &str, table: &[MetricDef], bounded: bool| {
            let entries = list(&doc, field);
            assert_eq!(entries.len(), table.len(), "{field}");
            for (d, entry) in table.iter().zip(&entries) {
                assert_eq!(text(entry, "name"), d.name);
                assert_eq!(text(entry, "unit"), d.unit, "{}", d.name);
                let better = match d.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(text(entry, "better"), better, "{}", d.name);
                assert!(d.name.len() <= 64 && d.unit.len() <= 16);
                if bounded {
                    let Ok(Value::Float(bound)) = entry.get_field("bound") else {
                        panic!("{} has no bound", d.name)
                    };
                    assert!(*bound >= 0.03 && *bound <= 0.25, "{}: {bound}", d.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
    }

    #[test]
    fn collector_orders_by_table_and_fills_what_does_not_apply() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5);
        m.put("op_ms", 12.0);
        let out = m.finish(&END_TO_END);
        let names: Vec<&str> = out.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["op_ms", "setup_s", "peak_rss_mb"]);
        assert_eq!((out[0].value, out[2].value), (12.0, 0.0));
        assert_eq!(m.recorded()[0].name, "setup_s");
        // Names are unique across both tables.
        for (i, d) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[i + 1..].iter().all(|e| e.name != d.name),
                "{}",
                d.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_a_bug() {
        Metrics::default().put("made.up", 1.0);
    }
}
