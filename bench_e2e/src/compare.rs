//! `bench_e2e compare <a.jsonl> <b.jsonl>`: the regression gate over two
//! recorded run sets, with the bounds `BENCHMARK.json` fixes.

use crate::metrics::{def, Better, END_TO_END};
use crate::record::{read_records, repo_root, RunRecord};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::path::Path;

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn load_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Seq(entries) = doc.get_field("end_to_end").map_err(|e| e.to_string())? else {
        return Err("BENCHMARK.json: end_to_end is not a list".into());
    };
    entries
        .iter()
        .map(|e| {
            let name = match e.get_field("name") {
                Ok(Value::Str(s)) => s.clone(),
                _ => return Err("BENCHMARK.json: end_to_end entry without a name".to_string()),
            };
            let bound = match e.get_field("bound") {
                Ok(Value::Float(f)) => *f,
                Ok(Value::Int(i)) => *i as f64,
                _ => return Err(format!("BENCHMARK.json: `{name}` has no bound")),
            };
            Ok((name, bound))
        })
        .collect()
}

/// Outcome of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the base's by more than the
    /// bound, and both sets are tighter than the bound.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Not worse by more than the bound, but a set's own spread is wider
    /// than the bound: unresolved, not unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Median of the base set.
    pub base: f64,
    /// Median of the change set.
    pub change: f64,
    /// `change / base`.
    pub ratio: f64,
    /// Widest quartile spread of the two sets, as a share of the median.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric: medians per run set against `bound`.
pub fn judge(base: &[f64], change: &[f64], bound: f64, better: Better) -> (f64, f64, f64, Verdict) {
    let (b, c) = (median(base), median(change));
    let spread = quartile_spread(base).max(quartile_spread(change));
    let worse_by = match better {
        Better::Lower => c / b - 1.0,
        Better::Higher => b / c - 1.0,
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (b, c, spread, verdict)
}

fn values(records: &[RunRecord], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn workloads_of(records: &[RunRecord]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in records {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// One row per workload × end-to-end metric present in both sets.
pub fn end_to_end_rows(a: &[RunRecord], b: &[RunRecord], bounds: &[(String, f64)]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workloads_of(a) {
        for d in &END_TO_END {
            let (base, change) = (
                values(a, &workload, false, d.name),
                values(b, &workload, false, d.name),
            );
            let bound = bounds.iter().find(|(n, _)| n == d.name).map(|(_, b)| *b);
            let (Some(bound), false, false) = (bound, base.is_empty(), change.is_empty()) else {
                continue;
            };
            let (bm, cm, spread, verdict) = judge(&base, &change, bound, d.better);
            rows.push(Row {
                workload: workload.clone(),
                metric: d.name.to_string(),
                base: bm,
                change: cm,
                ratio: cm / bm,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Checks that the two sets may be compared at all.
pub fn check_provenance(a: &[RunRecord], b: &[RunRecord]) -> Result<(), String> {
    let first = &a.first().ok_or("the base set is empty")?.provenance;
    if b.is_empty() {
        return Err("the change set is empty".into());
    }
    a.iter()
        .chain(b)
        .try_for_each(|r| first.comparable(&r.provenance))
}

/// Prints the comparison; `Ok(true)` when no row is `worse` and no run
/// was incorrect.
pub fn compare(a_path: &Path, b_path: &Path, force: bool) -> Result<bool, String> {
    let (a, b) = (read_records(a_path)?, read_records(b_path)?);
    if let Err(why) = check_provenance(&a, &b) {
        if !force {
            return Err(format!(
                "refusing to compare numbers from different machines ({why}); pass --force to override"
            ));
        }
        println!("warning: {why} (forced)");
    }
    let bounds = load_bounds()?;
    let rows = end_to_end_rows(&a, &b, &bounds);
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "change", "ratio", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<12} {:>14.6} {:>14.6} {:>7.4} {:>7.4} {:>6.3}  {}",
            r.workload,
            r.metric,
            r.base,
            r.change,
            r.ratio,
            r.spread,
            r.bound,
            r.verdict.as_str()
        );
    }
    let incorrect = a.iter().chain(&b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        println!("{incorrect} runs are marked incorrect");
    }

    // Per-layer deltas beneath, from the traced passes of both sets.
    for workload in workloads_of(&a) {
        let names: Vec<String> = a
            .iter()
            .find(|r| r.workload == workload && r.trace)
            .map(|r| r.metrics.iter().map(|m| m.name.clone()).collect())
            .unwrap_or_default();
        let mut printed = false;
        for name in names {
            let (base, change) = (
                values(&a, &workload, true, &name),
                values(&b, &workload, true, &name),
            );
            if base.is_empty() || change.is_empty() {
                continue;
            }
            let (bm, cm) = (median(&base), median(&change));
            if bm == 0.0 && cm == 0.0 {
                continue;
            }
            if !printed {
                println!("\nper layer, {workload} (medians of traced passes):");
                printed = true;
            }
            let exact = def(&name).is_some_and(|d| d.exact);
            // Exact values repeat for a fixed seed, so two sets over the
            // same seeds hold the same values, in whatever order.
            let differs = sorted(&base) != sorted(&change);
            let flag = match (exact, differs) {
                (true, true) => "  EXACT VALUE DIFFERS",
                (true, false) => "  exact",
                _ => "",
            };
            println!(
                "  {name:<40} {bm:>14.4} {cm:>14.4} {:>+8.2}%{flag}",
                (cm / bm - 1.0) * 100.0
            );
        }
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse) && incorrect == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sample_record;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0];
        // 2 % slower, tight sets: within an 8 % bound.
        assert_eq!(
            judge(&base, &[102.0, 103.0, 101.5], 0.08, Better::Lower).3,
            Verdict::Within
        );
        // 16 % slower: worse.
        assert_eq!(
            judge(&base, &[116.0, 117.0, 115.0], 0.08, Better::Lower).3,
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0], 0.08, Better::Lower).3,
            Verdict::Within
        );
        // Same medians but one set spreads 20 %: unresolved, not unchanged.
        assert_eq!(
            judge(&base, &[90.0, 100.0, 110.0], 0.08, Better::Lower).3,
            Verdict::Unresolved
        );
        // Direction matters.
        assert_eq!(
            judge(&base, &[80.0, 81.0, 79.0], 0.08, Better::Higher).3,
            Verdict::Worse
        );
    }

    #[test]
    fn rows_pair_workloads_and_metrics() {
        let a = vec![
            sample_record("sim_open", 800.0),
            sample_record("sim_open", 804.0),
        ];
        let b = vec![
            sample_record("sim_open", 1000.0),
            sample_record("sim_open", 1010.0),
        ];
        let bounds = vec![("op_ms".to_string(), 0.08), ("setup_s".to_string(), 0.10)];
        let rows = end_to_end_rows(&a, &b, &bounds);
        // peak_rss_mb has no bound in this table, so no row.
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("op_ms", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("setup_s", Verdict::Within)
        );
        assert!((rows[0].ratio - 1005.0 / 802.0).abs() < 1e-12);
    }

    #[test]
    fn other_machines_are_refused() {
        let a = vec![sample_record("sim_open", 800.0)];
        let mut other = sample_record("sim_open", 800.0);
        other.provenance.cpu_model = "Another CPU".into();
        assert!(check_provenance(&a, &a).is_ok());
        assert!(check_provenance(&a, &[other]).is_err());
        assert!(check_provenance(&a, &[]).is_err());
    }
}
