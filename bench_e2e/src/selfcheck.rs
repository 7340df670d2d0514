//! `bench_e2e --selfcheck`: proves the gate can fire, after
//! `replay_gate`'s precedent — a gate that has only ever passed has not
//! been shown to work.

use crate::compare::{end_to_end_rows, load_bounds, Verdict};
use crate::record::RunRecord;
use crate::run::{run, RunOptions};
use crate::workloads::Workload;

/// The workload the self-check drives: an engine workload (the quality
/// floor needs one), and the one with the shortest op.
const WORKLOAD: Workload = Workload::Prompt32k2k;

/// Runs in each set.
const SET: usize = 3;

fn op_verdict(
    a: &[RunRecord],
    b: &[RunRecord],
    bounds: &[(String, f64)],
) -> Result<Verdict, String> {
    end_to_end_rows(a, b, bounds)
        .iter()
        .find(|r| r.metric == "op_ms")
        .map(|r| {
            println!(
                "  op_ms base {:.3} change {:.3} ratio {:.4} spread {:.4} bound {:.3}",
                r.base, r.change, r.ratio, r.spread, r.bound
            );
            r.verdict
        })
        .ok_or_else(|| "no op_ms row".to_string())
}

/// Three checks, each of which must come out as stated; `Err` says which
/// did not.
pub fn selfcheck(seconds: u64) -> Result<(), String> {
    let bounds = load_bounds()?;
    let bound = bounds
        .iter()
        .find(|(n, _)| n == "op_ms")
        .map(|(_, b)| *b)
        .ok_or("BENCHMARK.json has no op_ms bound")?;
    let mut opts = RunOptions::new(WORKLOAD, 1, seconds, false);
    opts.verbose = false;

    // Two sets of the same code, alternating, and a third with twice the
    // bound busy-waited on top of every op inside the op wrapper.
    let mut slow = opts.clone();
    slow.slowdown = 2.0 * bound;
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SET {
        println!("selfcheck: pass {} of {SET} (A, B, slowed)", i + 1);
        a.push(run(&opts));
        b.push(run(&opts));
        c.push(run(&slow));
    }
    if let Some(bad) = a.iter().chain(&b).chain(&c).find(|r| !r.correct) {
        return Err(format!(
            "a plain run is marked incorrect: {:?}",
            bad.problems
        ));
    }

    println!("selfcheck 1/3: A/A must not be rejected");
    if op_verdict(&a, &b, &bounds)? == Verdict::Worse {
        return Err("A/A comparison of the same code was rejected".into());
    }
    println!(
        "selfcheck 2/3: a {:.0} % slowdown must be rejected",
        200.0 * bound
    );
    if op_verdict(&a, &c, &bounds)? != Verdict::Worse {
        return Err("an injected slowdown of twice the bound passed the gate".into());
    }

    println!("selfcheck 3/3: budget 8 must fall under the token-match floor");
    let mut starved = opts.clone();
    starved.budget = 8;
    let record = run(&starved);
    println!("  problems: {:?}", record.problems);
    if record.correct
        || !record
            .problems
            .iter()
            .any(|p| p.contains("token_match_rate"))
    {
        return Err("a budget of 8 was not marked incorrect".into());
    }
    Ok(())
}
