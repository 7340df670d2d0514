//! `bench_e2e`: the repo's benchmark, end to end and per layer.
//!
//! ```text
//! bench_e2e --workload W [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! bench_e2e [--seed S] [--seconds N] [--trajectory]   # full pass
//! bench_e2e --selfcheck [--seconds N]
//! bench_e2e compare <a.jsonl> <b.jsonl> [--force]
//! ```
//!
//! One workload runs in its own process, prints every metric by name with
//! its unit, checks its outputs, and ends with one JSON line: `correct`,
//! `attempted`, `failed`, `metrics`. See the README for the protocol.

mod alloc;
mod compare;
mod engine;
mod hostspeed;
mod metrics;
mod record;
mod run;
mod selfcheck;
mod sim;
mod spans;
mod stats;
mod workloads;

use metrics::Metric;
use record::{append_line, read_records, repo_root, reports_dir, Provenance, RunRecord};
use run::RunOptions;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, RUN_SECONDS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// One workload's share of a trajectory entry.
#[derive(Debug, Serialize)]
struct TrajectoryWorkload {
    workload: String,
    correct: bool,
    end_to_end: Vec<Metric>,
    /// Per-layer metrics that apply to the workload (non-zero).
    per_layer: Vec<Metric>,
}

/// One line of `bench_e2e/trajectory.jsonl`: a full pass.
#[derive(Debug, Serialize)]
struct TrajectoryEntry {
    provenance: Provenance,
    seconds: u64,
    workloads: Vec<TrajectoryWorkload>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bench_e2e [--workload {}] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]\n       \
         bench_e2e [--seed S] [--seconds N] [--trajectory]\n       \
         bench_e2e --selfcheck [--seconds N]\n       \
         bench_e2e compare <a.jsonl> <b.jsonl> [--force]",
        names.join("|")
    )
}

/// The value after `flag`, parsed.
fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

/// Runs this binary again for one workload and waits for it.
fn child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .status()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the {} run exited with {status}", workload.name()))
    }
}

/// Every workload, timed then traced, each in its own process.
fn full_pass(seed: u64, seconds: u64, trajectory: bool) -> Result<bool, String> {
    let out = reports_dir().join(format!("pass-{}.jsonl", std::process::id()));
    for workload in Workload::ALL {
        for trace in [false, true] {
            child(workload, seed, seconds, trace, &out)?;
        }
    }
    let records = read_records(&out)?;
    let all_correct = records.iter().all(|r| r.correct);
    if trajectory {
        append_trajectory(&records, seconds)?;
    }
    println!("full pass recorded in {}", out.display());
    Ok(all_correct)
}

fn append_trajectory(records: &[RunRecord], seconds: u64) -> Result<(), String> {
    let timed = |w: &str| records.iter().find(|r| r.workload == w && !r.trace);
    let traced = |w: &str| records.iter().find(|r| r.workload == w && r.trace);
    let first = records.first().ok_or("the pass recorded nothing")?;
    let entry = TrajectoryEntry {
        provenance: first.provenance.clone(),
        seconds,
        workloads: Workload::ALL
            .iter()
            .filter_map(|w| {
                let (t, l) = (timed(w.name())?, traced(w.name())?);
                Some(TrajectoryWorkload {
                    workload: w.name().into(),
                    correct: t.correct && l.correct,
                    end_to_end: t.metrics.clone(),
                    per_layer: l
                        .metrics
                        .iter()
                        .filter(|m| m.value != 0.0)
                        .cloned()
                        .collect(),
                })
            })
            .collect(),
    };
    let path = repo_root().join("bench_e2e/trajectory.jsonl");
    let line = serde_json::to_string(&entry).map_err(|e| e.to_string())?;
    append_line(&path, &line).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trajectory entry appended to {}", path.display());
    Ok(())
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(true);
    }
    if args.first().is_some_and(|a| a == "compare") {
        let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
        let [a, b] = paths[..] else {
            return Err(usage());
        };
        let force = args.iter().any(|a| a == "--force");
        return compare::compare(Path::new(a), Path::new(b), force);
    }
    let seconds: u64 = value_of(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if args.iter().any(|a| a == "--selfcheck") {
        selfcheck::selfcheck(seconds)?;
        println!("selfcheck: PASS");
        return Ok(true);
    }
    let seed: u64 = value_of(args, "--seed")?.unwrap_or(1);
    let Some(name) = value_of::<String>(args, "--workload")? else {
        return full_pass(seed, seconds, args.iter().any(|a| a == "--trajectory"));
    };
    let workload =
        Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
    let trace = match value_of::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out: PathBuf = value_of::<String>(args, "--out")?
        .map_or_else(|| reports_dir().join("runs.jsonl"), PathBuf::from);

    let record = run::run(&RunOptions::new(workload, seed, seconds, trace));
    if let Err(e) = record.append_to(&out) {
        eprintln!("warning: could not append to {}: {e}", out.display());
    }
    // The contract's line, last on standard output.
    println!("{}", record.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_e2e: {msg}");
            ExitCode::from(2)
        }
    }
}
