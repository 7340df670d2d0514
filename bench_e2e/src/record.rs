//! Run records: what one run measured plus where and on what it ran, the
//! contract's result line, and the `runs.jsonl` log `compare` reads.

use crate::metrics::Metric;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bumped when a metric's definition changes, so `compare` never mixes
/// the two.
pub const HARNESS_VERSION: u32 = 1;

/// Where a number came from. Numbers from different machines are never
/// silently compared: `compare` refuses records whose CPU or SIMD tier
/// differ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Commit of the checkout (`unknown` outside a git repository).
    pub git_sha: String,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads the crates were allowed (always pinned by the
    /// harness, never inherited).
    pub spec_threads: usize,
    /// `spec_tensor::dispatch::active_tier()`.
    pub simd_tier: String,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// `vendor_id/cpu family/model` — the microarchitecture key.
    pub cpu_id: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Timed ops the run was sized for.
    pub ops: usize,
    /// [`HARNESS_VERSION`].
    pub harness_version: u32,
}

/// The repository root: the working directory when it holds the crates
/// (the pipeline runs from the root of a checkout), else the directory
/// above this package.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() && cwd.join("bench_e2e").is_dir() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Where reports go: ignored by git, inside the checkout.
pub fn reports_dir() -> PathBuf {
    repo_root().join("bench_e2e/target/reports")
}

/// `HEAD`'s commit, read from `.git` directly (no process is started).
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpuinfo_field(info: &str, key: &str) -> String {
    info.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Provenance {
    /// Detects the machine and checkout; `threads` is what the harness
    /// pinned.
    pub fn detect(seed: u64, threads: usize, ops: usize) -> Self {
        let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Self {
            git_sha: git_sha(&repo_root()),
            seed,
            spec_threads: threads,
            simd_tier: spec_tensor::dispatch::active_tier().name().to_string(),
            cpu_model: cpuinfo_field(&info, "model name"),
            cpu_id: format!(
                "{}/{}/{}",
                cpuinfo_field(&info, "vendor_id"),
                cpuinfo_field(&info, "cpu family"),
                cpuinfo_field(&info, "model")
            ),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            ops,
            harness_version: HARNESS_VERSION,
        }
    }

    /// Whether numbers of `self` and `other` may be compared.
    pub fn comparable(&self, other: &Provenance) -> Result<(), String> {
        let pairs = [
            ("cpu", &self.cpu_id, &other.cpu_id),
            ("cpu model", &self.cpu_model, &other.cpu_model),
            ("simd tier", &self.simd_tier, &other.simd_tier),
        ];
        for (what, a, b) in pairs {
            if a != b {
                return Err(format!("{what} differs: `{a}` vs `{b}`"));
            }
        }
        if self.harness_version != other.harness_version {
            return Err(format!(
                "harness version differs: {} vs {}",
                self.harness_version, other.harness_version
            ));
        }
        Ok(())
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Traced pass (per-layer metrics) or timed run (end-to-end).
    pub trace: bool,
    /// Where it ran.
    pub provenance: Provenance,
    /// Every output check passed.
    pub correct: bool,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output differed from the first op's.
    pub failed: u64,
    /// The contract's metrics: end-to-end for a timed run, per-layer for a
    /// traced pass.
    pub metrics: Vec<Metric>,
    /// `host.*` diagnostics of a timed run (the traced pass carries them
    /// in `metrics`).
    pub diagnostics: Vec<Metric>,
    /// Why `correct` is false, one entry per failed check.
    pub problems: Vec<String>,
}

impl RunRecord {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` as `{name: {value, unit}}`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value always serializes")
    }

    /// Appends the record as one line to `path`.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        append_line(
            path,
            &serde_json::to_string(self).expect("a record always serializes"),
        )
    }
}

/// Appends `line` to the JSON-lines file `path`, creating it and its
/// directory as needed.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// Reads a `runs.jsonl` file.
pub fn read_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
pub(crate) fn sample_record(workload: &str, op_ms: f64) -> RunRecord {
    let metric = |name: &str, value: f64, unit: &str| Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    };
    RunRecord {
        workload: workload.into(),
        trace: false,
        provenance: Provenance {
            git_sha: "abc".into(),
            seed: 7,
            spec_threads: 1,
            simd_tier: "avx2".into(),
            cpu_model: "Test CPU".into(),
            cpu_id: "GenuineTest/6/85".into(),
            nproc: 2,
            ops: 16,
            harness_version: HARNESS_VERSION,
        },
        correct: true,
        attempted: 16,
        failed: 0,
        metrics: vec![
            metric("op_ms", op_ms, "ms"),
            metric("setup_s", 0.0125, "s"),
            metric("peak_rss_mb", 41.5, "MB"),
        ],
        diagnostics: vec![metric("host.op_spread", 0.04, "share")],
        problems: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rec = sample_record("sim_open", 812.345678901);
        let v: Value = serde_json::from_str(&rec.result_line()).unwrap();
        let Value::Map(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get_field("correct").unwrap(), &Value::Bool(true));
        assert_eq!(v.get_field("attempted").unwrap(), &Value::Int(16));
        let op = v.get_field("metrics").unwrap().get_field("op_ms").unwrap();
        // All digits survive the trip.
        assert_eq!(op.get_field("value").unwrap(), &Value::Float(812.345678901));
        assert_eq!(op.get_field("unit").unwrap(), &Value::Str("ms".into()));
        assert!(!rec.result_line().contains('\n'));
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let dir = reports_dir().join(format!("test_round_trip_{}", std::process::id()));
        let path = dir.join("runs.jsonl");
        let a = sample_record("sim_open", 800.5);
        let mut b = sample_record("sim_chaos", 650.25);
        b.correct = false;
        b.problems.push("no crash happened".into());
        a.append_to(&path).unwrap();
        b.append_to(&path).unwrap();
        assert_eq!(read_records(&path).unwrap(), vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn provenance_refuses_other_machines() {
        let a = sample_record("w", 1.0).provenance;
        let mut b = a.clone();
        assert!(a.comparable(&b).is_ok());
        b.simd_tier = "scalar".into();
        assert!(a.comparable(&b).unwrap_err().contains("simd tier"));
        let mut c = a.clone();
        c.cpu_id = "Other/1/2".into();
        assert!(a.comparable(&c).is_err());
    }
}
