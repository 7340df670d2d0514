//! The four workloads and the interface the run protocol drives them
//! through.

use crate::metrics::Metrics;
use crate::spans::Tracer;
use std::time::Duration;

/// `run_seconds` of `BENCHMARK.json`: the length of run each workload's
/// op count is sized for on the machine of the README's noise study.
pub const RUN_SECONDS: u64 = 20;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 shape [2k in, 16k out] at 1/8 scale: long-output reasoning.
    Reason2k16k,
    /// [32k in, 2k out] at 1/8 scale: long prompt, deep-context decode.
    Prompt32k2k,
    /// The committed trace through the fault-free open loop.
    SimOpen,
    /// The committed trace through the faulted loop on a split fleet.
    SimChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Reason2k16k,
        Workload::Prompt32k2k,
        Workload::SimOpen,
        Workload::SimChaos,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reason2k16k => "reason_2k_16k",
            Workload::Prompt32k2k => "prompt_32k_2k",
            Workload::SimOpen => "sim_open",
            Workload::SimChaos => "sim_chaos",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Identical timed ops in a run of [`RUN_SECONDS`]: a fixed count, so
    /// both sides of a comparison get the same sample and the spread
    /// between ops is the host's. The issue's 30-40 s sizing (28 / 48 /
    /// 36 / 36) cut uniformly to the floor of 16 so that the pipeline's 92
    /// runs and two builds fit its cap; op sizes are unchanged.
    pub fn ops(self) -> usize {
        match self {
            Workload::Reason2k16k => 16,
            Workload::Prompt32k2k => 28,
            Workload::SimOpen | Workload::SimChaos => 21,
        }
    }

    /// Timed ops for a run of `seconds`: [`ops`](Self::ops) scaled, never
    /// under 3 (shorter runs are smoke tests and the self-check, not
    /// measurements).
    pub fn ops_for(self, seconds: u64) -> usize {
        let scaled = (self.ops() as u64 * seconds).div_ceil(RUN_SECONDS) as usize;
        scaled.max(3)
    }

    /// Cold set-ups timed together as one `setup_s` sample, so that a
    /// sample lasts milliseconds: an engine set-up takes 11 ms, a
    /// simulator's 0.1 ms.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::Reason2k16k | Workload::Prompt32k2k => 1,
            Workload::SimOpen | Workload::SimChaos => 64,
        }
    }

    /// `setup_s` samples in a run of [`RUN_SECONDS`], each of
    /// [`setup_batch`](Self::setup_batch) set-ups: about 3 s of them for
    /// the engine workloads, 2 s for the simulator's.
    pub fn setup_samples(self) -> usize {
        match self {
            Workload::Reason2k16k | Workload::Prompt32k2k => 256,
            Workload::SimOpen | Workload::SimChaos => 320,
        }
    }

    /// `setup_s` samples for a run of `seconds`: scaled, never under 24.
    pub fn setup_samples_for(self, seconds: u64) -> usize {
        let scaled = (self.setup_samples() as u64 * seconds).div_ceil(RUN_SECONDS) as usize;
        scaled.max(24)
    }
}

/// One op's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the op alone (inputs are rebuilt outside it).
    pub wall: Duration,
    /// Fingerprint of the op's output (token vector / report); an op whose
    /// fingerprint differs from the first op's has failed.
    pub fingerprint: u64,
}

/// What a traced pass found besides its metrics.
#[derive(Debug, Default)]
pub struct TraceOutcome {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output differed from the reference.
    pub failed: u64,
    /// Failed checks, in words.
    pub problems: Vec<String>,
}

/// A workload as the run protocol sees it. Everything is measured from
/// outside, by timing calls into the crates' public functions.
pub trait Bench {
    /// Cold set-up: rebuilds everything that exists before the first op
    /// (weights, distilled head, prompt / trace, cluster), dropping what
    /// the previous call built.
    fn setup(&mut self);

    /// One op: one request served, or one trace replayed.
    fn op(&mut self) -> Op;

    /// Output checks run once after the timed ops (quality floor,
    /// conservation); returns the failed ones in words, and records what
    /// it measured in `diagnostics`.
    fn check(&mut self, diagnostics: &mut Metrics) -> Vec<String>;

    /// The traced pass: a few ops with a span round each layer call, plus
    /// the layers called on their own at the workload's shapes.
    fn traced_pass(&mut self, metrics: &mut Metrics, tracer: &mut Tracer) -> TraceOutcome;
}

/// Largest share of a traced op's wall that may lie outside every named
/// span; above it the per-layer attribution is invalid.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// The failed check, in words, if the traced pass's
/// `core.unattributed_share` is over [`MAX_UNATTRIBUTED`].
pub fn unattributed_problem(metrics: &Metrics) -> Option<String> {
    let share = metrics
        .get("core.unattributed_share")
        .expect("every traced pass records it");
    (share > MAX_UNATTRIBUTED).then(|| {
        format!(
            "{share:.3} of a traced op lies outside every named span (at most {MAX_UNATTRIBUTED})"
        )
    })
}

/// FNV-1a over words: the output fingerprint.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_scale_with_seconds_and_keep_the_floor() {
        for w in Workload::ALL {
            assert_eq!(w.ops_for(RUN_SECONDS), w.ops());
            assert!(w.ops() >= 16, "{}: under the floor", w.name());
            assert!(w.ops_for(1) >= 3);
            assert_eq!(w.setup_samples_for(RUN_SECONDS), w.setup_samples());
            assert!(w.setup_samples_for(1) >= 24);
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::Prompt32k2k.ops_for(5), 7);
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fingerprint_separates_orders() {
        assert_ne!(fingerprint([1, 2]), fingerprint([2, 1]));
        assert_eq!(fingerprint([1, 2]), fingerprint([1, 2]));
    }
}
