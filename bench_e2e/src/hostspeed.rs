//! The host-speed calibrator: a fixed kernel timed before every op, so
//! that a run made while the host is slow can be told from a slow program.
//!
//! The noise study (README) found that this VM has phases lasting half a
//! minute to several minutes in which *everything* runs 10-60 % slower —
//! other tenants of the host, not the program — and that over a run the
//! 10th percentile of op times follows the 10th percentile of a
//! memory-latency kernel (correlation 0.87-0.90 over 20-op windows). In
//! the committed A/A table — two sets of ten runs per workload — the
//! quartile spread of p10 over the speed index was the tighter in 7 of 8
//! cells, typically 0.55-0.8 of the raw p10's. Dependent loads through
//! memory tracked as well as any of the kernels tried (streaming sum,
//! matmul, multiply chain, heap churn, allocation churn) and better than
//! most; none sees every phase — a busy sibling hyperthread barely slows
//! a load that waits on memory — so the index narrows the spread between
//! runs, it does not remove it.
//!
//! The kernel is self-contained — no call into the crates under test — so
//! a change to the repository cannot move it.

use std::time::Instant;

/// Entries of the table the walk loads from: 64 MiB of `u32`, far past the
/// last-level cache, so every load is a miss wherever the pages landed (a
/// 4 MiB table's time depended on the process's page placement). A power
/// of two.
const ENTRIES: usize = 1 << 24;

/// Dependent loads a sample times (~30 ms).
const LOADS: usize = 200_000;

/// About the fastest a sample gets on the noise study's machine: the
/// speed index is a sample's time over this (1.15-1.3 there in practice),
/// so a normalized metric reads near what its raw value would on that
/// machine at its quietest. Only a scale: comparisons across machines are
/// refused anyway.
pub const REFERENCE_MS: f64 = 25.0;

/// Resident memory the calibrator adds to the process, MB; taken off
/// `peak_rss_mb`.
pub const RESIDENT_MB: f64 = (ENTRIES * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0);

/// Multiplier and increment of the walk: a full-period congruential
/// generator modulo [`ENTRIES`] (increment odd, multiplier ≡ 1 mod 4), so
/// a walk visits every entry once before it repeats.
const MULTIPLIER: u32 = 1_664_525;
const INCREMENT: u32 = 1_013_904_223;

/// The calibrator.
pub struct HostSpeed {
    /// Every entry holds [`INCREMENT`]; the walk's next index needs the
    /// loaded value, so each load depends on the one before, and the
    /// indices jump pseudo-randomly through the whole table.
    table: Vec<u32>,
    cursor: u32,
}

impl HostSpeed {
    /// Builds the table (writing, and so touching, every page of it).
    pub fn new() -> Self {
        Self {
            table: vec![INCREMENT; ENTRIES],
            cursor: 0,
        }
    }

    fn next(&self, at: u32) -> u32 {
        (at.wrapping_mul(MULTIPLIER)).wrapping_add(self.table[at as usize]) & (ENTRIES as u32 - 1)
    }

    /// Times [`LOADS`] dependent loads, ms.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.cursor;
        for _ in 0..LOADS {
            at = self.next(at);
        }
        self.cursor = std::hint::black_box(at);
        crate::stats::ms(start.elapsed())
    }
}

/// The speed index of a run: its calibration samples' 10th percentile
/// over [`REFERENCE_MS`]; above 1 the host was slower than the reference.
pub fn speed_index(samples_ms: &[f64]) -> f64 {
    crate::stats::quantile(samples_ms, 0.10) / REFERENCE_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_one_cycle_and_samples_take_time() {
        let mut h = HostSpeed::new();
        // One cycle: the walk from 0 returns to 0 only after visiting
        // every entry.
        let mut at = 0u32;
        let mut lap = 0usize;
        loop {
            at = h.next(at);
            lap += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(lap, ENTRIES);
        assert!(h.sample() > 0.0);
        assert_ne!(h.cursor, 0);
        assert!((speed_index(&[REFERENCE_MS, 2.0 * REFERENCE_MS]) - 1.0).abs() < 1e-12);
        assert_eq!(RESIDENT_MB, 64.0);
    }
}
