//! Streaming log-bucketed histogram (HDR-style): bounded relative error,
//! constant-time record, mergeable across shards, serde-serializable —
//! percentiles without materializing every sample.
//!
//! Values are nonnegative integers (telemetry uses ticks). Layout: the
//! first `2^sub_bits` buckets are exact (width 1); above that, each
//! octave `[2^m, 2^(m+1))` splits into `2^sub_bits` linear sub-buckets,
//! so a bucket's width is at most `lower_bound / 2^sub_bits` and any
//! recorded value is off from its bucket midpoint by at most half that.

use crate::event::{ticks_to_seconds, Event, EventKind, Tick};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default sub-bucket resolution: 2^5 = 32 sub-buckets per octave,
/// ≤ ~3.1% bucket width (≤ ~1.6% midpoint error).
pub const DEFAULT_SUB_BITS: u32 = 5;

/// The log-linear histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// log2 of the sub-buckets per octave; fixed at construction and
    /// required to match for [`LogHistogram::merge`] and
    /// [`LogHistogram::max_cdf_deviation`].
    sub_bits: u32,
    /// Dense bucket counts, grown on demand.
    counts: Vec<u64>,
    /// Total recorded values.
    total: u64,
    /// Sum of recorded values (for the mean; f64 so huge tick sums
    /// cannot overflow).
    sum: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new(DEFAULT_SUB_BITS)
    }
}

impl LogHistogram {
    /// An empty histogram with `2^sub_bits` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 16`.
    pub fn new(sub_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits must be in 1..=16, got {sub_bits}"
        );
        Self {
            sub_bits,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
        }
    }

    /// Worst-case relative half-width of any bucket: the bound on how
    /// far a reported percentile can sit from the exact sample value.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bits) as f64
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The bucket index `value` falls into.
    fn bucket_index(&self, value: u64) -> usize {
        let k = self.sub_bits;
        let sub_count = 1u64 << k;
        if value < sub_count {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64; // >= k
        let octave = msb - k as u64 + 1;
        let mantissa = value >> (msb - k as u64); // in [2^k, 2^(k+1))
        (octave * sub_count + (mantissa - sub_count)) as usize
    }

    /// The inclusive `[lo, hi]` value range of bucket `index`.
    fn bucket_bounds(&self, index: usize) -> (u64, u64) {
        let k = self.sub_bits;
        let sub_count = 1usize << k;
        if index < sub_count {
            return (index as u64, index as u64);
        }
        let octave = (index / sub_count) as u64; // >= 1
        let sub = (index % sub_count) as u64;
        let lo = (sub_count as u64 + sub) << (octave - 1);
        let width = 1u64 << (octave - 1);
        (lo, lo + width - 1)
    }

    /// Bucket `index`'s representative value (the midpoint).
    fn bucket_mid(&self, index: usize) -> u64 {
        let (lo, hi) = self.bucket_bounds(index);
        lo + (hi - lo) / 2
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let index = self.bucket_index(value);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += n;
        self.total += n;
        self.sum += value as f64 * n as f64;
    }

    /// Folds another shard's counts into this one.
    ///
    /// # Panics
    ///
    /// Panics when the resolutions differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot merge histograms with different sub_bits"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The nearest-rank percentile (same convention as
    /// `spec_tensor::stats::percentile`: rank `⌊n·p⌋`, clamped), reported
    /// as the holding bucket's midpoint. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64 * p) as u64).min(self.total - 1);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative > rank {
                return self.bucket_mid(index);
            }
        }
        self.bucket_mid(self.counts.len().saturating_sub(1))
    }

    /// [`LogHistogram::percentile`] converted back to seconds.
    pub fn percentile_seconds(&self, p: f64) -> f64 {
        ticks_to_seconds(self.percentile(p))
    }

    /// Kolmogorov–Smirnov-style distance: the maximum over bucket edges
    /// of the absolute difference between the two empirical CDFs. Both
    /// empty → 0; exactly one empty → 1 (maximally diverged).
    ///
    /// # Panics
    ///
    /// Panics when the resolutions differ.
    pub fn max_cdf_deviation(&self, other: &LogHistogram) -> f64 {
        assert_eq!(
            self.sub_bits, other.sub_bits,
            "cannot compare histograms with different sub_bits"
        );
        match (self.total, other.total) {
            (0, 0) => return 0.0,
            (0, _) | (_, 0) => return 1.0,
            _ => {}
        }
        let buckets = self.counts.len().max(other.counts.len());
        let (mut cum_a, mut cum_b, mut worst) = (0u64, 0u64, 0.0f64);
        for index in 0..buckets {
            cum_a += self.counts.get(index).copied().unwrap_or(0);
            cum_b += other.counts.get(index).copied().unwrap_or(0);
            let fa = cum_a as f64 / self.total as f64;
            let fb = cum_b as f64 / other.total as f64;
            worst = worst.max((fa - fb).abs());
        }
        worst
    }
}

/// Per-request completion-time (enqueue → last token) histograms built
/// straight from an event stream, keyed by tenant; key `u32::MAX` holds
/// the all-tenants aggregate. This is the distribution the replay
/// regression gate pins.
pub fn completion_time_histograms(events: &[Event], sub_bits: u32) -> BTreeMap<u32, LogHistogram> {
    let mut enqueued: BTreeMap<u64, Tick> = BTreeMap::new();
    let mut out: BTreeMap<u32, LogHistogram> = BTreeMap::new();
    for event in events {
        match event.kind {
            EventKind::Enqueued { request, .. } => {
                enqueued.entry(request).or_insert(event.tick);
            }
            EventKind::Completed { request, tenant } => {
                let Some(&start) = enqueued.get(&request) else {
                    continue;
                };
                let latency = event.tick.saturating_sub(start);
                out.entry(tenant)
                    .or_insert_with(|| LogHistogram::new(sub_bits))
                    .record(latency);
                out.entry(u32::MAX)
                    .or_insert_with(|| LogHistogram::new(sub_bits))
                    .record(latency);
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let mut h = LogHistogram::new(5);
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        let h = LogHistogram::new(3);
        let mut expected_lo = 0u64;
        for index in 0..200 {
            let (lo, hi) = h.bucket_bounds(index);
            assert_eq!(
                lo, expected_lo,
                "bucket {index} starts where the last ended"
            );
            assert!(hi >= lo);
            expected_lo = hi + 1;
        }
    }

    #[test]
    fn index_and_bounds_agree() {
        let h = LogHistogram::new(5);
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 123_456, u32::MAX as u64] {
            let (lo, hi) = h.bucket_bounds(h.bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        let mut h = LogHistogram::new(5);
        let v = 1_234_567u64;
        h.record(v);
        let got = h.percentile(0.5);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err <= h.relative_error(), "err {err}");
    }

    #[test]
    fn merge_equals_single() {
        let mut a = LogHistogram::new(5);
        let mut b = LogHistogram::new(5);
        let mut whole = LogHistogram::new(5);
        for v in 0..1000u64 {
            let x = v * v % 7919;
            whole.record(x);
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.max_cdf_deviation(&whole), 0.0);
    }

    #[test]
    fn cdf_deviation_sees_a_shift() {
        let mut a = LogHistogram::new(5);
        let mut b = LogHistogram::new(5);
        for v in 0..1000u64 {
            a.record(1000 + v);
            b.record((1000 + v) * 12 / 10); // +20% shift
        }
        assert!(a.max_cdf_deviation(&b) > 0.2);
        assert_eq!(a.max_cdf_deviation(&a), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = LogHistogram::new(5);
        for v in [3u64, 70, 70, 9000] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
