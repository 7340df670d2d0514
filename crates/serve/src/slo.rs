//! Latency-SLO accounting.
//!
//! Cluster throughput alone is a vanity metric under open-loop load: a
//! saturated fleet completes requests at full throughput while every
//! user waits minutes for a first token. What the serving literature
//! holds systems to is *goodput* — tokens delivered by requests whose
//! time-to-first-token (TTFT) and time-between-tokens (TBT) both met
//! their service-level objectives — and tail percentiles. This module
//! turns raw completions into that accounting, reusing the same
//! [`PercentileSummary`] the single-node `ScheduleReport` carries so the
//! two layers stay comparable.

use serde::{Deserialize, Serialize};
use spec_runtime::CompletedRequest;
use spec_tensor::PercentileSummary;

/// The per-request latency targets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Max acceptable time-to-first-token, seconds (queueing + prefill).
    pub ttft_s: f64,
    /// Max acceptable mean time between output tokens, seconds.
    pub tbt_s: f64,
}

impl SloSpec {
    /// An SLO with the given TTFT and TBT bounds.
    pub fn new(ttft_s: f64, tbt_s: f64) -> Self {
        Self { ttft_s, tbt_s }
    }
}

impl Default for SloSpec {
    /// An interactive-serving default: first token within 30 s, then at
    /// least ~6.7 tokens/s sustained.
    fn default() -> Self {
        Self {
            ttft_s: 30.0,
            tbt_s: 0.15,
        }
    }
}

/// One tenant's slice of the SLO accounting — same definitions as the
/// fleet-level [`SloReport`], restricted to that tenant's requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSlo {
    /// The tenant id.
    pub tenant: u32,
    /// Time-to-first-token percentiles, seconds.
    pub ttft: PercentileSummary,
    /// Time-between-tokens percentiles, seconds.
    pub tbt: PercentileSummary,
    /// End-to-end latency percentiles, seconds.
    pub latency: PercentileSummary,
    /// Fraction of the tenant's submitted requests that attained the SLO.
    pub attainment: f64,
    /// The tenant's SLO-attaining output tokens/s over the makespan.
    pub goodput_tokens_per_s: f64,
    /// The tenant's completed-request output tokens/s over the makespan.
    pub throughput_tokens_per_s: f64,
    /// Completed requests.
    pub completed: usize,
    /// Rejected (never-admissible) requests.
    pub rejected: usize,
    /// Requests that exhausted their retry budget after crashes.
    pub dead_lettered: usize,
    /// Requests dropped by overload shedding before routing.
    pub shed: usize,
    /// Retry attempts the tenant's requests went through (attempts, not
    /// requests: one request crashed twice counts two retries here but
    /// once everywhere else).
    pub retries: usize,
    /// Checkpoint/restore round-trips the tenant's requests paid.
    pub preemptions: usize,
}

/// SLO accounting over a set of completions.
///
/// # Denominators
///
/// *Submitted* = `completed + rejected + dead_lettered + shed` — every
/// distinct request the cluster accepted responsibility for, each
/// counted exactly once no matter how many crash-driven retries it went
/// through (`retries` counts the attempts separately and never enters a
/// denominator). Attainment divides SLO-attaining completions by
/// submitted, so every terminal failure mode — rejection, dead-letter,
/// shed — drags attainment the same way. Goodput and throughput divide
/// token counts by the makespan; only completed requests contribute
/// tokens, so lost work never inflates either rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Time-to-first-token percentiles, seconds.
    pub ttft: PercentileSummary,
    /// Time-between-tokens percentiles, seconds.
    pub tbt: PercentileSummary,
    /// End-to-end latency percentiles, seconds.
    pub latency: PercentileSummary,
    /// Fraction of *submitted* requests (completed + rejected +
    /// dead-lettered + shed) that completed with both TTFT and TBT
    /// within the SLO.
    pub attainment: f64,
    /// Output tokens/s delivered by SLO-attaining requests over the
    /// makespan — the headline "goodput under SLO" number.
    pub goodput_tokens_per_s: f64,
    /// Output tokens/s of all completed requests over the makespan.
    pub throughput_tokens_per_s: f64,
    /// Completed requests.
    pub completed: usize,
    /// Rejected (never-admissible) requests.
    pub rejected: usize,
    /// Requests that exhausted their retry budget after crashes.
    pub dead_lettered: usize,
    /// Requests dropped by overload shedding before routing.
    pub shed: usize,
    /// Crash-driven retry attempts across the run (informational — a
    /// retried request still counts once in every denominator).
    pub retries: usize,
    /// Per-tenant breakdown, in tenant-id order. Tenant goodput sums to
    /// the fleet goodput (same makespan denominator, disjoint token
    /// sets); rejected requests are attributed to their tenants when the
    /// caller provides the per-tenant counts ([`evaluate_faulted`]).
    pub per_tenant: Vec<TenantSlo>,
}

/// Dollar accounting for a cluster run. Goodput-per-dollar is the
/// cost-aware headline: SLO-attaining output tokens divided by the
/// dollars actually billed, so an over-provisioned fleet that idles
/// expensive replicas scores worse than a right-sized one at the same
/// goodput. All zeros when nothing was billed (zero-length run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Σ hourly rental price over every provisioned replica, USD/h —
    /// what the fleet would cost fully active.
    pub fleet_hourly_usd: f64,
    /// Replica-hours actually billed (active windows only; parked time
    /// is free).
    pub billed_hours: f64,
    /// Dollars billed over the run, per replica at its device's rate.
    pub cost_usd: f64,
    /// SLO-attaining output tokens per dollar billed.
    pub goodput_tokens_per_usd: f64,
    /// All completed output tokens per dollar billed.
    pub throughput_tokens_per_usd: f64,
}

/// Per-tenant fault dispositions feeding [`evaluate_faulted`]: each list
/// is `(tenant, count)` pairs in any order. `dead_lettered` and `shed`
/// are terminal — they join rejections in the submitted denominator —
/// while `retries` counts attempts and stays informational.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOutcomes {
    /// Requests that exhausted their retry budget, per tenant.
    pub dead_lettered: Vec<(u32, usize)>,
    /// Requests dropped by overload shedding, per tenant.
    pub shed: Vec<(u32, usize)>,
    /// Retry attempts, per tenant.
    pub retries: Vec<(u32, usize)>,
}

/// `failed` is the slice's terminal non-completions — rejected +
/// dead-lettered + shed — the other half of the submitted denominator.
fn slice_report(
    completed: &[&CompletedRequest],
    failed: usize,
    makespan: f64,
    slo: &SloSpec,
) -> (
    PercentileSummary,
    PercentileSummary,
    PercentileSummary,
    f64,
    f64,
    f64,
) {
    let ttfts: Vec<f64> = completed.iter().map(|c| c.time_to_first_token()).collect();
    let tbts: Vec<f64> = completed.iter().map(|c| c.time_between_tokens()).collect();
    let latencies: Vec<f64> = completed.iter().map(|c| c.latency()).collect();
    let attains = |c: &CompletedRequest| {
        c.time_to_first_token() <= slo.ttft_s && c.time_between_tokens() <= slo.tbt_s
    };
    let good_tokens: usize = completed
        .iter()
        .filter(|c| attains(c))
        .map(|c| c.request.output_len)
        .sum();
    let all_tokens: usize = completed.iter().map(|c| c.request.output_len).sum();
    let submitted = completed.len() + failed;
    let per_s = |tokens: usize| {
        if makespan > 0.0 {
            tokens as f64 / makespan
        } else {
            0.0
        }
    };
    (
        PercentileSummary::from_samples(&ttfts),
        PercentileSummary::from_samples(&tbts),
        PercentileSummary::from_samples(&latencies),
        if submitted > 0 {
            completed.iter().filter(|c| attains(c)).count() as f64 / submitted as f64
        } else {
            0.0
        },
        per_s(good_tokens),
        per_s(all_tokens),
    )
}

fn tenant_count(pairs: &[(u32, usize)], tenant: u32) -> usize {
    pairs
        .iter()
        .filter(|(t, _)| *t == tenant)
        .map(|&(_, n)| n)
        .sum()
}

/// Evaluates completions against an SLO with rejections attributed to
/// their tenants, and with fault dispositions: dead-lettered and shed
/// requests join rejections in the submitted denominator (fleet-wide and
/// per tenant), so attainment honestly reflects every terminal failure;
/// retry attempts are carried through as counters. With the default
/// [`FaultOutcomes`] the fault fields are zero and the numbers are the
/// fault-free evaluation's, which keeps no-fault reports bit-identical.
pub fn evaluate_faulted(
    completed: &[CompletedRequest],
    rejected: usize,
    rejected_by_tenant: &[(u32, usize)],
    outcomes: &FaultOutcomes,
    makespan: f64,
    slo: &SloSpec,
) -> SloReport {
    let dead_lettered: usize = outcomes.dead_lettered.iter().map(|&(_, n)| n).sum();
    let shed: usize = outcomes.shed.iter().map(|&(_, n)| n).sum();
    let retries: usize = outcomes.retries.iter().map(|&(_, n)| n).sum();
    let all: Vec<&CompletedRequest> = completed.iter().collect();
    let (ttft, tbt, latency, attainment, goodput, throughput) =
        slice_report(&all, rejected + dead_lettered + shed, makespan, slo);
    let mut tenants: std::collections::BTreeMap<u32, Vec<&CompletedRequest>> =
        std::collections::BTreeMap::new();
    for c in completed {
        tenants.entry(c.request.tenant).or_default().push(c);
    }
    for &(t, _) in rejected_by_tenant
        .iter()
        .chain(&outcomes.dead_lettered)
        .chain(&outcomes.shed)
        .chain(&outcomes.retries)
    {
        tenants.entry(t).or_default();
    }
    let per_tenant: Vec<TenantSlo> = tenants
        .iter()
        .map(|(&tenant, slice)| {
            let t_rejected = tenant_count(rejected_by_tenant, tenant);
            let t_dead = tenant_count(&outcomes.dead_lettered, tenant);
            let t_shed = tenant_count(&outcomes.shed, tenant);
            let (ttft, tbt, latency, attainment, goodput, throughput) =
                slice_report(slice, t_rejected + t_dead + t_shed, makespan, slo);
            TenantSlo {
                tenant,
                ttft,
                tbt,
                latency,
                attainment,
                goodput_tokens_per_s: goodput,
                throughput_tokens_per_s: throughput,
                completed: slice.len(),
                rejected: t_rejected,
                dead_lettered: t_dead,
                shed: t_shed,
                retries: tenant_count(&outcomes.retries, tenant),
                preemptions: slice.iter().map(|c| c.preemptions).sum(),
            }
        })
        .collect();
    SloReport {
        ttft,
        tbt,
        latency,
        attainment,
        goodput_tokens_per_s: goodput,
        throughput_tokens_per_s: throughput,
        completed: completed.len(),
        rejected,
        dead_lettered,
        shed,
        retries,
        per_tenant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_runtime::Request;

    fn done(
        id: usize,
        arrival: f64,
        start: f64,
        finish: f64,
        output_len: usize,
    ) -> CompletedRequest {
        tenant_done(id, 0, arrival, start, finish, output_len)
    }

    fn tenant_done(
        id: usize,
        tenant: u32,
        arrival: f64,
        start: f64,
        finish: f64,
        output_len: usize,
    ) -> CompletedRequest {
        CompletedRequest {
            request: Request {
                id,
                tenant,
                input_len: 128,
                output_len,
                arrival,
            },
            start,
            first_token: start,
            finish,
            preemptions: 0,
        }
    }

    /// A fault-free evaluation with rejections attributed per tenant.
    fn evaluate_tenanted(
        completed: &[CompletedRequest],
        rejected: usize,
        rejected_by_tenant: &[(u32, usize)],
        makespan: f64,
        slo: &SloSpec,
    ) -> SloReport {
        let outcomes = FaultOutcomes::default();
        evaluate_faulted(
            completed,
            rejected,
            rejected_by_tenant,
            &outcomes,
            makespan,
            slo,
        )
    }

    /// [`evaluate_tenanted`] with no rejection attributed to a tenant.
    fn fault_free(
        completed: &[CompletedRequest],
        rejected: usize,
        makespan: f64,
        slo: &SloSpec,
    ) -> SloReport {
        evaluate_tenanted(completed, rejected, &[], makespan, slo)
    }

    #[test]
    fn goodput_counts_only_attaining_requests() {
        let slo = SloSpec::new(1.0, 0.1);
        // First request: TTFT 0.5, TBT 0.05 — attains. Second: TTFT 5 — misses.
        let completed = [done(0, 0.0, 0.5, 5.5, 100), done(1, 0.0, 5.0, 10.0, 100)];
        let rep = fault_free(&completed, 0, 10.0, &slo);
        assert_eq!(rep.completed, 2);
        assert!((rep.attainment - 0.5).abs() < 1e-9);
        assert!((rep.goodput_tokens_per_s - 10.0).abs() < 1e-9);
        assert!((rep.throughput_tokens_per_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rejected_requests_drag_attainment_down() {
        let slo = SloSpec::new(10.0, 1.0);
        let completed = [done(0, 0.0, 0.5, 1.5, 10)];
        let rep = fault_free(&completed, 3, 2.0, &slo);
        assert!((rep.attainment - 0.25).abs() < 1e-9);
        assert_eq!(rep.rejected, 3);
    }

    #[test]
    fn empty_run_is_all_zeros() {
        let rep = fault_free(&[], 0, 0.0, &SloSpec::default());
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.attainment, 0.0);
        assert_eq!(rep.goodput_tokens_per_s, 0.0);
        assert_eq!(rep.ttft, PercentileSummary::default());
    }

    #[test]
    fn all_rejected_trace_has_zero_attainment_and_no_nan() {
        let rep = evaluate_tenanted(&[], 5, &[(0, 3), (1, 2)], 4.0, &SloSpec::default());
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.rejected, 5);
        assert_eq!(rep.attainment, 0.0);
        assert!(rep.attainment.is_finite());
        assert_eq!(rep.goodput_tokens_per_s, 0.0);
        assert!(rep.ttft.p99.is_finite());
        assert_eq!(rep.per_tenant.len(), 2);
        for t in &rep.per_tenant {
            assert_eq!(t.completed, 0);
            assert_eq!(t.attainment, 0.0);
            assert!(t.attainment.is_finite() && t.goodput_tokens_per_s.is_finite());
            assert!(t.ttft.p95.is_finite());
        }
        assert_eq!(rep.per_tenant[0].rejected, 3);
        assert_eq!(rep.per_tenant[1].rejected, 2);
    }

    #[test]
    fn zero_makespan_run_reports_zero_rates_not_inf() {
        let completed = [done(0, 0.0, 0.0, 0.0, 10)];
        let rep = fault_free(&completed, 0, 0.0, &SloSpec::default());
        assert_eq!(rep.goodput_tokens_per_s, 0.0);
        assert_eq!(rep.throughput_tokens_per_s, 0.0);
        assert!(rep.goodput_tokens_per_s.is_finite());
        for t in &rep.per_tenant {
            assert_eq!(t.goodput_tokens_per_s, 0.0);
            assert_eq!(t.throughput_tokens_per_s, 0.0);
        }
    }

    #[test]
    fn per_tenant_goodput_and_counts_sum_to_fleet() {
        let slo = SloSpec::new(1.0, 1.0);
        let completed = [
            tenant_done(0, 0, 0.0, 0.5, 2.0, 100),
            tenant_done(1, 1, 0.0, 0.3, 1.5, 50),
            tenant_done(2, 0, 0.0, 5.0, 9.0, 70), // misses TTFT
            tenant_done(3, 2, 0.0, 0.1, 3.0, 30),
        ];
        let rep = evaluate_tenanted(&completed, 1, &[(1, 1)], 10.0, &slo);
        assert_eq!(rep.per_tenant.len(), 3);
        let good_sum: f64 = rep.per_tenant.iter().map(|t| t.goodput_tokens_per_s).sum();
        assert!((good_sum - rep.goodput_tokens_per_s).abs() < 1e-9);
        let thr_sum: f64 = rep
            .per_tenant
            .iter()
            .map(|t| t.throughput_tokens_per_s)
            .sum();
        assert!((thr_sum - rep.throughput_tokens_per_s).abs() < 1e-9);
        let completed_sum: usize = rep.per_tenant.iter().map(|t| t.completed).sum();
        assert_eq!(completed_sum, rep.completed);
        let rejected_sum: usize = rep.per_tenant.iter().map(|t| t.rejected).sum();
        assert_eq!(rejected_sum, rep.rejected);
    }

    #[test]
    fn dead_letter_and_shed_join_the_submitted_denominator() {
        let slo = SloSpec::new(10.0, 1.0);
        let completed = [tenant_done(0, 0, 0.0, 0.5, 1.5, 10)];
        let outcomes = FaultOutcomes {
            dead_lettered: vec![(0, 1)],
            shed: vec![(1, 2)],
            retries: vec![(0, 3)],
        };
        let rep = evaluate_faulted(&completed, 0, &[], &outcomes, 2.0, &slo);
        // submitted = 1 completed + 1 dead-lettered + 2 shed = 4.
        assert!((rep.attainment - 0.25).abs() < 1e-9);
        assert_eq!(rep.dead_lettered, 1);
        assert_eq!(rep.shed, 2);
        assert_eq!(rep.retries, 3);
        let t0 = &rep.per_tenant[0];
        assert!((t0.attainment - 0.5).abs() < 1e-9, "1 of 2 submitted");
        assert_eq!((t0.dead_lettered, t0.retries), (1, 3));
        let t1 = &rep.per_tenant[1];
        assert_eq!((t1.shed, t1.completed), (2, 0));
        assert_eq!(t1.attainment, 0.0);
        assert!(t1.attainment.is_finite());
    }

    #[test]
    fn retried_requests_count_once_in_submitted() {
        // The same single completion with and without retry attempts:
        // attempts show up as counters but move no denominator.
        let slo = SloSpec::new(10.0, 1.0);
        let completed = [done(0, 0.0, 0.5, 1.5, 10)];
        let calm = evaluate_faulted(&completed, 0, &[], &FaultOutcomes::default(), 2.0, &slo);
        let stormy = evaluate_faulted(
            &completed,
            0,
            &[],
            &FaultOutcomes {
                retries: vec![(0, 5)],
                ..FaultOutcomes::default()
            },
            2.0,
            &slo,
        );
        assert_eq!(stormy.retries, 5);
        assert_eq!(stormy.attainment, calm.attainment);
        assert_eq!(stormy.goodput_tokens_per_s, calm.goodput_tokens_per_s);
        assert_eq!(stormy.completed, calm.completed);
    }

    #[test]
    fn default_outcomes_reduce_to_evaluate_tenanted() {
        let slo = SloSpec::new(1.0, 1.0);
        let completed = [tenant_done(0, 0, 0.0, 0.5, 2.0, 100)];
        let a = evaluate_tenanted(&completed, 1, &[(0, 1)], 10.0, &slo);
        let b = evaluate_faulted(
            &completed,
            1,
            &[(0, 1)],
            &FaultOutcomes::default(),
            10.0,
            &slo,
        );
        assert_eq!(a, b);
        assert_eq!((a.dead_lettered, a.shed, a.retries), (0, 0, 0));
    }

    #[test]
    fn percentiles_track_the_tail() {
        let slo = SloSpec::default();
        let completed: Vec<CompletedRequest> = (0..100)
            .map(|i| done(i, 0.0, i as f64 * 0.01, 10.0, 50))
            .collect();
        let rep = fault_free(&completed, 0, 10.0, &slo);
        assert!(rep.ttft.p99 >= rep.ttft.p50);
        assert!((rep.ttft.p99 - 0.99).abs() < 1e-9);
    }
}
