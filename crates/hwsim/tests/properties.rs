//! Property tests for the event simulator and cost model.

use proptest::prelude::*;
use spec_hwsim::event::{EventSim, COMPUTE, COPY};
use spec_hwsim::{DeviceSpec, EngineProfile, KernelCost};

proptest! {
    /// Same-stream ops never overlap; makespan bounds every stream's
    /// busy time; dependencies are respected.
    #[test]
    fn event_sim_fundamental_invariants(
        ops in prop::collection::vec((0usize..2, 0.0f64..2.0, any::<bool>()), 1..40)
    ) {
        let mut sim = EventSim::new(2);
        let mut last = None;
        for (i, (stream, dur, dep_on_last)) in ops.iter().enumerate() {
            let deps: Vec<_> = if *dep_on_last { last.into_iter().collect() } else { vec![] };
            let h = sim.submit(
                spec_hwsim::event::OpLabel::layer(i, "op"),
                spec_hwsim::event::StreamId(*stream),
                *dur,
                &deps,
            );
            if let Some(d) = deps.first() {
                prop_assert!(sim.records().last().unwrap().start >= sim.end_of(*d) - 1e-12);
            }
            last = Some(h);
        }
        // No same-stream overlap.
        for s in [COMPUTE, COPY] {
            let mut spans: Vec<(f64, f64)> = sim
                .records()
                .iter()
                .filter(|r| r.stream == s)
                .map(|r| (r.start, r.end))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-12, "overlap on {s:?}");
            }
            prop_assert!(sim.makespan() >= sim.busy_time(s) - 1e-9);
        }
    }

    /// Op time is monotone in both FLOPs and bytes, for every profile.
    #[test]
    fn op_time_monotone(
        flops in 1e3f64..1e12,
        bytes in 1e3f64..1e10,
        extra in 1.01f64..10.0,
    ) {
        let dev = DeviceSpec::a100_80g();
        for p in [
            EngineProfile::eager(),
            EngineProfile::flash_attention(),
            EngineProfile::flashinfer(),
        ] {
            let base = p.op_time(KernelCost::new(flops, bytes), &dev);
            let more_flops = p.op_time(KernelCost::new(flops * extra, bytes), &dev);
            let more_bytes = p.op_time(KernelCost::new(flops, bytes * extra), &dev);
            prop_assert!(more_flops >= base - 1e-15);
            prop_assert!(more_bytes >= base - 1e-15);
        }
    }

    /// PCIe time is affine in bytes with the latency floor.
    #[test]
    fn pcie_time_affine(bytes in 0.0f64..1e10) {
        let dev = DeviceSpec::rtx4090();
        let t = dev.pcie_time(bytes);
        prop_assert!(t >= dev.pcie_latency);
        prop_assert!((t - dev.pcie_latency - bytes / dev.pcie_bw).abs() < 1e-12);
    }
}
