//! Differential test of the observability layer: for the same seed and
//! workload, every kernel (`Reference`, `Parallel` at any thread
//! count) must export the byte-identical Perfetto trace document
//! and the byte-identical metrics snapshot — the trace stream doubles as
//! a correctness oracle for the deterministic parallel engine. Property
//! tests then tie the traced spans back to the routing algorithm: a
//! delivered packet's hop count equals its XY route length on a healthy
//! mesh, and its span path is a contiguous walk from source to
//! destination even under fault-tolerant detours.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::trace::SpanKind;
use hermes_noc::{KernelMode, Noc, NocConfig, Packet, Port, RouterAddr, Routing};
use proptest::prelude::*;

/// One scheduled submission: at `cycle`, send `packet` from `src`.
struct Send {
    cycle: u64,
    src: RouterAddr,
    dest: RouterAddr,
    payload: Vec<u16>,
}

/// A deterministic all-to-all-ish schedule over a `w`×`h` mesh (the same
/// one the kernel-equivalence suite uses).
fn schedule(w: u8, h: u8, packets: usize, spacing: u64) -> Vec<Send> {
    let nodes = u64::from(w) * u64::from(h);
    (0..packets as u64)
        .map(|k| {
            let s = k % nodes;
            let d = (k * 7 + 3) % nodes;
            Send {
                cycle: k * spacing,
                src: RouterAddr::new((s % u64::from(w)) as u8, (s / u64::from(w)) as u8),
                dest: RouterAddr::new((d % u64::from(w)) as u8, (d / u64::from(w)) as u8),
                payload: vec![(k % 200) as u16; 1 + (k % 6) as usize],
            }
        })
        .collect()
}

const KERNELS: [KernelMode; 4] = [
    KernelMode::Reference,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Runs the workload under one kernel with tracing enabled and returns
/// the two exported artifacts: the Perfetto JSON document and the
/// Prometheus + JSON metrics expositions.
fn run_traced(
    config: NocConfig,
    plan: Option<&FaultPlan>,
    sends: &[Send],
    run_cycles: u64,
    kernel: KernelMode,
) -> (String, String, String) {
    let mut noc = Noc::new(config.with_kernel_mode(kernel)).expect("valid config");
    noc.enable_packet_trace(1024);
    if let Some(plan) = plan {
        noc.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    let mut next = 0;
    for cycle in 0..run_cycles {
        while next < sends.len() && sends[next].cycle == cycle {
            let s = &sends[next];
            let _ = noc.send(s.src, Packet::new(s.dest, s.payload.clone()));
            next += 1;
        }
        noc.step();
    }
    let tracer = noc.packet_trace().expect("tracing enabled");
    let metrics = noc.metrics();
    (
        tracer.perfetto_json(),
        metrics.to_prometheus(),
        metrics.to_json(),
    )
}

/// Asserts every kernel exports the byte-identical trace and metrics.
fn assert_exports_identical(
    config: NocConfig,
    plan: Option<FaultPlan>,
    sends: &[Send],
    run_cycles: u64,
) {
    let reference = run_traced(config.clone(), plan.as_ref(), sends, run_cycles, KERNELS[0]);
    for &kernel in &KERNELS[1..] {
        let got = run_traced(config.clone(), plan.as_ref(), sends, run_cycles, kernel);
        assert_eq!(
            reference.0, got.0,
            "Perfetto export diverged under {kernel:?}"
        );
        assert_eq!(
            reference.1, got.1,
            "Prometheus exposition diverged under {kernel:?}"
        );
        assert_eq!(reference.2, got.2, "metrics JSON diverged under {kernel:?}");
    }
    assert!(
        reference.0.contains("\"ph\":\"X\""),
        "the healthy export actually contains spans"
    );
}

#[test]
fn healthy_trace_and_metrics_are_byte_identical() {
    let mut sends = schedule(4, 4, 40, 9);
    for (i, s) in schedule(4, 4, 10, 13).into_iter().enumerate() {
        sends.push(Send {
            cycle: 8_000 + i as u64 * 13,
            ..s
        });
    }
    sends.sort_by_key(|s| s.cycle);
    assert_exports_identical(NocConfig::mesh(4, 4), None, &sends, 12_000);
}

#[test]
fn faulted_trace_and_metrics_are_byte_identical() {
    let plan = FaultPlan::new(1234)
        .with_drop_rate(0.1)
        .with_corrupt_rate(0.15)
        .with_link_down(RouterAddr::new(1, 0), Port::East, CycleWindow::new(50, 400))
        .with_router_stall(RouterAddr::new(2, 1), CycleWindow::new(100, 700));
    let sends = schedule(3, 3, 60, 17);
    assert_exports_identical(NocConfig::mesh(3, 3), Some(plan), &sends, 6_000);
}

#[test]
fn degraded_trace_and_metrics_are_byte_identical() {
    let plan = FaultPlan::new(99).with_link_down(
        RouterAddr::new(1, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    let sends = schedule(3, 3, 60, 23);
    assert_exports_identical(config, Some(plan), &sends, 8_000);
}

#[test]
fn node_death_trace_and_metrics_are_byte_identical() {
    // A router killed mid-workload plus a standalone IP-core death: the
    // escalation-driven flushes, purges and epoch announcements feed the
    // trace stream and the dead-router/endpoint counters, and every
    // kernel must export them byte for byte.
    let plan = FaultPlan::new(4242)
        .with_router_down(RouterAddr::new(1, 1), 120)
        .with_endpoint_down(RouterAddr::new(2, 0), 300);
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    let sends = schedule(3, 3, 60, 19);
    assert_exports_identical(config, Some(plan), &sends, 8_000);
}

#[test]
fn trace_ring_stays_bounded_under_load() {
    let mut noc = Noc::new(NocConfig::mesh(2, 2)).expect("valid config");
    noc.enable_packet_trace(8);
    let src = RouterAddr::new(0, 0);
    let dst = RouterAddr::new(1, 1);
    for round in 0..200u64 {
        noc.send(src, Packet::new(dst, vec![(round % 100) as u16]))
            .expect("send");
        noc.run_until_idle(10_000).expect("deliver");
        let _ = noc.try_recv(dst);
        let tracer = noc.packet_trace().expect("enabled");
        assert!(tracer.traces().len() <= 8, "round {round}: window overflow");
    }
    let tracer = noc.take_packet_trace().expect("enabled");
    assert!(tracer.evicted_traces() >= 200 - 2 * 8);
    assert!(tracer.traces().iter().all(|t| t.is_delivered()));
    // Tracing off again: the hooks revert to their disabled fast path.
    assert!(noc.packet_trace().is_none());
    noc.send(src, Packet::new(dst, vec![1])).expect("send");
    noc.run_until_idle(10_000).expect("deliver");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a healthy mesh, every delivered packet's traced hop count is
    /// exactly the Manhattan distance of its endpoints (XY is minimal),
    /// its route count is one grant per router on the path, and its span
    /// sequence is well-formed (inject first, delivered last).
    #[test]
    fn traced_hops_equal_xy_route_length(seed in 0u64..200) {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
        noc.enable_packet_trace(64);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ids = Vec::new();
        for _ in 0..20 {
            let src = RouterAddr::new((step() % 4) as u8, (step() % 4) as u8);
            let dst = RouterAddr::new((step() % 4) as u8, (step() % 4) as u8);
            let len = (step() % 8) as usize;
            ids.push((noc.send(src, Packet::new(dst, vec![7; len])).unwrap(), src, dst));
        }
        noc.run_until_idle(5_000_000).unwrap();
        let tracer = noc.packet_trace().unwrap();
        for (id, src, dst) in ids {
            let trace = tracer.trace(id).expect("window holds all 20");
            prop_assert!(trace.is_delivered());
            prop_assert_eq!(trace.hop_count(), src.hops_to(dst) as usize);
            prop_assert_eq!(trace.route_count(), trace.hop_count() + 1);
            let events = trace.events();
            prop_assert_eq!(events[0].kind, SpanKind::Inject);
            prop_assert_eq!(events[events.len() - 1].kind, SpanKind::Delivered);
            prop_assert_eq!(trace.path()[0], src);
            prop_assert_eq!(*trace.path().last().unwrap(), dst);
        }
    }

    /// Under a fault-tolerant detour the traced path is still a
    /// contiguous walk of adjacent routers from source to destination,
    /// and the hop count equals the grant count minus one — even when it
    /// exceeds the Manhattan distance.
    #[test]
    fn degraded_traces_form_contiguous_paths(seed in 0u64..100) {
        let plan = FaultPlan::new(seed).with_link_down(
            RouterAddr::new(1, 1),
            Port::East,
            CycleWindow::open_ended(0),
        );
        let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
        let mut noc = Noc::new(config).unwrap();
        noc.enable_packet_trace(256);
        noc.set_fault_plan(plan).unwrap();
        for k in 0..30u16 {
            let src = RouterAddr::new((k % 3) as u8, ((k / 3) % 3) as u8);
            let dst = RouterAddr::new(2 - (k % 3) as u8, 2 - ((k / 3) % 3) as u8);
            let _ = noc.send(src, Packet::new(dst, vec![k; 3]));
        }
        noc.run_until_idle(5_000_000).unwrap();
        let tracer = noc.packet_trace().unwrap();
        for trace in tracer.traces() {
            if !trace.is_delivered() {
                continue; // the wedged worm the diagnosis flushed
            }
            let path = trace.path();
            prop_assert_eq!(path[0], trace.src());
            prop_assert_eq!(*path.last().unwrap(), trace.dest());
            prop_assert_eq!(trace.hop_count(), path.len() - 1);
            prop_assert!(
                trace.hop_count() >= trace.src().hops_to(trace.dest()) as usize,
                "a detour can only lengthen the path"
            );
            for pair in path.windows(2) {
                prop_assert_eq!(
                    pair[0].hops_to(pair[1]),
                    1,
                    "consecutive grants are mesh neighbours"
                );
            }
        }
    }
}
