//! E20 (extension) — simulation-kernel performance: host cycles/second
//! of the quiescence-aware active-set kernel (`KernelMode::Active`, the
//! default) against the reference full-scan kernel on idle-heavy,
//! saturated and degraded-mesh workloads, plus the system-level idle
//! fast-forward, with a peak-RSS proxy and the bounded-statistics
//! memory evidence.
//!
//! Every workload is seeded and runs under *both* kernels; the harness
//! asserts the simulated observables (packets, hops, fault and health
//! counters) are identical before reporting any speed number, so a
//! reported speedup can never come from simulating something else.
//! Wall-clock rates vary with the machine; the simulated outcomes do
//! not. The machine-readable summary lands in `BENCH_perf.json`.
//!
//! A second section sweeps `KernelMode::Parallel` over 1/2/4/8 worker
//! threads on an idle-heavy 16×16 mesh and a saturated 32×32
//! sea-of-processors mesh, again asserting bit-identical observables
//! against the sequential kernel before recording any rate. Thread
//! speedups are *observations* of this host (recorded with its CPU
//! count in `BENCH_parallel.json`); the one gate is that threads=2 is
//! not slower than threads=1 on the saturated mesh of a ≥2-CPU host.

use std::fmt::Write as _;

use std::time::Instant;

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{
    CycleWindow, FaultPlan, KernelMode, Noc, NocConfig, Packet, PhaseProfile, Port, RouterAddr,
    Routing,
};
use multinoc::serial::{HostCommand, SerialConfig, SYNC_BYTE};
use multinoc::{NodeId, System};
use r8::asm::assemble;

use crate::{fixed, BoxError, Obj, Report, Scale};

/// Seed shared by every workload.
const SEED: u64 = 0xE20_BEEF;

/// Simulated observables that must be identical across kernels for the
/// same workload — the differential guard on every speed number.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    cycles: u64,
    packets_sent: u64,
    packets_delivered: u64,
    flit_hops: u64,
    faults: hermes_noc::stats::FaultCounters,
    health: hermes_noc::stats::HealthCounters,
}

impl Fingerprint {
    fn of(noc: &Noc) -> Self {
        let s = noc.stats();
        Self {
            cycles: s.cycles,
            packets_sent: s.packets_sent,
            packets_delivered: s.packets_delivered,
            flit_hops: s.flit_hops,
            faults: s.faults,
            health: s.health,
        }
    }
}

struct Measured {
    fingerprint: Fingerprint,
    seconds: f64,
    /// End-to-end latency `(p50, p95, p99)` in cycles, from the bounded
    /// histogram; `None` before the first delivery.
    latency: (Option<u64>, Option<u64>, Option<u64>),
    /// Kernel phase breakdown; `Some` only when the profiler was on
    /// (parallel sweep points).
    phases: Option<PhaseProfile>,
}

impl Measured {
    /// Simulated cycles per wall-clock second.
    fn cps(&self) -> f64 {
        self.fingerprint.cycles as f64 / self.seconds
    }

    /// Captures everything a workload reports: the differential
    /// fingerprint, the elapsed wall clock, the latency percentiles and
    /// (when profiling) the phase breakdown.
    fn capture(noc: &Noc, start: Instant) -> Self {
        let hist = noc.stats().latency_histogram();
        Self {
            fingerprint: Fingerprint::of(noc),
            seconds: start.elapsed().as_secs_f64(),
            latency: (hist.p50(), hist.p95(), hist.p99()),
            phases: noc.phase_profile(),
        }
    }
}

/// Turns the phase profiler on for parallel kernels, where the
/// decide/commit/barrier breakdown explains the observed scaling.
fn profile_if_parallel(noc: &mut Noc, kernel: KernelMode) {
    if matches!(kernel, KernelMode::Parallel { .. }) {
        noc.enable_phase_profiler();
    }
}

/// Sparse bursts on a 16×16 mesh: a handful of packets every few
/// thousand cycles, then silence — the regime where the reference
/// kernel scans 256 idle routers per cycle for nothing.
fn idle_heavy(kernel: KernelMode, cycles: u64) -> Measured {
    let mut noc = Noc::new(NocConfig::mesh(16, 16).with_kernel_mode(kernel)).expect("valid mesh");
    profile_if_parallel(&mut noc, kernel);
    let start = Instant::now();
    // Bursts land at 4k-cycle boundaries, so the driving is naturally
    // chunked: each burst is submitted, then the network runs to the
    // next boundary in one call (batched windows under the parallel
    // kernel, plain per-cycle stepping under the others).
    let mut now = 0;
    while now < cycles {
        if now % 4_000 == 0 {
            let k = now / 4_000;
            for j in 0..4u64 {
                let s = (k * 31 + j * 7) % 256;
                let d = (k * 17 + j * 13 + 5) % 256;
                if s == d {
                    continue;
                }
                let src = RouterAddr::new((s % 16) as u8, (s / 16) as u8);
                let dst = RouterAddr::new((d % 16) as u8, (d / 16) as u8);
                noc.send(src, Packet::new(dst, vec![j as u16; 3]))
                    .expect("send");
            }
        }
        let chunk = (4_000 - now % 4_000).min(cycles - now);
        noc.run(chunk);
        now += chunk;
    }
    Measured::capture(&noc, start)
}

/// Uniform random traffic at a high injection rate on an 8×8 mesh: the
/// regime where (almost) every router is busy and the active set buys
/// nothing — the overhead guard.
fn saturated(kernel: KernelMode, cycles: u64) -> Measured {
    let mut noc = Noc::new(NocConfig::mesh(8, 8).with_kernel_mode(kernel)).expect("valid mesh");
    profile_if_parallel(&mut noc, kernel);
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.25, 4, SEED);
    let start = Instant::now();
    gen.drive(&mut noc, cycles, 1_000_000).expect("drive");
    Measured::capture(&noc, start)
}

/// Moderate traffic on an 8×8 fault-tolerant mesh with two permanent
/// dead links: online diagnosis, wedged-worm flushes, epoch wavefronts
/// and detoured routing all run under both kernels.
fn degraded(kernel: KernelMode, cycles: u64) -> Measured {
    let config = NocConfig::mesh(8, 8)
        .with_kernel_mode(kernel)
        .with_routing(Routing::FaultTolerantXy);
    let mut noc = Noc::new(config).expect("valid mesh");
    profile_if_parallel(&mut noc, kernel);
    noc.set_fault_plan(
        FaultPlan::new(SEED)
            .with_link_down(
                RouterAddr::new(3, 3),
                Port::East,
                CycleWindow::open_ended(0),
            )
            .with_link_down(
                RouterAddr::new(5, 2),
                Port::North,
                CycleWindow::open_ended(0),
            ),
    )
    .expect("valid fault plan");
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.05, 4, SEED ^ 0xD15EA5E);
    let start = Instant::now();
    gen.drive(&mut noc, cycles, 1_000_000).expect("drive");
    Measured::capture(&noc, start)
}

/// Uniform random traffic on a 32×32 sea-of-processors mesh (10-bit
/// flits so 32 rows and columns stay addressable): every row has work
/// almost every cycle — the regime the row-sharded parallel kernel is
/// built for.
fn sea_saturated(kernel: KernelMode, cycles: u64) -> Measured {
    let config = NocConfig::mesh(32, 32)
        .with_flit_bits(10)
        .with_kernel_mode(kernel);
    let mut noc = Noc::new(config).expect("valid mesh");
    profile_if_parallel(&mut noc, kernel);
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 4, SEED ^ 0x5EA);
    let start = Instant::now();
    // Batched driving (16 cycles of traffic per boundary): the network
    // advances in window-sized runs, so the parallel kernel pays one
    // merge — and three barriers per cycle instead of four — per window.
    gen.drive_batched(&mut noc, cycles, 16, 1_000_000)
        .expect("drive");
    Measured::capture(&noc, start)
}

/// Thread counts the parallel sweep covers: powers of two up to the
/// host's available parallelism (capped at 8 — the row-shard counts the
/// mesh heights here can use), plus exactly one deliberately
/// oversubscribed point (flagged) so the cost of oversubscription stays
/// measured without polluting the scaling curve.
fn sweep_threads(host_cpus: usize) -> Vec<(usize, bool)> {
    let cap = host_cpus.clamp(1, 8);
    let mut threads: Vec<(usize, bool)> = Vec::new();
    let mut t = 1;
    while t <= cap {
        threads.push((t, false));
        t *= 2;
    }
    let over = (cap * 2).min(16);
    threads.push((over, true));
    threads
}

/// One full host-driven MultiNoC run over a real-baud serial link with
/// lossy delivery: sync, activate P1 over the wire, run a small program
/// to halt. Nearly all cycles sit in baud-tick and retransmission-
/// backoff gaps — the system-level fast-forward's home turf.
fn multinoc_run(fast_forward: bool) -> (u64, f64) {
    let mut sys = System::builder()
        // Fault-tolerant routing so a drop-wedged worm is diagnosed and
        // flushed rather than hanging the mesh (plain Xy has no flush).
        .noc(NocConfig::multinoc().with_routing(Routing::FaultTolerantXy))
        .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    // Mild loss: enough to push the reliability layer through its
    // backoff timers (more idle-gap cycles to jump) without wedging a
    // worm badly enough for the progress watchdog to call DeadLink.
    sys.set_fault_plan(FaultPlan::new(SEED).with_drop_rate(0.08))
        .expect("valid fault plan");
    let program = assemble(
        "LIW R1, 40\n\
         loop: SUBI R1, 1\n\
         JMPZD done\n\
         JMPD loop\n\
         done: HALT",
    )
    .expect("assembles");
    sys.memory_mut(NodeId(1))
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.link_mut().host_send(&[SYNC_BYTE]);
    sys.link_mut()
        .host_send(&HostCommand::Activate { node: 1 }.to_bytes());
    let budget = 10_000_000;
    let start = Instant::now();
    let elapsed = if fast_forward {
        sys.run_until_halted(budget).expect("halts")
    } else {
        // Identical exit condition, stepped one cycle at a time.
        let from = sys.cycle();
        loop {
            if sys.all_halted() && sys.noc().is_idle() && sys.link().is_idle() && sys.net_quiet() {
                break sys.cycle() - from;
            }
            assert!(sys.cycle() - from < budget, "budget exhausted");
            sys.step().expect("step");
        }
    };
    (elapsed, start.elapsed().as_secs_f64())
}

/// Long bounded-window run: many more packets than the window retains,
/// proving the statistics stay O(window), not O(packets).
fn bounded_stats(packets: u64) -> (u64, usize, u64, usize) {
    let window = 4_096;
    let mut noc = Noc::new(NocConfig::mesh(4, 4).with_stats_window(window)).expect("valid mesh");
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 2, SEED ^ 0xB0);
    while noc.stats().packets_sent < packets {
        gen.drive(&mut noc, 2_000, 1_000_000).expect("drive");
    }
    let s = noc.stats();
    (
        s.packets_sent,
        s.records().len(),
        s.evicted_records(),
        window,
    )
}

/// Peak resident set (VmHWM) in KiB from `/proc/self/status`; `None`
/// where the proc filesystem is unavailable.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Renders an optional cycle count for a table cell.
fn opt_cycles(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |c| c.to_string())
}

/// One E20 workload: name, description, cycles at scale 1, driver.
type Workload = (
    &'static str,
    &'static str,
    u64,
    fn(KernelMode, u64) -> Measured,
);

/// E20 — kernel and fast-forward performance, differential-checked;
/// writes `BENCH_perf.json` and `BENCH_parallel.json`.
pub fn perf(s: Scale, r: &mut Report) -> Result<(), BoxError> {
    // The RSS proxy below is this experiment's own peak, not that of
    // whatever ran earlier in the process ("5" resets VmHWM on Linux).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let scale = s.pick(1, 10);
    writeln!(
        r,
        "E20: simulation-kernel performance (seed {SEED:#x}, scale {scale}x)\n\
         cycles/second, host wall clock; every workload runs under both\n\
         kernels and must produce identical simulated observables\n"
    )?;
    writeln!(
        r,
        "  {:<12} {:>12} {:>15} {:>15} {:>9}",
        "workload", "cycles", "reference c/s", "active c/s", "speedup"
    )?;
    let idle_detail = "16x16 mesh, 4-packet burst every 4k cycles";
    let sequential: [Workload; 3] = [
        ("idle_heavy", idle_detail, 20_000, idle_heavy),
        (
            "saturated",
            "8x8 mesh, uniform traffic at 0.25 flits/node/cycle",
            4_000,
            saturated,
        ),
        (
            "degraded",
            "8x8 fault-tolerant mesh, 2 permanent dead links",
            4_000,
            degraded,
        ),
    ];
    let mut workloads = Vec::new();
    for (name, detail, cycles, run) in sequential {
        let reference = run(KernelMode::Reference, cycles * scale);
        let active = run(KernelMode::Active, cycles * scale);
        assert_eq!(
            reference.fingerprint, active.fingerprint,
            "{name}: kernels disagree on the simulated outcome"
        );
        assert_eq!(
            reference.latency, active.latency,
            "{name}: kernels disagree on the latency percentiles"
        );
        let (p50, p95, p99) = active.latency;
        let speedup = active.cps() / reference.cps();
        writeln!(
            r,
            "  {:<12} {:>12} {:>15.0} {:>15.0} {:>8.1}x",
            name,
            active.fingerprint.cycles,
            reference.cps(),
            active.cps(),
            speedup
        )?;
        writeln!(
            r,
            "               ({detail}; latency p50/p95/p99 {}/{}/{} cycles)",
            opt_cycles(p50),
            opt_cycles(p95),
            opt_cycles(p99),
        )?;
        workloads.push(
            Obj::new()
                .with("name", name)
                .with("cycles", active.fingerprint.cycles)
                .with("reference_cycles_per_sec", fixed(reference.cps(), 0))
                .with("active_cycles_per_sec", fixed(active.cps(), 0))
                .with("speedup", fixed(speedup, 2))
                .with("latency_p50", p50)
                .with("latency_p95", p95)
                .with("latency_p99", p99)
                .with("peak_rss_kib", peak_rss_kib()),
        );
    }

    // Parallel-kernel thread sweep: observations, not assertions — the
    // only hard requirement is bit-identical simulated outcomes, checked
    // against the sequential kernel before any rate is recorded.
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    writeln!(
        r,
        "\n  parallel kernel thread sweep (host has {host_cpus} CPU(s);\n\
         sweep clamped to host parallelism, one oversubscribed point kept;\n\
         speedups are wall-clock observations on this host):"
    )?;
    let parallel: [Workload; 2] = [
        ("idle_heavy_16x16", idle_detail, 20_000, idle_heavy),
        (
            "sea_saturated_32x32",
            "32x32 mesh (10-bit flits), uniform traffic at 0.2 flits/node/cycle, \
             16-cycle batched windows",
            1_500,
            sea_saturated,
        ),
    ];
    let mut parallel_workloads = Vec::new();
    let mut sea_rates = Vec::new();
    for (name, detail, cycles, run) in parallel {
        let active = run(KernelMode::Active, cycles * scale);
        writeln!(
            r,
            "  {:<20} {:>12} cycles, active {:>12.0} c/s",
            name,
            active.fingerprint.cycles,
            active.cps()
        )?;
        let mut points = Vec::new();
        for (threads, oversubscribed) in sweep_threads(host_cpus) {
            let p = run(KernelMode::Parallel { threads }, cycles * scale);
            assert_eq!(
                active.fingerprint, p.fingerprint,
                "{name}: parallel kernel at {threads} threads disagrees on the simulated outcome"
            );
            if name == "sea_saturated_32x32" {
                sea_rates.push((threads, p.cps()));
            }
            writeln!(
                r,
                "    {threads} thread(s): {:>12.0} c/s ({:.2}x vs active){}",
                p.cps(),
                p.cps() / active.cps(),
                if oversubscribed {
                    " [oversubscribed]"
                } else {
                    ""
                },
            )?;
            let phases = p.phases.as_ref().map(|ph| {
                let pct = |nanos: u64| 100.0 * nanos as f64 / ph.total_nanos().max(1) as f64;
                let _ = writeln!(
                    r,
                    "      phases: local {:.0}% decide {:.0}% apply-src {:.0}% \
                     apply-dst {:.0}% barrier {:.0}%",
                    pct(ph.local_nanos),
                    pct(ph.decide_nanos),
                    pct(ph.apply_src_nanos),
                    pct(ph.apply_dst_nanos),
                    pct(ph.barrier_nanos),
                );
                Obj::new()
                    .with("local_nanos", ph.local_nanos)
                    .with("decide_nanos", ph.decide_nanos)
                    .with("apply_src_nanos", ph.apply_src_nanos)
                    .with("apply_dst_nanos", ph.apply_dst_nanos)
                    .with("barrier_nanos", ph.barrier_nanos)
                    .with("barrier_fraction", fixed(ph.barrier_fraction(), 4))
            });
            points.push(
                Obj::new()
                    .with("threads", threads)
                    .with("oversubscribed", oversubscribed)
                    .with("cycles_per_sec", fixed(p.cps(), 0))
                    .with("speedup_vs_active", fixed(p.cps() / active.cps(), 3))
                    .with("phases", phases),
            );
        }
        writeln!(r, "               ({detail})")?;
        parallel_workloads.push(
            Obj::new()
                .with("name", name)
                .with("cycles", active.fingerprint.cycles)
                .with("active_cycles_per_sec", fixed(active.cps(), 0))
                .with("threads", points),
        );
    }

    // On a multi-core host the batched-window engine must not lose to
    // its own single-thread configuration on the saturated mesh — that
    // was the whole point of killing the per-cycle barriers. Smoke runs
    // are too short for a strict comparison, so they get a tolerance.
    if host_cpus >= 2 {
        let rate = |t: usize| sea_rates.iter().find(|p| p.0 == t).map(|p| p.1);
        if let (Some(r1), Some(r2)) = (rate(1), rate(2)) {
            let floor = if scale == 1 { 0.8 * r1 } else { r1 };
            assert!(
                r2 > floor,
                "saturated 32x32: threads=2 ({r2:.0} c/s) is not faster than \
                 threads=1 ({r1:.0} c/s) on a {host_cpus}-CPU host"
            );
        }
    }

    // System-level idle fast-forward: same workload, stepped vs jumped.
    let runs = 4 * scale;
    let (mut cycles, mut ff_secs, mut st_secs) = (0u64, 0.0f64, 0.0f64);
    for _ in 0..runs {
        let (c, s) = multinoc_run(true);
        let (c2, s2) = multinoc_run(false);
        assert_eq!(
            c, c2,
            "fast-forward and single-stepping disagree on elapsed cycles"
        );
        cycles += c;
        ff_secs += s;
        st_secs += s2;
    }
    let (ff_cps, st_cps) = (cycles as f64 / ff_secs, cycles as f64 / st_secs);
    writeln!(
        r,
        "\n  multinoc idle fast-forward ({runs} host-driven runs over a\n\
         115200-baud link with 8% packet drops, {} cycles each):\n\
         stepped {st_cps:.0} c/s, fast-forwarded {ff_cps:.0} c/s \
         ({:.1}x)",
        cycles / runs,
        ff_cps / st_cps
    )?;

    let (sent, retained, evicted, window) = bounded_stats(20_000 * scale);
    writeln!(
        r,
        "\n  bounded statistics: {sent} packets sent, {retained} records\n\
         retained (window {window}), {evicted} evicted into streaming\n\
         aggregates — per-packet memory is O(window), not O(traffic)"
    )?;
    let rss = peak_rss_kib();
    match rss {
        Some(kib) => writeln!(r, "  peak RSS proxy (VmHWM): {kib} KiB")?,
        None => writeln!(r, "  peak RSS proxy unavailable (no /proc/self/status)")?,
    }

    workloads.push(
        Obj::new()
            .with("name", "multinoc_idle")
            .with("cycles", cycles)
            .with("reference_cycles_per_sec", fixed(st_cps, 0))
            .with("active_cycles_per_sec", fixed(ff_cps, 0))
            .with("speedup", fixed(ff_cps / st_cps, 2))
            .with("peak_rss_kib", rss),
    );
    let bounded = Obj::new()
        .with("packets_sent", sent)
        .with("records_retained", retained)
        .with("records_evicted", evicted)
        .with("stats_window", window);
    let perf_json = Obj::new()
        .with("experiment", "E20 simulation-kernel performance")
        .with("seed", SEED)
        .with("scale", scale)
        .with("workloads", workloads)
        .with("bounded_stats", bounded)
        .with("peak_rss_kib", rss);
    r.artifact("BENCH_perf.json", perf_json.render());
    let parallel_json = Obj::new()
        .with("experiment", "E20 parallel-kernel thread sweep")
        .with("seed", SEED)
        .with("scale", scale)
        .with("host_cpus", host_cpus)
        .with("sweep_clamped_to_host", true)
        .with(
            "note",
            "all kernels asserted bit-identical before any rate; \
             thread counts clamped to host parallelism (one oversubscribed point \
             kept, flagged); speedups are wall-clock observations of this host, \
             not assertions",
        )
        .with("workloads", parallel_workloads);
    r.artifact("BENCH_parallel.json", parallel_json.render());
    Ok(())
}
