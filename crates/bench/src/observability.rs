//! E21 and E25 — observability: the packet-lifecycle tracer, the metrics
//! registry, interval telemetry with congestion analytics, causal
//! service spans and the combined Perfetto exporter, demonstrated
//! end-to-end and held to the same determinism contract as the
//! simulation itself.
//!
//! E21 has four sections, E25 one:
//!
//! 1. **Determinism** — healthy, faulted, degraded, torus and chiplet
//!    workloads each run under every kernel; the exported
//!    Perfetto document, Prometheus exposition and metrics JSON must be
//!    byte-identical across all of them (the span stream rides the same
//!    `ShardDelta` merge as the simulation state), and every Perfetto
//!    document must satisfy the Chrome trace-event schema.
//! 2. **Overhead** — the same saturated workload with tracing off and
//!    on; the simulated outcome must be identical and the wall-clock
//!    cost of the instrumentation is reported, never asserted.
//! 3. **Heatmap** — per-link utilization consumed *from the metrics
//!    registry's own JSON exposition* (parsed with the dependency-free
//!    validator), rendered as a mesh heatmap and dumped to
//!    `HEATMAP_utilization.txt`.
//! 4. **System export** — a full MultiNoC boot-and-run traced at both
//!    layers with causal service spans; the combined document (hermes
//!    packet spans + multinoc service instants + span slices with flow
//!    arrows binding each request to its packets) lands in
//!    `TRACE_perfetto.json` (openable in ui.perfetto.dev) with the
//!    metrics snapshot in `METRICS_observability.json` / `.prom`.
//! 5. **Telemetry (E25)** — the interval sampler swept across kernels
//!    *and* batch windows on a hotspot mesh, a torus and a chiplet
//!    mesh-of-meshes; the time-series JSON and Prometheus expositions
//!    must be byte-identical everywhere (sampling happens only at fully
//!    merged cycle boundaries, so no parallel window ever straddles
//!    one), the hotspot workload must trip the sustained-congestion
//!    alarm, and the hotspot series lands in
//!    `TIMESERIES_observability.json` / `.prom` plus the human-readable
//!    `RUN_REPORT_observability.md` built back out of the exported
//!    artifact.

use std::fmt::Write as _;
use std::time::Instant;

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{
    D2dChannel, KernelMode, Noc, NocConfig, Packet, Port, RouterAddr, Routing, TelemetryConfig,
    Topology,
};
use multinoc::serial::SerialConfig;
use multinoc::{NodeId, System};
use r8::asm::assemble;

use crate::json::{parse, validate_time_series_json, validate_trace_event_json, Json};
use crate::{agree, kernels, table_row, BoxError, Report, Scale};

/// Seed shared by every workload.
const SEED: u64 = 0xE21_0B5;

/// One deterministic workload the determinism section replays per kernel.
struct Workload {
    name: &'static str,
    config: NocConfig,
    plan: Option<FaultPlan>,
    packets: u64,
    spacing: u64,
    cycles: u64,
}

/// `(name, config, fault plan, packets, spacing, cycles)`, with packets
/// and cycles multiplied by `scale`.
fn workload(
    scale: u64,
    (name, config, plan, packets, spacing, cycles): (
        &'static str,
        NocConfig,
        Option<FaultPlan>,
        u64,
        u64,
        u64,
    ),
) -> Workload {
    Workload {
        name,
        config,
        plan,
        packets: packets * scale,
        spacing,
        cycles: cycles * scale,
    }
}

/// The determinism section's workloads; the last two (torus and chiplet)
/// also feed the telemetry section.
fn workloads(scale: u64) -> Vec<Workload> {
    let faulted = FaultPlan::new(SEED)
        .with_drop_rate(0.1)
        .with_corrupt_rate(0.1)
        .with_router_stall(RouterAddr::new(1, 1), CycleWindow::new(100, 600));
    let dead_link = FaultPlan::new(SEED ^ 0xDE6).with_link_down(
        RouterAddr::new(1, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    let chiplet = NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial);
    let ft = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    [
        ("healthy", NocConfig::mesh(4, 4), None, 40, 9, 2_000),
        (
            "faulted",
            NocConfig::mesh(3, 3),
            Some(faulted),
            30,
            17,
            1_500,
        ),
        ("degraded", ft, Some(dead_link), 30, 23, 2_000),
        ("torus", NocConfig::torus(4, 4), None, 40, 11, 2_000),
        ("chiplet", chiplet, None, 40, 11, 2_000),
    ]
    .into_iter()
    .map(|w| workload(scale, w))
    .collect()
}

/// Builds `w`'s network under `kernel`, then injects packet `k` at cycle
/// `k * spacing` between the router indices `route(k, routers)`.
fn drive(
    w: &Workload,
    config: NocConfig,
    setup: impl FnOnce(&mut Noc),
    route: impl Fn(u64, u64) -> (u64, u64),
) -> Noc {
    let mut noc = Noc::new(config).expect("valid config");
    setup(&mut noc);
    if let Some(plan) = &w.plan {
        noc.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    let width = w.config.width();
    let nodes = u64::from(width) * u64::from(w.config.height());
    let mut next = 0u64;
    for cycle in 0..w.cycles {
        while next < w.packets && next * w.spacing == cycle {
            let (s, d) = route(next, nodes);
            let packet = Packet::new(addr_of(d, width), vec![(next % 200) as u16; 3]);
            let _ = noc.send(addr_of(s, width), packet);
            next += 1;
        }
        noc.step();
    }
    noc
}

/// Runs one workload under one kernel with tracing on and returns the
/// three exported artifacts.
fn run_traced(w: &Workload, kernel: KernelMode) -> (String, String, String) {
    let noc = drive(
        w,
        w.config.clone().with_kernel_mode(kernel),
        |noc| noc.enable_packet_trace(2_048),
        |k, nodes| (k % nodes, (k * 7 + 3) % nodes),
    );
    let metrics = noc.metrics();
    (
        noc.packet_trace().expect("enabled").perfetto_json(),
        metrics.to_prometheus(),
        metrics.to_json(),
    )
}

fn addr_of(index: u64, width: u8) -> RouterAddr {
    RouterAddr::new(
        (index % u64::from(width)) as u8,
        (index / u64::from(width)) as u8,
    )
}

/// Batch windows the telemetry section sweeps: fine-grained and the
/// production default. The sampler clamps every parallel window to the
/// next sample boundary, so both must export identical bytes.
const BATCH_WINDOWS: [u32; 2] = [1, 16];

/// Workloads for the telemetry section: a hotspot mesh that funnels
/// every packet at router (0,0) to trip the congestion alarm, plus the
/// torus and chiplet topologies so the exported labels carry `:wrap`
/// and `:d2d` annotations.
fn telemetry_workloads(scale: u64) -> Vec<Workload> {
    let hotspot = ("hotspot", NocConfig::mesh(4, 4), None, 600, 2, 2_000);
    let mut all = workloads(scale);
    all.retain(|w| matches!(w.name, "torus" | "chiplet"));
    all.insert(0, workload(scale, hotspot));
    all
}

/// The exported telemetry of one workload under one kernel and batch
/// window, plus the sampler counters the report summarizes.
#[derive(Debug, PartialEq)]
struct TelemetryRun {
    json: String,
    prom: String,
    frames: u64,
    alerts_raised: u64,
    alerts_cleared: u64,
}

/// Runs one workload with the interval sampler on and returns its
/// exports. The `hotspot` workload aims every packet at router (0,0)
/// from sources off row 0, so with XY routing the whole load converges
/// on the single (0,1)->(0,0) link and holds it saturated — the
/// sustained-congestion alarm must trip. The rest scatter packets from
/// every router but 0.
fn run_telemetry(w: &Workload, kernel: KernelMode, batch_window: u32) -> TelemetryRun {
    let width = u64::from(w.config.width());
    let hotspot = w.name == "hotspot";
    let config = w.config.clone().with_kernel_mode(kernel);
    let noc = drive(
        w,
        config.with_batch_window(batch_window),
        |noc| noc.enable_telemetry(TelemetryConfig::default()),
        |k, nodes| {
            if hotspot {
                (width + k % (nodes - width), 0)
            } else {
                (1 + k % (nodes - 1), (k * 7 + 3) % nodes)
            }
        },
    );
    let telemetry = noc.telemetry().expect("enabled");
    TelemetryRun {
        frames: telemetry.frames_total(),
        alerts_raised: telemetry.alerts_raised(),
        alerts_cleared: telemetry.alerts_cleared(),
        json: noc.telemetry_json().expect("enabled"),
        prom: noc.telemetry_prometheus().expect("enabled"),
    }
}

/// Saturated 8×8 run for the overhead section; returns the observables
/// that must not move when tracing is enabled, plus the wall clock.
fn overhead_run(traced: bool, cycles: u64) -> ((u64, u64, u64, u64), f64) {
    let mut noc = Noc::new(NocConfig::mesh(8, 8)).expect("valid mesh");
    if traced {
        noc.enable_packet_trace(4_096);
    }
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 4, SEED ^ 0x0EE);
    let start = Instant::now();
    gen.drive(&mut noc, cycles, 1_000_000).expect("drive");
    let seconds = start.elapsed().as_secs_f64();
    let s = noc.stats();
    (
        (s.cycles, s.packets_sent, s.packets_delivered, s.flit_hops),
        seconds,
    )
}

/// Pulls every `hermes_link_utilization` sample out of the registry's
/// JSON exposition — the heatmap deliberately consumes the exported
/// artifact, not the simulator's internals. Labels are decoded through
/// `Topology::parse_link_label`, so the one code path handles the mesh
/// `"xy:Port"` form, the torus `":wrap"` suffix and the hierarchical
/// chiplet `"c<cx><cy>.<lx><ly>:Port[:d2d]"` form alike.
fn link_utilization_from_json(
    metrics_json: &str,
    topology: &Topology,
) -> Vec<(RouterAddr, Port, f64)> {
    let doc = parse(metrics_json).expect("registry JSON parses");
    let families = doc
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("a metrics array");
    let mut out = Vec::new();
    for family in families {
        if family.get("name").and_then(Json::as_str) != Some("hermes_link_utilization") {
            continue;
        }
        for sample in family.get("samples").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = sample
                .get("labels")
                .and_then(|l| l.get("link"))
                .and_then(Json::as_str)
                .expect("a link label");
            let value = sample.get("value").and_then(Json::as_num).expect("a value");
            let (addr, port) = topology
                .parse_link_label(label)
                .unwrap_or_else(|| panic!("exported label {label} names no {topology} link"));
            out.push((addr, port, value));
        }
    }
    out
}

/// Everything section 4 exports from one full-system run, compared
/// byte-for-byte across kernels.
#[derive(Debug, PartialEq)]
struct SystemRun {
    perfetto: String,
    metrics_json: String,
    metrics_prom: String,
    spans_total: u64,
    spans_completed: u64,
    span_retransmissions: u64,
    span_redirects: u64,
}

/// A full MultiNoC system run traced at both layers under `kernel`:
/// boots the paper layout, runs a program on P1 that walks the remote
/// memory IP (write-in-memory, read-from-memory, read-return services
/// over the NoC), and exports the combined trace plus the metrics
/// snapshot. Causal service spans are on, so the Perfetto document also
/// carries one slice per request with flow arrows into its packets.
fn system_run(kernel: KernelMode) -> SystemRun {
    let mut sys = System::builder()
        .noc(NocConfig::multinoc().with_kernel_mode(kernel))
        .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    sys.enable_trace(1_024);
    sys.enable_packet_trace(1_024);
    sys.enable_service_spans(1_024);
    // Eight remote stores then eight remote loads: every iteration is a
    // full NoC service round trip to the memory IP at 0x0800.
    let program = assemble(
        "LIW R2, 0x800\n\
         LIW R1, 8\n\
         XOR R0, R0, R0\n\
         wr: ST R1, R2, R0\n\
         ADDI R0, 1\n\
         SUBI R1, 1\n\
         JMPZD rd\n\
         JMPD wr\n\
         rd: LIW R1, 8\n\
         XOR R0, R0, R0\n\
         rl: LD R3, R2, R0\n\
         ADDI R0, 1\n\
         SUBI R1, 1\n\
         JMPZD done\n\
         JMPD rl\n\
         done: HALT",
    )
    .expect("assembles");
    sys.memory_mut(NodeId(1))
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.activate_directly(NodeId(1)).expect("activates");
    sys.run_until_halted(10_000_000).expect("halts");
    let snapshot = sys.metrics_snapshot();
    let spans = sys.service_spans().expect("spans enabled");
    SystemRun {
        spans_total: spans.spans_total(),
        spans_completed: spans.completed(),
        span_retransmissions: spans.retransmissions(),
        span_redirects: spans.redirects(),
        perfetto: sys.perfetto_json(),
        metrics_json: snapshot.to_json(),
        metrics_prom: snapshot.to_prometheus(),
    }
}

/// Renders `RUN_REPORT_observability.md` from the *exported* artifacts:
/// the time-series JSON is parsed back with the dependency-free
/// validator (never read from simulator internals) and the per-interval
/// heatmap sections are reconstructed from frame link data through
/// `Topology::parse_link_label`, the same decoding path downstream
/// tooling would use.
fn run_report(ts_json: &str, config: &NocConfig, system: &SystemRun, scale: u64) -> String {
    let doc = parse(ts_json).expect("time-series JSON parses");
    let ts = doc.get("time_series").expect("a time_series object");
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
    let frames = ts
        .get("frames")
        .and_then(Json::as_arr)
        .expect("a frames array");
    let hotspots = ts
        .get("hotspots")
        .and_then(Json::as_arr)
        .expect("a hotspots array");
    let alerts = ts
        .get("alerts")
        .and_then(Json::as_arr)
        .expect("an alerts array");
    let interval = num(ts, "interval");
    let (width, height) = (config.width(), config.height());

    let mut out = String::from("# Observability run report (E21/E25)\n\n");
    let _ = writeln!(
        out,
        "Seed `{SEED:#x}`, scale {scale}x. Every table below is rebuilt from \
         `TIMESERIES_observability.json` and the system-run exports; all of \
         them are byte-identical across the reference, active and parallel \
         kernels at any thread count and batch window.\n"
    );

    out.push_str("## Time series (hotspot mesh, all packets aimed at router 0.0)\n\n");
    out.push_str("| sample interval | frames | alerts raised | alerts cleared |\n");
    out.push_str("|---|---|---|---|\n");
    let _ = writeln!(
        out,
        "| {interval} cycles | {} | {} | {} |\n",
        num(ts, "frames_total"),
        num(ts, "alerts_raised_total"),
        num(ts, "alerts_cleared_total")
    );

    out.push_str("## Congestion hotspots (EWMA permille at end of run)\n\n");
    out.push_str("| link | ewma permille |\n|---|---|\n");
    for h in hotspots {
        let label = h.get("link").and_then(Json::as_str).expect("a link label");
        let _ = writeln!(out, "| `{label}` | {} |", num(h, "ewma_permille"));
    }
    if hotspots.is_empty() {
        out.push_str("| (none tracked) | |\n");
    }
    out.push('\n');

    out.push_str("## Congestion alerts\n\n");
    out.push_str("| frame | cycle | link | ewma permille | kind |\n|---|---|---|---|---|\n");
    const ALERT_ROWS: usize = 16;
    for a in alerts.iter().take(ALERT_ROWS) {
        let label = a.get("link").and_then(Json::as_str).expect("a link label");
        let kind = a.get("kind").and_then(Json::as_str).expect("a kind");
        let _ = writeln!(
            out,
            "| {} | {} | `{label}` | {} | {kind} |",
            num(a, "frame"),
            num(a, "cycle"),
            num(a, "ewma_permille")
        );
    }
    if alerts.len() > ALERT_ROWS {
        let _ = writeln!(out, "\n… and {} more alerts.", alerts.len() - ALERT_ROWS);
    }
    out.push('\n');

    out.push_str("## Per-interval link heatmap\n\n");
    let _ = writeln!(
        out,
        "Busiest outgoing link per router, in permille of capacity, one \
         grid per sampled interval (up to 8 of {} frames shown; row y={} \
         on top, the hotspot sink 0.0 is bottom-left).\n",
        frames.len(),
        height - 1
    );
    let step = frames.len().div_ceil(8).max(1);
    for f in frames.iter().step_by(step) {
        let _ = writeln!(
            out,
            "### frame {} (cycles {}..={})\n",
            num(f, "index"),
            num(f, "start"),
            num(f, "end")
        );
        let mut peak = vec![0u64; usize::from(width) * usize::from(height)];
        for link in f.get("links").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = link
                .get("link")
                .and_then(Json::as_str)
                .expect("a link label");
            let (addr, _) = config
                .topology
                .parse_link_label(label)
                .unwrap_or_else(|| panic!("exported label {label} names no link"));
            let idx = usize::from(addr.y()) * usize::from(width) + usize::from(addr.x());
            peak[idx] = peak[idx].max(num(link, "utilization_permille"));
        }
        out.push_str("```\n");
        for y in (0..height).rev() {
            for x in 0..width {
                let idx = usize::from(y) * usize::from(width) + usize::from(x);
                let _ = write!(out, "[{:>4}] ", peak[idx]);
            }
            out.push('\n');
        }
        out.push_str("```\n\n");
        let latency = f.get("latency").expect("a latency object");
        let _ = writeln!(
            out,
            "{} packets delivered this interval (latency sum {} cycles).\n",
            num(latency, "packets"),
            num(latency, "sum_cycles")
        );
    }

    out.push_str("## Causal service spans (full MultiNoC boot-and-run)\n\n");
    out.push_str("| spans | completed | retransmissions | redirects |\n|---|---|---|---|\n");
    let _ = writeln!(
        out,
        "| {} | {} | {} | {} |\n",
        system.spans_total,
        system.spans_completed,
        system.span_retransmissions,
        system.span_redirects
    );
    out.push_str(
        "Each span is one request id linked by Perfetto flow arrows to every \
         packet it put on the wire; open `TRACE_perfetto.json` in \
         ui.perfetto.dev and follow the arrows from the `multinoc spans` \
         track into the per-link packet tracks.\n\n",
    );

    out.push_str("## Artifacts\n\n");
    out.push_str(
        "- `TIMESERIES_observability.json` — schema-validated time series \
         (frames, hotspots, alerts)\n\
         - `TIMESERIES_observability.prom` — the same series as Prometheus \
         exposition with timestamps in cycles\n\
         - `TRACE_perfetto.json` — packet spans + service instants + causal \
         service spans with flow arrows\n\
         - `METRICS_observability.json` / `.prom` — end-of-run metrics \
         registry snapshot\n\
         - `HEATMAP_utilization.txt` — per-link utilization dump for the \
         degraded, torus and chiplet workloads\n",
    );
    out
}

/// E21 — packet traces, metrics and the combined Perfetto export,
/// byte-identical across kernels; writes the heatmap, trace and metrics
/// artifacts.
pub fn observability(s: Scale, r: &mut Report) -> Result<(), BoxError> {
    let scale = s.pick(1, 8);
    let kernel_set = kernels(s);
    writeln!(
        r,
        "E21: observability (seed {SEED:#x}, scale {scale}x)\n\
         every export is checked byte-identical across kernels and\n\
         validated against the Chrome trace-event schema\n"
    )?;

    // 1. Determinism of the exported artifacts.
    table_row!(
        r,
        "workload",
        "trace events",
        "trace bytes",
        "kernels",
        "verdict"
    );
    let mut metrics_by_name: std::collections::BTreeMap<&'static str, (Topology, String)> =
        std::collections::BTreeMap::new();
    for w in workloads(scale) {
        let (perfetto, _, metrics_json) = agree(kernel_set, |kernel| run_traced(&w, kernel));
        let events = validate_trace_event_json(&perfetto)
            .unwrap_or_else(|e| panic!("{}: schema violation: {e}", w.name));
        parse(&metrics_json).expect("metrics JSON parses");
        table_row!(
            r,
            w.name,
            events,
            perfetto.len(),
            kernel_set.len(),
            "identical"
        );
        metrics_by_name.insert(w.name, (w.config.topology, metrics_json));
    }

    // 2. Instrumentation overhead: same simulated outcome, reported (not
    // asserted) wall-clock cost.
    let cycles = 3_000 * scale;
    let (off_obs, off_secs) = overhead_run(false, cycles);
    let (on_obs, on_secs) = overhead_run(true, cycles);
    assert_eq!(
        off_obs, on_obs,
        "enabling the tracer changed the simulated outcome"
    );
    writeln!(
        r,
        "\noverhead: saturated 8x8, {} cycles, {} packets —\n\
         tracing off {:.0} c/s, on {:.0} c/s ({:+.1}% wall clock);\n\
         simulated observables identical",
        off_obs.0,
        off_obs.1,
        off_obs.0 as f64 / off_secs,
        on_obs.0 as f64 / on_secs,
        100.0 * (on_secs / off_secs - 1.0),
    )?;

    // 3. Per-link utilization heatmap, consumed from the registry JSON.
    let (degraded_topology, degraded_metrics_json) = metrics_by_name
        .get("degraded")
        .expect("degraded workload ran");
    let mut links = link_utilization_from_json(degraded_metrics_json, degraded_topology);
    links.sort_by(|a, b| b.2.total_cmp(&a.2));
    writeln!(
        r,
        "\nlink-utilization heatmap (degraded 3x3, busiest outgoing\n\
         mesh link per router, % of capacity; X marks the dead link):"
    )?;
    let mut dump = String::from("link utilization (degraded 3x3 fault-tolerant mesh)\n");
    for (addr, port, util) in &links {
        let _ = writeln!(dump, "{addr}:{port} {util:.4}");
    }
    for y in (0..3u8).rev() {
        let mut row = String::from("  ");
        for x in 0..3u8 {
            let here = RouterAddr::new(x, y);
            let peak = links
                .iter()
                .filter(|(a, p, _)| *a == here && *p != Port::Local)
                .map(|(_, _, u)| *u)
                .fold(0.0f64, f64::max);
            let marker = if x == 1 && y == 1 { "X" } else { " " };
            let _ = write!(row, "[{:>3.0}%{marker}] ", peak * 100.0);
        }
        writeln!(r, "{row}")?;
    }
    let hottest = links.first().expect("at least one link");
    writeln!(
        r,
        "  hottest link {}:{} at {:.1}% — traffic detours around the dead",
        hottest.0,
        hottest.1,
        hottest.2 * 100.0
    )?;
    writeln!(
        r,
        "  (1,1)->East link, exactly what the fault-tolerant router promises"
    )?;

    // 3b. Topology-labelled heatmaps: the same exporter path decodes
    // the torus ":wrap" and hierarchical chiplet ":d2d" names, and the
    // dump echoes the labels verbatim so downstream tooling sees them.
    for name in ["torus", "chiplet"] {
        let (topology, metrics_json) = metrics_by_name.get(name).expect("workload ran");
        let mut links = link_utilization_from_json(metrics_json, topology);
        links.sort_by(|a, b| b.2.total_cmp(&a.2));
        let _ = writeln!(dump, "\nlink utilization ({topology})");
        for (addr, port, util) in &links {
            let _ = writeln!(dump, "{} {util:.4}", topology.link_label((*addr, *port)));
        }
        let special =
            |a: RouterAddr, p: Port| topology.is_wraparound(a, p) || topology.is_off_chip(a, p);
        let hottest_special = links
            .iter()
            .find(|(a, p, _)| special(*a, *p))
            .expect("uniform traffic crosses wrap/off-chip links");
        writeln!(
            r,
            "  {name}: hottest {} link {} at {:.1}% of capacity",
            if topology.is_off_chip(hottest_special.0, hottest_special.1) {
                "off-chip"
            } else {
                "wraparound"
            },
            topology.link_label((hottest_special.0, hottest_special.1)),
            hottest_special.2 * 100.0
        )?;
    }
    r.artifact("HEATMAP_utilization.txt", dump);

    // 4. Combined system export, again identical across kernels — now
    // including the causal service spans and their flow arrows.
    let system = agree(kernel_set, system_run);
    let events = validate_trace_event_json(&system.perfetto)?;
    assert!(
        system.perfetto.contains("\"ph\":\"X\"") && system.perfetto.contains("\"ph\":\"i\""),
        "the combined export carries both packet spans and service instants"
    );
    assert!(
        system.perfetto.contains("\"ph\":\"s\"")
            && system.perfetto.contains("\"ph\":\"t\"")
            && system.perfetto.contains("\"ph\":\"f\""),
        "the combined export carries span flow arrows (start/step/finish)"
    );
    assert!(
        system.spans_completed > 0,
        "the remote-memory program must complete service spans"
    );
    writeln!(
        r,
        "\nsystem export: {} trace events ({} bytes) from a full boot-and-run,\n\
         packet spans, service instants and {} causal service spans\n\
         ({} completed) interleaved, byte-identical across kernels",
        events,
        system.perfetto.len(),
        system.spans_total,
        system.spans_completed
    )?;
    r.artifact("TRACE_perfetto.json", system.perfetto);
    r.artifact("METRICS_observability.json", system.metrics_json);
    r.artifact("METRICS_observability.prom", system.metrics_prom);
    Ok(())
}

/// E25 — interval telemetry and congestion analytics, swept across
/// kernels and batch windows. Sampling happens only at fully merged
/// cycle boundaries (parallel windows are clamped so none straddles
/// one), so every export must be byte-identical. Writes the hotspot
/// time series and the run report rebuilt from it.
pub fn telemetry(s: Scale, r: &mut Report) -> Result<(), BoxError> {
    let scale = s.pick(1, 8);
    let kernel_set = kernels(s);
    writeln!(r, "E25: interval telemetry across kernels x batch windows")?;
    table_row!(r, "workload", "frames", "raised", "cleared", "runs", "verdict");
    let mut hotspot_series: Option<(TelemetryRun, NocConfig)> = None;
    for w in telemetry_workloads(scale) {
        let series = agree(kernel_set, |kernel| {
            let [first, rest @ ..] = BATCH_WINDOWS.map(|window| run_telemetry(&w, kernel, window));
            for (got, window) in rest.iter().zip(&BATCH_WINDOWS[1..]) {
                assert_eq!(
                    &first, got,
                    "{}: time series diverged ({kernel:?}, window {window})",
                    w.name
                );
            }
            first
        });
        let retained = validate_time_series_json(&series.json)
            .unwrap_or_else(|e| panic!("{}: time-series schema violation: {e}", w.name));
        assert_eq!(
            retained as u64,
            series.frames.min(1_024),
            "{}: exported frame count disagrees with the sampler",
            w.name
        );
        table_row!(
            r,
            w.name,
            series.frames,
            series.alerts_raised,
            series.alerts_cleared,
            kernel_set.len() * BATCH_WINDOWS.len(),
            "identical"
        );
        if w.name == "hotspot" {
            assert!(
                series.alerts_raised > 0,
                "the hotspot workload must trip the sustained-congestion alarm"
            );
            hotspot_series = Some((series, w.config));
        }
    }
    let (hotspot, hotspot_config) = hotspot_series.expect("hotspot workload ran");
    // The spans section of the report: E21 proves the system run is
    // kernel-independent, so one run under the default kernel serves.
    let system = system_run(KernelMode::Active);
    let report = run_report(&hotspot.json, &hotspot_config, &system, scale);
    writeln!(
        r,
        "\nrun report: {} bytes of markdown rebuilt from the exported\n\
         time series (not from simulator internals)",
        report.len()
    )?;
    r.artifact("TIMESERIES_observability.json", hotspot.json);
    r.artifact("TIMESERIES_observability.prom", hotspot.prom);
    r.artifact("RUN_REPORT_observability.md", report);
    Ok(())
}
