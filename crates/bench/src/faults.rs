//! Fault-tolerance experiments: E18 fault sweep, E19 graceful
//! degradation and E22 chaos (node death under replicated memory).

use std::fmt::Write as _;

use hermes_noc::{
    CycleWindow, FaultPlan, KernelMode, NocConfig, Port, RouteTable, RouterAddr, Routing, Topology,
};
use multinoc::{host::Host, NodeId, System, SystemError, REMOTE_MEMORY};
use prng::Xorshift64;
use r8::asm::assemble;

use crate::{agree, fixed, kernels, BoxError, Obj, Report, Scale};

/// `OPS` host write+read-back round trips of `WORDS` words each to
/// `memory`, stamping `tag` into every word: returns how many read back
/// exactly what was written, and the typed error that aborted the batch
/// (the remaining operations count as undelivered).
fn round_trips(
    system: &mut System,
    host: &mut Host,
    memory: NodeId,
    ops: usize,
    tag: u16,
) -> (usize, Option<SystemError>) {
    const WORDS: u16 = 8;
    let mut delivered = 0;
    for op in 0..ops {
        let addr = 0x100 + (op as u16) * WORDS;
        let data: Vec<u16> = (0..WORDS)
            .map(|i| (op as u16) << 8 | u16::from(i as u8) | tag)
            .collect();
        let attempt = host
            .write_memory(system, memory, addr, &data)
            .and_then(|()| host.read_memory(system, memory, addr, WORDS as usize));
        match attempt {
            Ok(read_back) if read_back == data => delivered += 1,
            Ok(_) => {} // silently wrong data would be a checksum escape
            Err(e) => return (delivered, Some(e)),
        }
    }
    (delivered, None)
}

/// E18 seed, shared by every configuration of the sweep.
const SWEEP_SEED: u64 = 0x4D0C_FA17;
/// E18 write+read round trips attempted per configuration.
const SWEEP_OPS: usize = 12;

/// `(label, per-flit corrupt rate, per-hop drop rate)`.
const POINTS: &[(&str, f64, f64)] = &[
    ("fault-free", 0.0, 0.0),
    ("corrupt 0.5%", 0.005, 0.0),
    ("drop 2%", 0.0, 0.02),
    ("drop 10%", 0.0, 0.10),
    ("corrupt 1% + drop 5%", 0.01, 0.05),
    // Per flit per hop, 2% corruption hits ~60% of the packets of an
    // 8-word transaction on every attempt — past the default retry
    // budget, like the half-dead network below.
    ("corrupt 2% (beyond budget)", 0.02, 0.0),
    ("drop 50% (beyond budget)", 0.0, 0.50),
];

fn fault_sweep_text() -> Result<String, SystemError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E18: {SWEEP_OPS} host write+read round trips (8 words each) to the remote\n\
         memory IP per fault configuration, seed {SWEEP_SEED:#x}\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "configuration", "delivered", "retx", "acked", "ckdrop", "pktdrop", "corrupt"
    );
    for &(label, corrupt, drop) in POINTS {
        let mut system = System::paper_config()?;
        system.set_fault_plan(
            FaultPlan::new(SWEEP_SEED)
                .with_corrupt_rate(corrupt)
                .with_drop_rate(drop),
        )?;
        let mut host = Host::new().with_budget(2_000_000);
        host.synchronize(&mut system)?;
        let (delivered, error) =
            round_trips(&mut system, &mut host, REMOTE_MEMORY, SWEEP_OPS, 0x4000);
        let retries = system.retry_counters();
        let faults = &system.noc_stats().faults;
        let _ = writeln!(
            out,
            "{:<28} {:>5}/{:<3} {:>8} {:>8} {:>8} {:>8} {:>8}",
            label,
            delivered,
            SWEEP_OPS,
            retries.retransmissions,
            retries.acked,
            system.service_counters().corrupt_dropped(),
            faults.packets_dropped,
            faults.flits_corrupted
        );
        if let Some(e) = error {
            let _ = writeln!(out, "{:<28} ^ aborted with typed error: {e}", "");
        }
    }
    let _ = writeln!(
        out,
        "\nAt rate zero every operation lands with zero retransmissions; at\n\
         moderate rates the checksum/ack/retry layer recovers every lost or\n\
         corrupted packet (delivered stays {SWEEP_OPS}/{SWEEP_OPS} while retx > 0); past the\n\
         retry budget the failure surfaces as a typed error — never a hang\n\
         and never a silent wrong answer."
    );
    Ok(out)
}

/// E18 (extension) — fault-injection sweep: delivered-operation rate of
/// host write/read round trips against the remote memory IP as the
/// network's per-flit corruption rate and per-hop packet-drop rate grow.
///
/// The experiment exercises the whole robustness stack end to end: the
/// deterministic fault injector in the Hermes model, checksum detection
/// of corrupted packets, acknowledgement/timeout retransmission at the
/// serial IP, duplicate suppression at the memory IP, and the typed
/// failure surface (`DeliveryFailed`) past the recoverable regime.
pub fn fault_sweep(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    let text = r.same_seed_twice(fault_sweep_text)?;
    r.text.push_str(&text);
    Ok(())
}

/// E19 seed, shared by every configuration of the sweep.
const DEGRADE_SEED: u64 = 0xDE6A_DE19;
/// E19 write+read round trips attempted per trial.
const DEGRADE_OPS: usize = 6;
/// Independent failure-set draws aggregated per (mesh, failure count).
const TRIALS: usize = 3;

/// Every undirected mesh edge, named by its East/North-facing channel.
fn edges(n: u8) -> Vec<(RouterAddr, Port)> {
    let mut out = Vec::new();
    for y in 0..n {
        for x in 0..n {
            if x + 1 < n {
                out.push((RouterAddr::new(x, y), Port::East));
            }
            if y + 1 < n {
                out.push((RouterAddr::new(x, y), Port::North));
            }
        }
    }
    out
}

/// Whether killing `dead` still leaves every router pair connected.
fn connected(n: u8, dead: &[(RouterAddr, Port)]) -> bool {
    let dead: std::collections::BTreeSet<_> = dead.iter().copied().collect();
    let table = RouteTable::build(
        &Topology::Mesh {
            width: n,
            height: n,
        },
        &dead,
    );
    let routers: Vec<RouterAddr> = (0..n * n).map(|a| RouterAddr::new(a % n, a / n)).collect();
    routers
        .iter()
        .all(|&src| routers.iter().all(|&dst| table.reachable(src, dst)))
}

/// Draws a non-partitioning set of `count` distinct edges, or `None` if
/// the bounded deterministic search finds none (e.g. 2 failures on 2×2).
fn draw_failures(n: u8, count: usize, prng: &mut Xorshift64) -> Option<Vec<(RouterAddr, Port)>> {
    let all = edges(n);
    if count > all.len() {
        return None;
    }
    for _ in 0..200 {
        let mut pool = all.clone();
        let mut picked = Vec::with_capacity(count);
        for _ in 0..count {
            picked.push(pool.swap_remove(prng.below(pool.len() as u64) as usize));
        }
        picked.sort();
        if connected(n, &picked) {
            return Some(picked);
        }
    }
    None
}

/// What one E19 trial measured.
struct Trial {
    delivered: usize,
    cycles: u64,
    reroute_resets: u64,
    retransmissions: u64,
    links_diagnosed: usize,
    error: Option<SystemError>,
}

/// Runs one trial: a fault-tolerant system with `dead` edges down (both
/// directions) from cycle 0, pushing the round trips from the host
/// through the serial IP to the far-corner memory.
fn degraded_trial(n: u8, dead: &[(RouterAddr, Port)]) -> Result<Trial, SystemError> {
    let mut config = NocConfig::mesh(n, n);
    config.routing = Routing::FaultTolerantXy;
    let mut system = System::builder()
        .noc(config)
        .serial_at(RouterAddr::new(0, 0))
        .memory_at(RouterAddr::new(n - 1, n - 1))
        .build()?;
    let mut plan = FaultPlan::new(DEGRADE_SEED);
    for &(addr, port) in dead {
        let (peer, back) = match port {
            Port::East => (RouterAddr::new(addr.x() + 1, addr.y()), Port::West),
            Port::North => (RouterAddr::new(addr.x(), addr.y() + 1), Port::South),
            _ => unreachable!("edges() only names East/North channels"),
        };
        plan = plan
            .with_link_down(addr, port, CycleWindow::open_ended(0))
            .with_link_down(peer, back, CycleWindow::open_ended(0));
    }
    if !dead.is_empty() {
        system.set_fault_plan(plan)?;
    }
    let mut host = Host::new().with_budget(4_000_000);
    host.synchronize(&mut system)?;

    let start = system.cycle();
    let (delivered, error) = round_trips(&mut system, &mut host, NodeId(1), DEGRADE_OPS, 0x2000);
    let retries = system.retry_counters();
    Ok(Trial {
        delivered,
        cycles: system.cycle() - start,
        reroute_resets: retries.reroute_resets,
        retransmissions: retries.retransmissions,
        links_diagnosed: system.dead_links().len(),
        error,
    })
}

fn degradation_sweep() -> Result<(String, Obj), SystemError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E19: graceful degradation under permanent link failures\n\
         {DEGRADE_OPS} host write+read round trips (8 words) per trial, {TRIALS} trials\n\
         per point, fault-tolerant XY routing, seed {DEGRADE_SEED:#x}\n"
    );
    let mut points = Vec::new();
    for n in [2u8, 3, 4] {
        let _ = writeln!(
            out,
            "{n}x{n} mesh (serial at 0.0, memory at {}.{}):",
            n - 1,
            n - 1
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>12} {:>10} {:>7} {:>7} {:>6}",
            "failures", "delivered", "cycles/op", "overhead", "resets", "retx", "dead"
        );
        let mut healthy_cycles_per_op = None;
        for failures in 0..=3usize {
            let mut prng =
                Xorshift64::new(DEGRADE_SEED ^ (u64::from(n) << 32) ^ (failures as u64 + 1));
            let mut trials = Vec::new();
            for _ in 0..TRIALS {
                let Some(dead) = draw_failures(n, failures, &mut prng) else {
                    break;
                };
                trials.push(degraded_trial(n, &dead)?);
            }
            if trials.len() < TRIALS {
                let _ = writeln!(
                    out,
                    "  {:<10} every {failures}-edge removal partitions this mesh",
                    failures
                );
                continue;
            }
            let sum = |f: fn(&Trial) -> u64| trials.iter().map(f).sum::<u64>();
            let delivered = sum(|t| t.delivered as u64);
            let retx = sum(|t| t.retransmissions);
            let resets = sum(|t| t.reroute_resets);
            let diagnosed = sum(|t| t.links_diagnosed as u64);
            let ops = DEGRADE_OPS * TRIALS;
            let per_op = sum(|t| t.cycles) as f64 / ops as f64;
            let healthy = *healthy_cycles_per_op.get_or_insert(per_op);
            let overhead = (per_op - healthy) / healthy * 100.0;
            let _ = writeln!(
                out,
                "  {:<10} {:>5}/{:<3} {:>12.1} {:>9.1}% {:>7} {:>7} {:>6}",
                failures, delivered, ops, per_op, overhead, resets, retx, diagnosed
            );
            if let Some(e) = trials.iter().find_map(|t| t.error.as_ref()) {
                let _ = writeln!(out, "  {:<10} ^ typed error: {e}", "");
            }
            points.push(
                Obj::new()
                    .with("mesh", format!("{n}x{n}"))
                    .with("failures", failures)
                    .with("delivered", delivered)
                    .with("ops", ops)
                    .with("avg_cycles_per_op", fixed(per_op, 1))
                    .with("overhead_pct", fixed(overhead, 1))
                    .with("reroute_resets", resets)
                    .with("retransmissions", retx)
                    .with("links_diagnosed", diagnosed),
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "Every non-partitioning failure set delivers all operations: the\n\
         diagnosis declares the dead links, the epoch flushes the wedged\n\
         worms, routing detours and the reliability layer absorbs the loss\n\
         as reroute resets, not failures. The cost is latency overhead,\n\
         which grows with the number of detours on the path."
    );
    let json = Obj::new()
        .with("experiment", "E19 graceful degradation")
        .with("seed", DEGRADE_SEED)
        .with("ops_per_point", DEGRADE_OPS * TRIALS)
        .with("points", points);
    Ok((out, json))
}

/// E19 (extension) — graceful degradation: delivered-operation rate and
/// latency overhead of host write/read round trips as permanent link
/// failures accumulate on 2×2..4×4 meshes under `FaultTolerantXy`.
///
/// Each configuration kills a deterministic pseudo-random set of mesh
/// edges (both directions, permanently, from cycle 0). The network's
/// online diagnosis has to notice each dead link from failed hop
/// handshakes, flush the wedged wormhole, bump the reconfiguration
/// epoch and detour later traffic — while the reliability layer resets
/// its retry clocks on the epoch change instead of burning retries.
/// Failure sets that would partition the mesh are rejected up front
/// (they are the `Unreachable` regime, not the degraded one); on the
/// 2×2 mesh every 2-edge removal partitions, which the report states
/// rather than hides. Summary: `BENCH_degradation.json`.
pub fn degradation(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    let (text, json) = r.same_seed_twice(degradation_sweep)?;
    r.text.push_str(&text);
    r.artifact("BENCH_degradation.json", json.render());
    Ok(())
}

/// E22 seed; each point derives its own stream from it.
const CHAOS_SEED: u64 = 0xC4A0_5E22;

const PROCESSOR: NodeId = NodeId(1);
const PRIMARY: NodeId = NodeId(2);
const BACKUP: NodeId = NodeId(3);

/// One mesh configuration of the chaos sweep.
struct Mesh {
    n: u8,
    primary: RouterAddr,
    backup: RouterAddr,
    /// Routers hosting no IP (victim candidates for bystander kills).
    bystanders: Vec<RouterAddr>,
}

fn meshes() -> Vec<Mesh> {
    let at = |pairs: &[(u8, u8)]| pairs.iter().map(|&(x, y)| RouterAddr::new(x, y)).collect();
    vec![
        Mesh {
            n: 2,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(1, 0),
            bystanders: vec![],
        },
        Mesh {
            n: 3,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(2, 2),
            bystanders: at(&[(2, 0), (0, 2), (1, 2)]),
        },
        Mesh {
            n: 4,
            primary: RouterAddr::new(1, 1),
            backup: RouterAddr::new(3, 3),
            bystanders: at(&[(3, 0), (0, 3), (2, 2), (3, 1)]),
        },
    ]
}

/// What a chaos trial kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kill {
    /// The serving primary's router.
    PrimaryRouter,
    /// The backup's router.
    BackupRouter,
    /// A router hosting no IP (traffic detours, nobody fails over).
    Bystander(RouterAddr),
    /// The primary's IP core only — its router keeps forwarding.
    PrimaryEndpoint,
}

impl Kill {
    fn label(self) -> String {
        match self {
            Kill::PrimaryRouter => "primary-router".into(),
            Kill::BackupRouter => "backup-router".into(),
            Kill::PrimaryEndpoint => "primary-endpoint".into(),
            Kill::Bystander(a) => format!("bystander-{a}"),
        }
    }
}

/// One fully-specified chaos trial.
struct Chaos {
    kill: Kill,
    kill_cycle: u64,
    /// Spin-loop iterations between the first write and the read-back,
    /// so the read lands before, during or after the failover.
    spin: u64,
}

fn draw_chaos(rng: &mut Xorshift64, mesh: &Mesh) -> Chaos {
    let kinds = if mesh.bystanders.is_empty() { 3 } else { 4 };
    let kill = match rng.below(kinds) {
        0 => Kill::PrimaryRouter,
        1 => Kill::BackupRouter,
        2 => Kill::PrimaryEndpoint,
        _ => Kill::Bystander(mesh.bystanders[rng.below(mesh.bystanders.len() as u64) as usize]),
    };
    Chaos {
        kill,
        kill_cycle: 200 + rng.below(4_000),
        spin: rng.below(6_000),
    }
}

/// Everything one chaos run leaves behind, rendered comparable across
/// kernels and across repeated same-seed sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    cycles: u64,
    read_back: u16,
    primary_word: Option<u16>,
    backup_word: Option<u16>,
    dead_nodes: String,
    failovers: String,
    replication_writes: u64,
    retransmissions: u64,
    reroute_resets: u64,
}

fn run_chaos(mesh: &Mesh, trial: &Chaos, seed: u64, kernel: KernelMode) -> Outcome {
    let mut config = NocConfig::mesh(mesh.n, mesh.n);
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .replicated_memory_at(mesh.primary, mesh.backup)
        .build()
        .expect("replicated layout");
    let plan = FaultPlan::new(seed);
    let plan = match trial.kill {
        Kill::PrimaryRouter => plan.with_router_down(mesh.primary, trial.kill_cycle),
        Kill::BackupRouter => plan.with_router_down(mesh.backup, trial.kill_cycle),
        Kill::Bystander(addr) => plan.with_router_down(addr, trial.kill_cycle),
        Kill::PrimaryEndpoint => plan.with_endpoint_down(mesh.primary, trial.kill_cycle),
    };
    sys.set_fault_plan(plan).expect("valid fault plan");
    let base = sys
        .address_map(PROCESSOR)
        .expect("map")
        .window_base(PRIMARY)
        .expect("window");
    let program = assemble(&format!(
        "LIW R1, {base}\n\
         LIW R2, 555\n\
         XOR R0, R0, R0\n\
         ST R2, R1, R0\n\
         LIW R5, {spin}\n\
         loop: SUBI R5, 1\n\
         JMPZD go\n\
         JMPD loop\n\
         go: LD R3, R1, R0\n\
         LIW R4, 0x20\n\
         ST R3, R4, R0\n\
         LIW R6, 666\n\
         ADDI R1, 1\n\
         ST R6, R1, R0\n\
         HALT",
        spin = trial.spin.max(1),
    ))
    .expect("assembles");
    sys.memory_mut(PROCESSOR)
        .expect("p memory")
        .write_block(0, program.words());
    sys.activate_directly(PROCESSOR).expect("activate");
    // Idle fast-forward keeps the real cost of this budget far lower.
    let cycles = sys.run_until_halted(4_000_000).unwrap_or_else(|e| {
        panic!(
            "a live replica remained ({:?} on {}x{} at cycle {}) yet the run failed: {e}",
            trial.kill, mesh.n, mesh.n, trial.kill_cycle
        )
    });
    let member = |node: NodeId| -> Option<u16> {
        if sys.dead_nodes().contains(&node) {
            None
        } else {
            Some(sys.memory(node).expect("member").read(1))
        }
    };
    let counters = sys.retry_counters();
    let out = Outcome {
        cycles,
        read_back: sys.memory(PROCESSOR).expect("p memory").read(0x20),
        primary_word: member(PRIMARY),
        backup_word: member(BACKUP),
        dead_nodes: format!("{:?}", sys.dead_nodes()),
        failovers: format!("{:?}", sys.failover_report()),
        replication_writes: sys.replication_writes(),
        retransmissions: counters.retransmissions,
        reroute_resets: counters.reroute_resets,
    };

    // Zero lost, zero duplicated service results: the value written
    // before the death comes back, and the post-failover write landed
    // on the serving member.
    let ctx = format!("{:?} on {}x{}: {out:?}", trial.kill, mesh.n, mesh.n);
    assert_eq!(out.read_back, 555, "pre-death write lost ({ctx})");
    for (name, word) in [("primary", out.primary_word), ("backup", out.backup_word)] {
        // A member that survived *and* currently serves the window must
        // hold the post-failover write. The non-serving member holds it
        // too (write-through) unless the serving side absorbed it after
        // the other died.
        if let Some(w) = word {
            assert!(w == 666 || w == 0, "torn write on {name} ({ctx})");
        }
    }
    let serving_word = match trial.kill {
        Kill::PrimaryRouter | Kill::PrimaryEndpoint => out.backup_word,
        _ => out.primary_word,
    };
    assert_eq!(serving_word, Some(666), "post-failover write lost ({ctx})");
    out
}

fn chaos_sweep(scale: Scale) -> (String, Obj) {
    let trials_per_mesh = scale.pick(2, 6);
    let kernel_set = kernels(scale);
    let mut out = String::new();
    let mut points = Vec::new();
    for mesh in &meshes() {
        let mut rng = Xorshift64::new(CHAOS_SEED ^ (u64::from(mesh.n) << 32) | 1);
        for t in 0..trials_per_mesh {
            let trial = draw_chaos(&mut rng, mesh);
            let point_seed = CHAOS_SEED ^ (u64::from(mesh.n) << 16) ^ t;
            let o = agree(kernel_set, |kernel| {
                run_chaos(mesh, &trial, point_seed, kernel)
            });
            let failed_over = o.failovers.len() > 2;
            let _ = writeln!(
                out,
                "{:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}",
                format!("{n}x{n}", n = mesh.n),
                trial.kill.label(),
                trial.kill_cycle,
                trial.spin,
                o.cycles,
                u8::from(failed_over),
                o.replication_writes,
            );
            points.push(
                Obj::new()
                    .with("mesh", format!("{n}x{n}", n = mesh.n))
                    .with("kill", trial.kill.label())
                    .with("kill_cycle", trial.kill_cycle)
                    .with("spin", trial.spin)
                    .with("cycles", o.cycles)
                    .with("read_back", o.read_back)
                    .with("replication_writes", o.replication_writes)
                    .with("retransmissions", o.retransmissions)
                    .with("reroute_resets", o.reroute_resets)
                    .with("failed_over", failed_over),
            );
        }
    }
    let text = format!(
        "E22 — chaos harness: randomized node death under replicated memory\n\
         {} trials x {} kernels, seed {CHAOS_SEED:#x}\n\
         {:<6} {:<28} {:>10} {:>8} {:>10} {:>6} {:>8}\n\
         {out}\
         All {0} trials: pre-death writes survived, post-failover writes landed \
         exactly once, all kernels bit-identical.\n",
        points.len(),
        kernel_set.len(),
        "mesh",
        "kill",
        "at cycle",
        "spin",
        "cycles",
        "fail",
        "repl"
    );
    let json = Obj::new()
        .with("experiment", "E22 chaos harness")
        .with("seed", CHAOS_SEED)
        .with("kernels", kernel_set.len())
        .with("points", points);
    (text, json)
}

/// E22 (extension) — deterministic chaos harness: randomized node-death
/// schedules against replicated memory on 2×2..4×4 meshes.
///
/// Every trial draws — from a per-point seed, never from global state —
/// a victim (the serving primary's router, the backup's router, a
/// bystander router hosting no IP, or the primary's IP core alone) and
/// a kill cycle, then runs a write → spin → read-back → write workload
/// through the replicated window. The invariant under test: **as long
/// as one replica member survives, no acknowledged service result is
/// lost and none is applied twice** — the read returns the value
/// written before the death, the post-failover write lands on the
/// surviving member, and the run halts instead of hanging or erroring.
///
/// Every trial runs under every kernel of [`kernels`] with a
/// bit-identical fingerprint — cycle count, memory end-state, dead
/// sets, failover log, retry and replication counters — so fault
/// diagnosis and failover are proven kernel-invariant. Summary:
/// `BENCH_chaos.json`.
pub fn chaos(scale: Scale, r: &mut Report) -> Result<(), BoxError> {
    let (text, json) = r.same_seed_twice(|| chaos_sweep(scale));
    r.text.push_str(&text);
    r.artifact("BENCH_chaos.json", json.render());
    Ok(())
}
