//! E23 — crash-recovery harness: deterministic checkpoint/restore under
//! fire.
//!
//! A faulted *and* degraded workload (lossy delivery on top of a
//! permanently dead link) runs to completion once, uninterrupted, and
//! its full final fingerprint — cycle count, memory images, retry and
//! service counters, fault diagnosis, dead-link set, metrics export and
//! Perfetto trace — is hashed. The same workload is then re-run to a
//! mid-flight cut point, checkpointed to disk, and **hard-killed**: the
//! process image is discarded and a fresh child process (the `exp` binary
//! re-executing itself) restores the file, resumes, and reports its own
//! fingerprint hash. The invariant under test: the resumed world is
//! byte-identical to the one that was never interrupted, under every
//! NoC kernel and thread count, with checkpoints taken under one kernel
//! restored under another.
//!
//! The whole sweep runs **twice** and must reproduce byte-identically.
//! `BENCH_recovery.json` records checkpoint size, save/restore latency,
//! and the overhead evidence: enabling the auto-checkpoint policy does
//! not change the simulated outcome, and a run with checkpointing
//! disabled pays nothing for the feature.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hermes_noc::{CycleWindow, FaultPlan, KernelMode, NocConfig, Port, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

use crate::{kernels, BoxError, Obj, Report, Scale};

/// Seed for the injected fault stream.
const SEED: u64 = 0xC4A0_5E23;
/// Cycle budget per run (idle fast-forward keeps real cost far lower).
const BUDGET: u64 = 4_000_000;
/// Environment variable carrying the checkpoint path to a child that
/// plays the freshly-booted, post-crash process image.
const CHILD_ENV: &str = "EXP_RECOVERY_RESTORE";
/// Optional kernel override for the child's restore.
const CHILD_KERNEL_ENV: &str = "EXP_RECOVERY_KERNEL";

const P1: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);
const MEM: NodeId = NodeId(3);

fn kernel_label(kernel: KernelMode) -> String {
    match kernel {
        KernelMode::Reference => "reference".into(),
        KernelMode::Active => "active".into(),
        KernelMode::Parallel { threads } => format!("parallel{threads}"),
    }
}

fn kernel_from_label(label: &str) -> KernelMode {
    match label {
        "reference" => KernelMode::Reference,
        "active" => KernelMode::Active,
        other => {
            let threads = other
                .strip_prefix("parallel")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unknown kernel label {other:?}"));
            KernelMode::Parallel { threads }
        }
    }
}

/// The faulted + degraded workload: P1 writes through remote memory and
/// P2's memory and notifies it; P2 reads back and halts — while 15 % of
/// flits are dropped and the (0,1)→East link is dead from cycle 0, so
/// retransmission timers, dedup state, the diagnosis epoch and the
/// reroute tables are all live at any cut point.
fn build(kernel: KernelMode) -> System {
    let mut config = NocConfig::multinoc();
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    sys.set_fault_plan(FaultPlan::new(SEED).with_drop_rate(0.15).with_link_down(
        RouterAddr::new(0, 1),
        Port::East,
        CycleWindow::open_ended(0),
    ))
    .expect("valid fault plan");
    sys.enable_trace(4096);
    // Pre-seed so P1's read does not race its retransmitted write.
    sys.memory_mut(MEM).expect("mem").write(0, 777);
    let mem_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(MEM)
        .expect("window");
    let p2_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(P2)
        .expect("window");
    let p1 = assemble(&format!(
        "LIW R1, {mem_base}\n\
         XOR R0, R0, R0\n\
         LIW R2, 777\n\
         ST  R2, R1, R0\n\
         LD  R3, R1, R0\n\
         LIW R4, 0x20\n\
         ST  R3, R4, R0\n\
         LIW R5, {p2_base}\n\
         LIW R6, 0x5A5A\n\
         ST  R6, R5, R0\n\
         LIW R7, 0xFFFD\n\
         LIW R2, {}\n\
         ST  R2, R0, R7\n\
         HALT",
        P2.as_u16(),
    ))
    .expect("p1 assembles");
    let p2 = assemble(&format!(
        "LIW R2, 0xFFFE\n\
         XOR R0, R0, R0\n\
         LIW R3, {}\n\
         ST  R3, R0, R2\n\
         LD  R4, R0, R0\n\
         LIW R5, 0x40\n\
         ST  R4, R5, R0\n\
         HALT",
        P1.as_u16(),
    ))
    .expect("p2 assembles");
    sys.memory_mut(P1)
        .expect("p1 memory")
        .write_block(0, p1.words());
    sys.memory_mut(P2)
        .expect("p2 memory")
        .write_block(0, p2.words());
    sys.activate_directly(P1).expect("activate p1");
    sys.activate_directly(P2).expect("activate p2");
    sys
}

/// FNV-1a over everything a finished run leaves behind: cycle, retry
/// and service counters, fault diagnosis, dead-link set, latency
/// histogram, metrics export, Perfetto trace and every memory image.
fn fingerprint(sys: &System) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(format!("cycle={}", sys.cycle()).as_bytes());
    eat(format!("retries={:?}", sys.retry_counters()).as_bytes());
    eat(format!("services={:?}", sys.service_counters()).as_bytes());
    eat(format!("faults={:?}", sys.noc_stats().faults).as_bytes());
    eat(format!("latency={:?}", sys.noc_stats().latency_histogram()).as_bytes());
    eat(format!("dead_links={:?}", sys.dead_links()).as_bytes());
    eat(format!("dead_nodes={:?}", sys.dead_nodes()).as_bytes());
    eat(format!("failover={:?}", sys.failover_report()).as_bytes());
    eat(sys.metrics_snapshot().to_prometheus().as_bytes());
    eat(sys.perfetto_json().as_bytes());
    for i in 0..sys.table().len() {
        if let Ok(mem) = sys.memory(NodeId(i as u8)) {
            for addr in 0..mem.words() {
                eat(&mem.read(addr).to_le_bytes());
            }
        }
    }
    h
}

/// The post-crash process image: if the environment names a checkpoint,
/// restore it, resume to completion, print the fingerprint and return
/// `true`. The `exp` binary calls this first thing, so the experiment
/// can re-execute it as a fresh process.
pub fn restore_child() -> bool {
    let Some(path) = std::env::var_os(CHILD_ENV) else {
        return false;
    };
    let path = PathBuf::from(path);
    let mut sys = match std::env::var(CHILD_KERNEL_ENV) {
        Ok(label) => {
            let bytes = std::fs::read(&path).expect("read checkpoint");
            System::restore_with_kernel(&bytes, kernel_from_label(&label))
                .expect("restore checkpoint")
        }
        Err(_) => System::restore_from_file(&path).expect("restore checkpoint"),
    };
    sys.run_until_halted(BUDGET).expect("resumed run halts");
    assert_eq!(sys.memory(P2).expect("p2").read(0x40), 0x5A5A);
    println!(
        "RECOVERED {:#018x} cycle={}",
        fingerprint(&sys),
        sys.cycle()
    );
    true
}

/// Spawns a fresh process image that restores `path` and returns the
/// fingerprint it reports.
fn recover_in_fresh_process(path: &Path, kernel: Option<KernelMode>) -> u64 {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.env(CHILD_ENV, path);
    match kernel {
        Some(k) => cmd.env(CHILD_KERNEL_ENV, kernel_label(k)),
        None => cmd.env_remove(CHILD_KERNEL_ENV),
    };
    let out = cmd.output().expect("spawn recovery process");
    assert!(
        out.status.success(),
        "recovery process failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let word = stdout
        .lines()
        .find_map(|l| l.strip_prefix("RECOVERED "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("child printed a fingerprint");
    u64::from_str_radix(word.trim_start_matches("0x"), 16).expect("fingerprint parses")
}

/// One kernel's deterministic results (timings live elsewhere: they can
/// never be part of the reproducibility comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Point {
    kernel: String,
    elapsed: u64,
    cut: u64,
    checkpoint_bytes: usize,
    fingerprint: u64,
    cross_kernel: String,
}

fn run_sweep(kernel_set: &[KernelMode], dir: &Path) -> Vec<Point> {
    let mut points = Vec::new();
    for (i, &kernel) in kernel_set.iter().enumerate() {
        // The world that never crashes.
        let mut reference = build(kernel);
        let elapsed = reference.run_until_halted(BUDGET).expect("run halts");
        let want = fingerprint(&reference);
        assert!(
            reference.retry_counters().retransmissions > 0 && reference.degraded(),
            "the workload must be both faulted and degraded"
        );

        // The world that crashes mid-flight: run to the cut, persist,
        // then lose the entire process image.
        let cut = elapsed / 2;
        let mut doomed = build(kernel);
        doomed.run(cut).expect("run to the cut");
        let path = dir.join(format!("ckpt-{}.mnsp", kernel_label(kernel)));
        doomed.checkpoint_to_file(&path).expect("write checkpoint");
        let checkpoint_bytes = std::fs::metadata(&path).expect("checkpoint exists").len() as usize;
        drop(doomed); // the hard kill: only the file survives

        // A fresh process image restores and must land on the exact
        // same world; a second child restores under a *different*
        // kernel and must land there too.
        let recovered = recover_in_fresh_process(&path, None);
        assert_eq!(
            recovered,
            want,
            "fresh-process recovery diverged under {}",
            kernel_label(kernel)
        );
        let other = kernel_set[(i + 1) % kernel_set.len()];
        let cross = recover_in_fresh_process(&path, Some(other));
        assert_eq!(
            cross,
            want,
            "cross-kernel recovery ({} -> {}) diverged",
            kernel_label(kernel),
            kernel_label(other)
        );
        points.push(Point {
            kernel: kernel_label(kernel),
            elapsed,
            cut,
            checkpoint_bytes,
            fingerprint: want,
            cross_kernel: kernel_label(other),
        });
    }
    points
}

/// Non-deterministic measurements: latency of save/restore and the
/// overhead evidence for the auto-checkpoint policy.
struct Timings {
    save_us: u128,
    restore_us: u128,
    plain_run_us: u128,
    auto_checkpoint_run_us: u128,
    auto_checkpoints_written: u64,
}

fn measure(dir: &Path) -> Timings {
    let mut sys = build(KernelMode::Active);
    sys.run(200).expect("run");
    let path = dir.join("ckpt-timing.mnsp");
    let t0 = Instant::now();
    sys.checkpoint_to_file(&path).expect("write checkpoint");
    let save_us = t0.elapsed().as_micros();
    let t1 = Instant::now();
    let restored = System::restore_from_file(&path).expect("restore");
    let restore_us = t1.elapsed().as_micros();
    assert_eq!(restored.cycle(), sys.cycle());

    // Overhead evidence. A run with checkpointing disabled is the
    // baseline: the feature's only footprint there is one Option check
    // per cycle. A run with the auto-checkpoint policy enabled pays for
    // its periodic writes but must land on the identical outcome.
    let mut plain = build(KernelMode::Active);
    let t2 = Instant::now();
    plain.run_until_halted(BUDGET).expect("plain run halts");
    let plain_run_us = t2.elapsed().as_micros();
    let mut auto = build(KernelMode::Active);
    auto.enable_auto_checkpoint(dir.join("ckpt-auto.mnsp"), 100);
    let t3 = Instant::now();
    auto.run_until_halted(BUDGET).expect("auto run halts");
    let auto_checkpoint_run_us = t3.elapsed().as_micros();
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&auto),
        "the auto-checkpoint policy must not change the simulated outcome"
    );
    Timings {
        save_us,
        restore_us,
        plain_run_us,
        auto_checkpoint_run_us,
        auto_checkpoints_written: auto.auto_checkpoints_written(),
    }
}

/// E23 — crash recovery: mid-flight checkpoint, hard kill and
/// fresh-process restore under every kernel; writes
/// `BENCH_recovery.json`.
pub fn recovery(scale: Scale, r: &mut Report) -> Result<(), BoxError> {
    let dir = std::env::temp_dir().join(format!("multinoc-exp-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let points = r.same_seed_twice(|| run_sweep(kernels(scale), &dir));
    let timings = measure(&dir);
    std::fs::remove_dir_all(&dir).ok();

    let out = &mut r.text;
    let _ = writeln!(
        out,
        "E23 — crash recovery: mid-flight checkpoint, hard kill, fresh-process restore"
    );
    let _ = writeln!(
        out,
        "faulted (15% drop) + degraded (dead link) workload, seed {SEED:#x}"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>10} {:>20} {:<12}",
        "kernel", "cycles", "cut", "ckpt B", "fingerprint", "also via"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>10} {:>#20x} {:<12}",
            p.kernel, p.elapsed, p.cut, p.checkpoint_bytes, p.fingerprint, p.cross_kernel
        );
    }
    let _ = writeln!(
        out,
        "All {} kernels: fresh-process and cross-kernel restores reproduced the \
         uninterrupted fingerprint bit-for-bit.",
        points.len()
    );
    let _ = writeln!(
        out,
        "save {} us, restore {} us; run {} us plain vs {} us with {} auto-checkpoints",
        timings.save_us,
        timings.restore_us,
        timings.plain_run_us,
        timings.auto_checkpoint_run_us,
        timings.auto_checkpoints_written
    );

    let points: Vec<Obj> = points
        .iter()
        .map(|p| {
            Obj::new()
                .with("kernel", p.kernel.clone())
                .with("cycles", p.elapsed)
                .with("cut", p.cut)
                .with("checkpoint_bytes", p.checkpoint_bytes)
                .with("fingerprint", format!("{:#018x}", p.fingerprint))
                .with("cross_kernel", p.cross_kernel.clone())
                .with("recovered", true)
        })
        .collect();
    let json = Obj::new()
        .with("experiment", "E23 crash recovery")
        .with("seed", SEED)
        .with("smoke", scale == Scale::Smoke)
        .with("save_us", timings.save_us)
        .with("restore_us", timings.restore_us)
        .with("plain_run_us", timings.plain_run_us)
        .with("auto_checkpoint_run_us", timings.auto_checkpoint_run_us)
        .with("auto_checkpoints_written", timings.auto_checkpoints_written)
        .with("points", points);
    r.artifact("BENCH_recovery.json", json.render());
    Ok(())
}
