//! The four workloads: inputs generated from a seed, set-up, the timed
//! run through the public `multinoc` API, and host-side references that
//! every output is checked against.
//!
//! Missing workloads. Two defects found while sizing keep a lossy
//! workload and an 8×8 workload out of the benchmark until they are
//! fixed:
//!
//! - (a) On a fault-free network, `sea_shared` on an 8×8 mesh (55
//!   processors, 8 memories), and on the 6×6 mesh with 6 memories
//!   instead of 9, ends in `SystemError::DeliveryFailed`. The fixed
//!   `RetryPolicy` (`base_timeout: 512`, 6 retries) is shorter than the
//!   loaded round trip (p99 40,719 cycles on 8×8 with 16 memories), so
//!   reliable sends exhaust their retries on a network that lost
//!   nothing. The test `sea_shared_with_six_memories_fails_delivery`
//!   pins the 6×6 case.
//! - (b) `edge` on the paper's 2×2 system with
//!   `FaultPlan::with_drop_rate(0.005)` and `FaultTolerantXy` routing
//!   never finishes: both processors are halted and all 40 sequenced
//!   sends are acknowledged, yet the host waits for a printf forever
//!   (a `BudgetExhausted` once the host budget runs out). The processor
//!   sends `Printf` unsequenced, so a dropped completion marker is never
//!   retransmitted. The test `edge_with_packet_drops_waits_for_a_lost_printf`
//!   pins it.

use hermes_noc::{KernelMode, NocConfig, RouterAddr, TelemetryConfig};
use multinoc::apps::edge::{self, Image};
use multinoc::host::Host;
use multinoc::processor::ProcessorStatus;
use multinoc::{NodeId, System, SystemError};
use prng::Rng64;

use crate::clock::CpuInstant;
use crate::span::Spans;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 2×2 system running Fig. 10 Sobel edge detection,
    /// fed line by line by the host over the serial link.
    Edge,
    /// `Edge` with every collector on, periodic in-memory checkpoints,
    /// and the exports and a restore checked at the end.
    EdgeObserved,
    /// 12 processors on a 4×4 mesh running a compiled kernel on local
    /// memory only: the R8 cores and the stepping loop do the work.
    SeaCompute,
    /// 26 processors on a 6×6 mesh doing read-modify-write loops on
    /// slots of 9 shared memory IPs: the NoC and the reliability layer
    /// do the work.
    SeaShared,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Edge,
        Kind::EdgeObserved,
        Kind::SeaCompute,
        Kind::SeaShared,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Edge => "edge",
            Kind::EdgeObserved => "edge_observed",
            Kind::SeaCompute => "sea_compute",
            Kind::SeaShared => "sea_shared",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The kernel the timed runs use: `KernelMode::auto` for the
    /// workload's mesh.
    pub fn default_kernel(self) -> KernelMode {
        match self {
            Kind::Edge | Kind::EdgeObserved => KernelMode::auto(2, 2),
            Kind::SeaCompute => KernelMode::auto(4, 4),
            Kind::SeaShared => KernelMode::auto(6, 6),
        }
    }
}

/// Width of the `edge` image in pixels (the program's maximum).
pub const EDGE_WIDTH: usize = edge::MAX_WIDTH as usize;
/// Processors of `sea_compute`.
pub const SEA_COMPUTE_PROCESSORS: usize = 12;
/// Words of each processor's slot on `sea_shared`.
pub const SLOT_WORDS: u16 = 8;

/// Local-memory addresses of the sea kernels' parameters and result.
const PARAM_A: u16 = 0x380;
const PARAM_B: u16 = 0x381;
const PARAM_C: u16 = 0x382;
const RESULT_ADDR: u16 = 0x383;

/// Cycles the sea workloads step between looks at the processors.
const SEA_CHUNK: u64 = 256;

/// Collector capacities of `edge_observed` (events, spans, packets).
const OBSERVE_CAPACITY: usize = 4096;

/// Workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// `edge`: output lines per run (the image has `lines + 2` rows).
    pub lines: usize,
    /// `edge_observed`: output lines between checkpoints.
    pub checkpoint_every: usize,
    /// `sea_compute`: work units per processor.
    pub units: u16,
    /// `sea_shared`: read-modify-write iterations per processor.
    pub iterations: u16,
    /// `sea_shared`: memory IPs on the 6×6 mesh.
    pub memories: usize,
    /// Cycle budget of each blocking host call, and of a sea run.
    pub budget: u64,
}

impl Params {
    /// The sizes the benchmark times.
    pub const TIMED: Params = Params {
        lines: 256,
        checkpoint_every: 32,
        units: 300,
        iterations: 100,
        memories: 9,
        budget: 20_000_000,
    };

    /// The smaller sizes of the kernel-agreement precheck.
    pub const PRECHECK: Params = Params {
        lines: 6,
        checkpoint_every: 3,
        units: 12,
        iterations: 8,
        memories: 9,
        budget: 20_000_000,
    };
}

/// Seed-generated inputs of one workload, and the outputs a correct run
/// produces.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Its sizes.
    pub params: Params,
    /// The seed the inputs were generated from.
    pub seed: u64,
    data: Data,
    /// What a correct run outputs: the Sobel image (`edge`), one partial
    /// checksum per processor (`sea_compute`), or every slot's final
    /// words, slot after slot (`sea_shared`).
    pub expected: Vec<u16>,
}

#[derive(Debug, Clone)]
enum Data {
    Edge {
        image: Image,
    },
    SeaCompute {
        /// First work unit of each processor.
        starts: Vec<u16>,
        /// Per-processor salt mixed into every unit.
        salts: Vec<u16>,
    },
    SeaShared {
        /// Per-processor salt of the read-modify-write step.
        salts: Vec<u16>,
        /// Initial slot words, slot after slot.
        init: Vec<u16>,
    },
}

impl Inputs {
    /// Generates the inputs of `kind` at `params` from `seed`.
    pub fn generate(kind: Kind, params: Params, seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x5EED_0000_0000_0000);
        let draw = |rng: &mut Rng64, bound: u64| rng.below(bound) as u16;
        let (data, expected) = match kind {
            Kind::Edge | Kind::EdgeObserved => {
                let rows = params.lines + 2;
                let pixels = (0..EDGE_WIDTH * rows)
                    .map(|_| draw(&mut rng, 256))
                    .collect();
                let image = Image::new(EDGE_WIDTH, rows, pixels);
                let expected = edge::reference(&image);
                (Data::Edge { image }, expected)
            }
            Kind::SeaCompute => {
                let starts: Vec<u16> = (0..SEA_COMPUTE_PROCESSORS)
                    .map(|_| draw(&mut rng, 0x4000))
                    .collect();
                let salts: Vec<u16> = (0..SEA_COMPUTE_PROCESSORS)
                    .map(|_| draw(&mut rng, 0x800))
                    .collect();
                let expected = starts
                    .iter()
                    .zip(&salts)
                    .map(|(&start, &salt)| compute_reference(start, params.units, salt))
                    .collect();
                (Data::SeaCompute { starts, salts }, expected)
            }
            Kind::SeaShared => {
                let processors = shared_processor_count(params.memories);
                let salts: Vec<u16> = (0..processors).map(|_| draw(&mut rng, 0x8000)).collect();
                let init: Vec<u16> = (0..processors * usize::from(SLOT_WORDS))
                    .map(|_| draw(&mut rng, 0x8000))
                    .collect();
                let mut expected = init.clone();
                for (slot, &salt) in expected.chunks_mut(usize::from(SLOT_WORDS)).zip(&salts) {
                    shared_reference(slot, params.iterations, salt);
                }
                (Data::SeaShared { salts, init }, expected)
            }
        };
        Self {
            kind,
            params,
            seed,
            data,
            expected,
        }
    }

    /// Operations a run verifies: output lines, partial checksums or
    /// memory slots, plus the export and restore checks of
    /// `edge_observed`.
    pub fn ops(&self) -> u64 {
        match &self.data {
            Data::Edge { .. } if self.kind == Kind::EdgeObserved => self.params.lines as u64 + 2,
            Data::Edge { .. } => self.params.lines as u64,
            Data::SeaCompute { starts, .. } => starts.len() as u64,
            Data::SeaShared { salts, .. } => salts.len() as u64,
        }
    }
}

/// The `sea_compute` kernel: `units` work units from `start`, each a
/// short integer-mixing loop, xor-folded into one partial checksum.
fn compute_source() -> String {
    format!(
        "func main() {{
             var units = peek({PARAM_A});
             var unit = peek({PARAM_B});
             var salt = peek({PARAM_C});
             var acc = 0;
             var n = 0;
             while (n < units) {{
                 var x = unit * 7 + 1;
                 var inner = 0;
                 while (inner < 20) {{
                     x = (x * 3 + unit + salt) & 0x7FF;
                     acc = acc ^ x;
                     inner = inner + 1;
                 }}
                 unit = unit + 1;
                 n = n + 1;
             }}
             poke({RESULT_ADDR}, acc);
         }}"
    )
}

/// Host-side reference of one `sea_compute` partial checksum.
pub fn compute_reference(start: u16, units: u16, salt: u16) -> u16 {
    let mut acc: u16 = 0;
    let mut unit = start;
    for _ in 0..units {
        let mut x = unit.wrapping_mul(7).wrapping_add(1);
        for _ in 0..20 {
            x = x.wrapping_mul(3).wrapping_add(unit).wrapping_add(salt) & 0x7FF;
            acc ^= x;
        }
        unit = unit.wrapping_add(1);
    }
    acc
}

/// The `sea_shared` kernel: `iterations` read-modify-writes rotating
/// over the words of one slot, reached through the NUMA window at
/// `base`. Each remote load blocks; each remote store is posted.
fn shared_source() -> String {
    format!(
        "func main() {{
             var base = peek({PARAM_A});
             var iterations = peek({PARAM_B});
             var salt = peek({PARAM_C});
             var i = 0;
             while (i < iterations) {{
                 var addr = base + (i & {mask});
                 var v = peek(addr);
                 poke(addr, (v * 5 + salt + i) & 0x7FFF);
                 i = i + 1;
             }}
         }}",
        mask = SLOT_WORDS - 1
    )
}

/// Host-side reference of one `sea_shared` slot, updated in place.
pub fn shared_reference(slot: &mut [u16], iterations: u16, salt: u16) {
    for i in 0..iterations {
        let word = &mut slot[usize::from(i % SLOT_WORDS)];
        *word = word.wrapping_mul(5).wrapping_add(salt).wrapping_add(i) & 0x7FFF;
    }
}

/// Processors of `sea_shared` next to `memories` memory IPs.
fn shared_processor_count(memories: usize) -> usize {
    36 - 1 - memories
}

/// Routers of the `sea_shared` memory IPs: spread evenly over the
/// row-major order of the 35 routers after the serial IP's.
fn shared_memory_routers(memories: usize) -> Vec<RouterAddr> {
    (0..memories)
        .map(|i| {
            let index = 1 + (2 * i + 1) * 35 / (2 * memories);
            RouterAddr::new((index % 6) as u8, (index / 6) as u8)
        })
        .collect()
}

/// A system ready to run, with what its set-up cost.
#[derive(Debug)]
pub struct Prepared {
    /// The simulated system.
    pub system: System,
    /// The host computer driving the serial link.
    pub host: Host,
    /// The processors doing the work, in op order.
    pub processors: Vec<NodeId>,
    /// `sea_shared`: memory node and word offset of each processor's slot.
    slots: Vec<(NodeId, u16)>,
    /// CPU seconds in `r8c::compile`.
    pub compile_s: f64,
    /// CPU seconds in `r8::asm::assemble`.
    pub assemble_s: f64,
}

/// The paper's 2×2 system (`System::paper_config`'s layout) on `kernel`.
pub fn paper_system(kernel: KernelMode) -> Result<System, SystemError> {
    System::builder()
        .noc(NocConfig::multinoc().with_kernel_mode(kernel))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
}

fn assemble(source: &str) -> Result<(r8::Program, f64), SystemError> {
    let t = CpuInstant::now();
    let program = r8::asm::assemble(source)
        .map_err(|e| SystemError::Protocol(format!("benchmark program: {e}")))?;
    Ok((program, t.elapsed().as_secs_f64()))
}

fn compile(source: &str) -> Result<(String, f64), SystemError> {
    let t = CpuInstant::now();
    let asm = r8c::compile(source)
        .map_err(|e| SystemError::Protocol(format!("benchmark kernel: {e}")))?;
    Ok((asm, t.elapsed().as_secs_f64()))
}

/// Builds the system, compiles or assembles the program, and loads it:
/// over the serial link after a host sync on `edge`, directly into local
/// memory on the sea workloads.
///
/// # Errors
///
/// Any [`SystemError`] from building, compiling or loading.
pub fn prepare(inputs: &Inputs, kernel: KernelMode) -> Result<Prepared, SystemError> {
    let params = inputs.params;
    let mut host = Host::new().with_budget(params.budget);
    match &inputs.data {
        Data::Edge { .. } => {
            let mut system = paper_system(kernel)?;
            if inputs.kind == Kind::EdgeObserved {
                system.enable_trace(OBSERVE_CAPACITY);
                system.enable_service_spans(OBSERVE_CAPACITY);
                system.enable_telemetry(TelemetryConfig::default());
                system.enable_packet_trace(OBSERVE_CAPACITY);
            }
            host.synchronize(&mut system)?;
            let (program, assemble_s) = assemble(&edge::program(EDGE_WIDTH as u16))?;
            let processors = system.processors();
            for &node in &processors {
                host.load_program(&mut system, node, program.words())?;
            }
            Ok(Prepared {
                system,
                host,
                processors,
                slots: Vec::new(),
                compile_s: 0.0,
                assemble_s,
            })
        }
        Data::SeaCompute { starts, salts } => {
            let mut builder = System::builder()
                .noc(NocConfig::mesh(4, 4).with_kernel_mode(kernel))
                .serial_at(RouterAddr::new(0, 0));
            for index in 1..=starts.len() {
                builder =
                    builder.processor_at(RouterAddr::new((index % 4) as u8, (index / 4) as u8));
            }
            let mut system = builder.build()?;
            let (asm, compile_s) = compile(&compute_source())?;
            let (program, assemble_s) = assemble(&asm)?;
            let processors = system.processors();
            for (k, &node) in processors.iter().enumerate() {
                let memory = system.memory_mut(node)?;
                memory.write_block(0, program.words());
                memory.write(PARAM_A, params.units);
                memory.write(PARAM_B, starts[k]);
                memory.write(PARAM_C, salts[k]);
            }
            Ok(Prepared {
                system,
                host,
                processors,
                slots: Vec::new(),
                compile_s,
                assemble_s,
            })
        }
        Data::SeaShared { salts, init } => {
            let memory_routers = shared_memory_routers(params.memories);
            let mut builder = System::builder()
                .noc(NocConfig::mesh(6, 6).with_kernel_mode(kernel))
                .serial_at(RouterAddr::new(0, 0));
            for index in 1..36u8 {
                let addr = RouterAddr::new(index % 6, index / 6);
                builder = if memory_routers.contains(&addr) {
                    builder.memory_at(addr)
                } else {
                    builder.processor_at(addr)
                };
            }
            let mut system = builder.build()?;
            let (asm, compile_s) = compile(&shared_source())?;
            let (program, assemble_s) = assemble(&asm)?;
            let processors = system.processors();
            let memories: Vec<NodeId> = memory_routers
                .iter()
                .map(|&addr| {
                    system
                        .table()
                        .node_of(addr)
                        .expect("memory router has a node")
                })
                .collect();
            let mut slots = Vec::with_capacity(processors.len());
            for (k, &node) in processors.iter().enumerate() {
                let memory = memories[k % memories.len()];
                let offset = (k / memories.len()) as u16 * SLOT_WORDS;
                let words = usize::from(SLOT_WORDS);
                system
                    .memory_mut(memory)?
                    .write_block(offset, &init[k * words..(k + 1) * words]);
                let base = system
                    .address_map(node)?
                    .window_base(memory)
                    .expect("every processor has a window on every memory")
                    + offset;
                let local = system.memory_mut(node)?;
                local.write_block(0, program.words());
                local.write(PARAM_A, base);
                local.write(PARAM_B, params.iterations);
                local.write(PARAM_C, salts[k]);
                slots.push((memory, offset));
            }
            Ok(Prepared {
                system,
                host,
                processors,
                slots,
                compile_s,
                assemble_s,
            })
        }
    }
}

/// Index of each host call kind in [`Outcome::host_cycles`].
#[derive(Debug, Clone, Copy)]
pub enum HostOp {
    /// `Host::write_memory`.
    Write = 0,
    /// `Host::activate`.
    Activate = 1,
    /// `Host::wait_for_printf`.
    WaitPrintf = 2,
    /// `Host::read_memory`.
    Read = 3,
}

impl HostOp {
    /// The span name of the call.
    pub fn span(self) -> &'static str {
        match self {
            HostOp::Write => "host.write",
            HostOp::Activate => "host.activate",
            HostOp::WaitPrintf => "host.wait_printf",
            HostOp::Read => "host.read",
        }
    }
}

/// What one timed run did.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the run set out to verify.
    pub attempted: u64,
    /// Operations verified correct.
    pub passed: u64,
    /// The error that ended the run early, if any.
    pub error: Option<String>,
    /// Host CPU seconds of the run (see [`crate::clock`]).
    pub run_s: f64,
    /// Simulated makespan in cycles.
    pub sim_cycles: u64,
    /// R8 instructions retired, summed over every activation.
    pub retired: u64,
    /// R8 cycles those instructions took.
    pub cpu_cycles: u64,
    /// Host CPU µs of each verified-or-not operation that completed.
    pub op_us: Vec<f64>,
    /// Every output word, for the kernel-agreement check.
    pub outputs: Vec<u16>,
    /// Simulated cycles spent inside each kind of host call.
    pub host_cycles: [u64; 4],
    /// Bytes of the `edge_observed` exports.
    pub export_bytes: u64,
    /// Bytes of the last `edge_observed` checkpoint.
    pub snapshot_bytes: u64,
}

impl Outcome {
    /// Operations that failed: mismatched, or never verified because
    /// the run ended in an error.
    pub fn failed(&self) -> u64 {
        self.attempted - self.passed
    }
}

/// Runs the workload on a prepared system, checking every output.
/// A [`SystemError`] ends the run; every operation not yet verified
/// then counts as failed.
pub fn execute(inputs: &Inputs, p: &mut Prepared, spans: &mut Spans) -> Outcome {
    let mut out = Outcome {
        attempted: inputs.ops(),
        ..Outcome::default()
    };
    let root = spans.enter("run", None);
    let start = CpuInstant::now();
    let result = match &inputs.data {
        Data::Edge { image } => run_edge(inputs, image, p, spans, &mut out),
        Data::SeaCompute { .. } | Data::SeaShared { .. } => run_sea(inputs, p, spans, &mut out),
    };
    out.run_s = start.elapsed().as_secs_f64();
    spans.exit(root);
    if let Err(e) = result {
        out.error = Some(e.to_string());
    }
    out
}

/// One host call inside a span, with the simulated cycles it took.
fn host_call<T>(
    p: &mut Prepared,
    spans: &mut Spans,
    out: &mut Outcome,
    op: HostOp,
    line: usize,
    f: impl FnOnce(&mut System, &mut Host) -> Result<T, SystemError>,
) -> Result<T, SystemError> {
    let before = p.system.cycle();
    let result = spans.time(op.span(), Some(line as u32), || {
        f(&mut p.system, &mut p.host)
    });
    out.host_cycles[op as usize] += p.system.cycle() - before;
    result
}

/// The Fig. 10 closed loop: lines go round-robin to the processors; the
/// host feeds a processor its 3-row window, activates it, and collects
/// the line after its completion printf.
fn run_edge(
    inputs: &Inputs,
    image: &Image,
    p: &mut Prepared,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), SystemError> {
    let observed = inputs.kind == Kind::EdgeObserved;
    let (w, h) = (image.width(), image.height());
    let processors = p.processors.clone();
    let start_cycle = p.system.cycle();
    let mut busy: Vec<Option<(usize, CpuInstant)>> = vec![None; processors.len()];
    let mut printed: Vec<usize> = processors
        .iter()
        .map(|&n| p.host.printf_output(n).len())
        .collect();
    let mut next_line = 1;
    let mut collected = 0;
    let mut checkpoint = None;
    while collected < h - 2 {
        for (slot, &node) in processors.iter().enumerate() {
            if let Some((line, fed)) = busy[slot].take() {
                let want = printed[slot] + 1;
                host_call(p, spans, out, HostOp::WaitPrintf, line, |s, host| {
                    host.wait_for_printf(s, node, want)
                })?;
                printed[slot] = want;
                // `Cpu::retired` restarts on every activation: read it
                // before the next one.
                let cpu = p.system.cpu(node)?;
                out.retired += cpu.retired();
                out.cpu_cycles += cpu.cycles();
                let data = host_call(p, spans, out, HostOp::Read, line, |s, host| {
                    host.read_memory(s, node, edge::OUT_ADDR, w)
                })?;
                out.op_us.push(fed.elapsed().as_secs_f64() * 1e6);
                let good = spans.time("check", Some(line as u32), || {
                    data == inputs.expected[line * w..(line + 1) * w]
                });
                out.passed += u64::from(good);
                out.outputs.extend_from_slice(&data);
                collected += 1;
                if observed && collected % inputs.params.checkpoint_every == 0 {
                    checkpoint = Some(spans.time("snapshot.save", None, || p.system.checkpoint()));
                }
            }
            if next_line < h - 1 {
                let line = next_line;
                next_line += 1;
                let fed = CpuInstant::now();
                for (row, addr) in [edge::ROW0_ADDR, edge::ROW1_ADDR, edge::ROW2_ADDR]
                    .into_iter()
                    .enumerate()
                {
                    let pixels = image.row(line - 1 + row);
                    host_call(p, spans, out, HostOp::Write, line, |s, host| {
                        host.write_memory(s, node, addr, pixels)
                    })?;
                }
                host_call(p, spans, out, HostOp::Activate, line, |s, host| {
                    host.activate(s, node)
                })?;
                busy[slot] = Some((line, fed));
            }
        }
    }
    out.sim_cycles = p.system.cycle() - start_cycle;
    if observed {
        check_observation(p, spans, out, checkpoint)?;
    }
    Ok(())
}

/// Exports every collector, validates the documents, and restores the
/// last checkpoint to check that re-checkpointing is byte-identical.
fn check_observation(
    p: &mut Prepared,
    spans: &mut Spans,
    out: &mut Outcome,
    checkpoint: Option<Vec<u8>>,
) -> Result<(), SystemError> {
    let system = &p.system;
    let (perfetto, telemetry, telemetry_prom, metrics_prom) =
        spans.time("observe.export", None, || {
            (
                system.perfetto_json(),
                system.telemetry_json().unwrap_or_default(),
                system.telemetry_prometheus().unwrap_or_default(),
                system.metrics_snapshot().to_prometheus(),
            )
        });
    out.export_bytes = [&perfetto, &telemetry, &telemetry_prom, &metrics_prom]
        .iter()
        .map(|s| s.len() as u64)
        .sum();
    let exports_ok = spans.time("check", None, || {
        let perfetto_ok = crate::json::validate(&perfetto)
            .is_ok_and(|keys| keys.iter().any(|k| k == "traceEvents"));
        let telemetry_ok = crate::json::validate(&telemetry).is_ok();
        let prom_ok = [&telemetry_prom, &metrics_prom]
            .iter()
            .all(|text| crate::json::validate_prometheus(text).is_ok_and(|n| n > 0));
        perfetto_ok && telemetry_ok && prom_ok
    });
    out.passed += u64::from(exports_ok);
    let Some(bytes) = checkpoint else {
        return Ok(());
    };
    out.snapshot_bytes = bytes.len() as u64;
    let restored = spans
        .time("snapshot.restore", None, || System::restore(&bytes))
        .map_err(|e| SystemError::Protocol(format!("restoring the last checkpoint: {e}")))?;
    let again = spans.time("snapshot.save", None, || restored.checkpoint());
    out.passed += u64::from(again == bytes);
    Ok(())
}

/// The sea workloads: activate every processor, step the system until
/// all halt (noting when each is seen halted), drain the network, then
/// check each processor's result.
fn run_sea(
    inputs: &Inputs,
    p: &mut Prepared,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), SystemError> {
    let budget = inputs.params.budget;
    let start_cycle = p.system.cycle();
    let started = CpuInstant::now();
    for (k, &node) in p.processors.iter().enumerate() {
        spans.time("system.activate", Some(k as u32), || {
            p.system.activate_directly(node)
        })?;
    }
    let mut halted = vec![false; p.processors.len()];
    while halted.contains(&false) {
        spans.time("system.run", None, || p.system.run(SEA_CHUNK))?;
        for (k, &node) in p.processors.iter().enumerate() {
            if halted[k] {
                continue;
            }
            match p.system.processor_status(node)? {
                ProcessorStatus::Halted => {
                    halted[k] = true;
                    out.op_us.push(started.elapsed().as_secs_f64() * 1e6);
                }
                ProcessorStatus::Faulted => {
                    return Err(SystemError::Protocol(format!("{node} faulted")));
                }
                _ => {}
            }
        }
        if p.system.cycle() - start_cycle >= budget {
            return Err(SystemError::BudgetExhausted {
                budget,
                waiting_for: "all processors to halt",
            });
        }
    }
    spans.time("system.run", None, || p.system.run_until_halted(budget))?;
    // The makespan ends at the last halt; utilization counts every cycle
    // since, so it is exact whatever the stepping chunk.
    let now = p.system.cycle();
    let mut last_halt = start_cycle;
    for &node in &p.processors {
        let cpu = p.system.cpu(node)?;
        out.retired += cpu.retired();
        out.cpu_cycles += cpu.cycles();
        last_halt = last_halt.max(now - p.system.processor_utilization(node)?.halted);
    }
    out.sim_cycles = last_halt - start_cycle;
    let system = &p.system;
    let processors = &p.processors;
    let slots = &p.slots;
    let (passed, outputs) = spans.time("check", None, || -> Result<_, SystemError> {
        let mut outputs = Vec::new();
        let mut passed = 0;
        match inputs.kind {
            Kind::SeaCompute => {
                for (k, &node) in processors.iter().enumerate() {
                    let got = system.memory(node)?.read(RESULT_ADDR);
                    passed += u64::from(got == inputs.expected[k]);
                    outputs.push(got);
                }
            }
            _ => {
                let words = usize::from(SLOT_WORDS);
                for (k, &(memory, offset)) in slots.iter().enumerate() {
                    let got = system.memory(memory)?.read_block(offset, SLOT_WORDS);
                    passed += u64::from(got == inputs.expected[k * words..(k + 1) * words]);
                    outputs.extend_from_slice(&got);
                }
            }
        }
        Ok((passed, outputs))
    })?;
    out.passed = passed;
    out.outputs = outputs;
    Ok(())
}

/// R8 instructions per second of the workload's program run alone on a
/// `Cpu` and a `RamBus` holding the first processor's local memory (and,
/// on `edge`, the first line's window), repeated for about `seconds`.
pub fn standalone_instr_per_s(inputs: &Inputs, p: &Prepared, seconds: f64) -> f64 {
    let mut bus = r8::core::RamBus::new(1 << 16);
    let Ok(local) = p.system.memory(p.processors[0]) else {
        return 0.0;
    };
    bus.load(0, &local.read_block(0, local.words()));
    if let Data::Edge { image } = &inputs.data {
        bus.load(edge::ROW0_ADDR, image.row(0));
        bus.load(edge::ROW1_ADDR, image.row(1));
        bus.load(edge::ROW2_ADDR, image.row(2));
    }
    let start = CpuInstant::now();
    let mut retired = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let mut cpu = r8::core::Cpu::new();
        if cpu.run(&mut bus, inputs.params.budget).is_err() {
            return 0.0;
        }
        retired += std::hint::black_box(cpu.retired());
    }
    retired as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(lines: usize) -> Params {
        Params {
            lines,
            ..Params::PRECHECK
        }
    }

    fn run_once(inputs: &Inputs) -> Outcome {
        let mut p = prepare(inputs, inputs.kind.default_kernel()).expect("set-up");
        execute(inputs, &mut p, &mut Spans::off())
    }

    #[test]
    fn paper_system_matches_paper_config() {
        let ours = paper_system(Kind::Edge.default_kernel()).unwrap();
        let paper = System::paper_config().unwrap();
        assert_eq!(ours.checkpoint(), paper.checkpoint());
    }

    #[test]
    fn every_workload_passes_its_checks() {
        for kind in Kind::ALL {
            let inputs = Inputs::generate(kind, Params::PRECHECK, 7);
            let out = run_once(&inputs);
            assert_eq!(out.error, None, "{}", kind.name());
            assert_eq!(out.failed(), 0, "{}", kind.name());
            assert_eq!(
                out.op_us.len() as u64,
                inputs.ops().min(out.op_us.len() as u64)
            );
            assert!(out.sim_cycles > 0 && out.retired > 0, "{}", kind.name());
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        for kind in Kind::ALL {
            let a = Inputs::generate(kind, Params::PRECHECK, 1);
            let b = Inputs::generate(kind, Params::PRECHECK, 1);
            let c = Inputs::generate(kind, Params::PRECHECK, 2);
            assert_eq!(a.expected, b.expected);
            assert_ne!(a.expected, c.expected, "{}", kind.name());
        }
    }

    #[test]
    fn retired_count_sums_over_activations() {
        // `Cpu::retired` restarts on every activation, so the last
        // reading alone stays flat while the summed count must grow
        // with the line count. A flat image makes every line execute
        // the same instructions: the sum is then exactly linear.
        let flat = |lines: usize| {
            let image = Image::new(EDGE_WIDTH, lines + 2, vec![9; EDGE_WIDTH * (lines + 2)]);
            let expected = edge::reference(&image);
            Inputs {
                kind: Kind::Edge,
                params: small(lines),
                seed: 0,
                data: Data::Edge { image },
                expected,
            }
        };
        let r16 = run_once(&flat(16)).retired;
        let r32 = run_once(&flat(32)).retired;
        assert!(r16 > 16 * 100, "{r16} instructions for 16 lines");
        assert_eq!(r32, 2 * r16);

        // On seeded images the per-line count varies only with the
        // data-dependent branches of |gx| and |gy|.
        let per_line: Vec<f64> = [16usize, 32, 64]
            .iter()
            .map(|&n| {
                run_once(&Inputs::generate(Kind::Edge, small(n), 5)).retired as f64 / n as f64
            })
            .collect();
        for w in per_line.windows(2) {
            assert!(
                (w[1] / w[0] - 1.0).abs() < 0.02,
                "per-line counts {per_line:?}"
            );
        }
    }

    #[test]
    fn sea_makespan_is_exact_and_deterministic() {
        let inputs = Inputs::generate(Kind::SeaShared, Params::PRECHECK, 3);
        let a = run_once(&inputs);
        let b = run_once(&inputs);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_ne!(
            a.sim_cycles % SEA_CHUNK,
            0,
            "makespan is not rounded to the chunk"
        );
    }

    #[test]
    fn sea_shared_with_six_memories_fails_delivery() {
        // Defect (a) in the module docs: a fault-free 6×6 with 6 memory
        // IPs exhausts the fixed retry policy.
        let params = Params {
            memories: 6,
            iterations: 100,
            ..Params::TIMED
        };
        let inputs = Inputs::generate(Kind::SeaShared, params, 1);
        let out = run_once(&inputs);
        let error = out.error.clone().expect("the run ends in an error");
        assert!(error.contains("undelivered"), "{error}");
        assert_eq!(out.failed(), out.attempted, "no slot was verified");
    }

    #[test]
    fn edge_with_packet_drops_waits_for_a_lost_printf() {
        // Defect (b) in the module docs: with 0.5% packet drops both
        // processors halt and every sequenced send is acknowledged, but
        // a completion printf is lost and the host waits until its
        // budget runs out.
        let params = Params {
            lines: 16,
            budget: 1_000_000,
            ..Params::PRECHECK
        };
        let inputs = Inputs::generate(Kind::Edge, params, 1);
        let mut system = System::builder()
            .noc(NocConfig::multinoc().with_routing(hermes_noc::Routing::FaultTolerantXy))
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .unwrap();
        system
            .set_fault_plan(hermes_noc::FaultPlan::new(5).with_drop_rate(0.005))
            .unwrap();
        let mut host = Host::new().with_budget(params.budget);
        host.synchronize(&mut system).unwrap();
        let (program, _) = assemble(&edge::program(EDGE_WIDTH as u16)).unwrap();
        let processors = system.processors();
        for &node in &processors {
            host.load_program(&mut system, node, program.words())
                .unwrap();
        }
        let mut p = Prepared {
            system,
            host,
            processors,
            slots: Vec::new(),
            compile_s: 0.0,
            assemble_s: 0.0,
        };
        let out = execute(&inputs, &mut p, &mut Spans::off());
        let error = out.error.clone().expect("the run ends in an error");
        assert!(error.contains("waiting for printf"), "{error}");
        assert!(p.system.all_halted());
        let retry = p.system.retry_counters();
        assert_eq!(retry.sent, retry.acked);
        assert!(out.failed() > 0 && out.failed() < out.attempted);
    }
}
