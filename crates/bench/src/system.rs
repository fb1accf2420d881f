//! Full-system and R8 experiments: E5 flow, E6 edge detection, E7 CPI,
//! E10 serial link, E12 compiler, E13 services, E14 sea of processors,
//! E15 reconfiguration and E16 utilization.

use std::fmt::Write as _;

use floorplan::estimate::Component;
use hermes_noc::{NocConfig, RouterAddr};
use multinoc::apps::edge::{self, Image};
use multinoc::apps::{histogram, vecsum};
use multinoc::serial::SerialConfig;
use multinoc::service::ServiceCode;
use multinoc::trace::ALL_CODES;
use multinoc::{host::Host, NodeId, System, PROCESSOR_1, PROCESSOR_2, REMOTE_MEMORY};
use r8::asm::assemble;
use r8::core::{Cpu, RamBus};

use crate::{table_row, BoxError, Report, Scale};

/// E5 — §4 Figs. 8/9: the complete system execution flow, with the
/// cycle cost of every phase (synchronize, load, fill, activate,
/// execute, printf, read back).
pub fn flow(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(
        r,
        "E5: Fig. 8 flow phases (cycles at 25 MHz, fast functional serial link)\n"
    )?;
    let data: Vec<u16> = (1..=64).collect();
    let program = assemble(&vecsum::program(data.len() as u16))?;

    let mut system = System::paper_config()?;
    let mut host = Host::new();
    let mut mark = 0u64;
    let mut phase = |r: &mut Report, system: &System, name: &str| {
        let now = system.cycle();
        let us = (now - mark) as f64 / system.clock_hz() * 1e6;
        table_row!(r, name, now - mark, format!("{us:.1} us"));
        mark = now;
    };

    table_row!(r, "phase", "cycles", "wall time");
    host.synchronize(&mut system)?;
    phase(r, &system, "synchronize (0x55)");
    host.load_program(&mut system, PROCESSOR_1, program.words())?;
    phase(r, &system, "send object code");
    host.write_memory(&mut system, PROCESSOR_1, vecsum::DATA_ADDR, &data)?;
    phase(r, &system, "fill memory contents");
    host.activate(&mut system, PROCESSOR_1)?;
    phase(r, &system, "activate processor");
    host.wait_for_printf(&mut system, PROCESSOR_1, 1)?;
    phase(r, &system, "execute + printf");
    let result = host.read_memory(&mut system, PROCESSOR_1, vecsum::RESULT_ADDR, 1)?;
    phase(r, &system, "debug memory read");

    let expected = vecsum::expected_sum(&data);
    writeln!(
        r,
        "\nprintf: {}   read-back: {}   expected: {expected}",
        host.printf_output(PROCESSOR_1)[0],
        result[0]
    )?;
    assert_eq!(host.printf_output(PROCESSOR_1)[0], expected);
    assert_eq!(result[0], expected);
    writeln!(
        r,
        "total: {} cycles — both Fig. 9 debug paths agree",
        system.cycle()
    )?;
    Ok(())
}

/// Boots the paper system and streams `image` through the line-pipelined
/// Sobel application on `processors`, checked against the host-side
/// reference; returns the system and the cycles the run took.
fn edge_run(processors: &[NodeId], image: &Image) -> Result<(System, u64), BoxError> {
    let mut system = System::paper_config()?;
    let mut host = Host::new().with_budget(50_000_000);
    host.synchronize(&mut system)?;
    edge::load(&mut system, &mut host, processors, image.width() as u16)?;
    let run = edge::run(&mut system, &mut host, processors, image)?;
    assert_eq!(run.output, edge::reference(image), "output mismatch");
    Ok((system, run.cycles))
}

/// E6 — §4 Fig. 10: parallel edge detection, one versus two processors.
///
/// Streams synthetic images of several sizes through the line-pipelined
/// Sobel application and reports cycles, wall time at 25 MHz, and the
/// two-processor speedup. Output correctness is checked against the
/// host-side reference on every run.
pub fn edge_detection(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(
        r,
        "E6: parallel edge detection (Fig. 10), verified against the reference\n"
    )?;
    table_row!(
        r,
        "image",
        "1 proc cycles",
        "2 proc cycles",
        "speedup",
        "2-proc wall time"
    );
    for (w, h) in [(16usize, 8usize), (32, 16), (48, 24), (64, 32)] {
        let image = Image::synthetic(w, h);
        let serial = edge_run(&[PROCESSOR_1], &image)?.1;
        let parallel = edge_run(&[PROCESSOR_1, PROCESSOR_2], &image)?.1;
        let ms = parallel as f64 / 25.0e6 * 1e3;
        table_row!(
            r,
            format!("{w}x{h}"),
            serial,
            parallel,
            format!("{:.2}x", serial as f64 / parallel as f64),
            format!("{ms:.1} ms")
        );
    }
    writeln!(
        r,
        "\nconclusion: the pipelined two-processor version approaches 2x speedup\n\
         as compute dominates the serial-link feeding, the behaviour the demo\n\
         GUI of Fig. 10 showcased."
    )?;
    Ok(())
}

/// Runs `program` to halt on a standalone R8 core with `words` of RAM.
fn standalone(program: &r8::Program, words: usize, budget: u64) -> (Cpu, RamBus) {
    let mut bus = RamBus::new(words);
    bus.load(0, program.words());
    let mut cpu = Cpu::new();
    cpu.run(&mut bus, budget).expect("halts");
    (cpu, bus)
}

/// E7 — §2.4: "The R8 processor is a 16-bit Von Neumann architecture
/// with a CPI between 2 and 4."
///
/// Runs instruction-mix microbenchmarks on a standalone R8 core and
/// reports the measured CPI per mix, plus the wait-state effect of
/// remote (NoC) accesses that the Processor IP adds.
pub fn cpi(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(
        r,
        "E7: R8 cycles per instruction by mix (paper: between 2 and 4)\n"
    )?;
    table_row!(r, "instruction mix", "CPI");
    let mixes: [(&str, &str); 6] = [
        ("pure ALU", "ADD R1, R2, R3\nXOR R4, R1, R2"),
        ("ALU + immediates", "ADDI R1, 3\nLDL R2, 7\nSUBI R1, 1"),
        ("shifts", "SL0 R1, R2\nSR1 R2, R1"),
        (
            "local loads/stores",
            "XOR R0, R0, R0\nLIW R5, 0x300\nST R1, R5, R0\nLD R2, R5, R0",
        ),
        (
            "mul/div",
            "LIW R1, 77\nLIW R2, 5\nMUL R3, R1, R2\nDIV R4, R3, R2",
        ),
        ("stack traffic", "LIW R15, 0x3F0\nLDSP R15\nPUSH R1\nPOP R2"),
    ];
    for (name, body) in mixes {
        let source = format!("{}HALT\n", format!("{body}\n").repeat(200));
        let cpi = standalone(&assemble(&source)?, 4096, 10_000_000).0.cpi();
        assert!((2.0..=4.0).contains(&cpi), "{name} CPI {cpi} out of band");
        table_row!(r, name, format!("{cpi:.2}"));
    }

    // Branchy code: the taken-branch penalty keeps CPI inside the band.
    let branchy = assemble(
        "
        LIW  R1, 500
loop:   SUBI R1, 1
        JMPZD done
        JMPD loop
done:   HALT
",
    )?;
    let branchy = standalone(&branchy, 1024, 1_000_000).0.cpi();
    table_row!(r, "tight branch loop", format!("{branchy:.2}"));

    // Remote accesses stall the core with wait states (§2.4): effective
    // CPI rises well above the band — that is the NUMA cost, not the
    // core's.
    let mut system = System::paper_config()?;
    let base = system
        .address_map(PROCESSOR_1)?
        .window_base(REMOTE_MEMORY)
        .expect("remote window");
    let program = assemble(&format!(
        "
        XOR  R0, R0, R0
        LIW  R1, {base}
        LIW  R3, 100
loop:   LD   R2, R1, R0      ; remote load -> NoC round trip
        SUBI R3, 1
        JMPZD done
        JMPD loop
done:   HALT
"
    ))?;
    let mut host = Host::new();
    host.synchronize(&mut system)?;
    host.load_program(&mut system, PROCESSOR_1, program.words())?;
    host.activate(&mut system, PROCESSOR_1)?;
    system.run_until_halted(10_000_000)?;
    let cpu = system.cpu(PROCESSOR_1)?;
    table_row!(
        r,
        "remote-load loop (NUMA)",
        format!("{:.2}  <- includes NoC wait states", cpu.cpi())
    );
    assert!(cpu.cpi() > 4.0);
    writeln!(r, "\nconclusion: core CPI stays in the paper's 2..4 band; only NoC wait\nstates (remote loads, I/O, wait) push the effective CPI beyond it.")?;
    Ok(())
}

/// E10 — §2.2/§4: the serial bottleneck. The paper chose "serial low
/// cost, low performance external communication" and notes the approach
/// "can be adapted to faster external interface protocols (USB, PCI,
/// Firewire)".
///
/// Measures the cycle cost of loading a program image (1K words; 128 at
/// smoke scale) as a function of the link speed, from the prototype's
/// plausible baud rates up to a USB-class byte channel.
pub fn serial(scale: Scale, r: &mut Report) -> Result<(), BoxError> {
    const CLOCK_HZ: f64 = 25.0e6;
    let (words, size) = scale.pick((128u16, "128-word (256 B)"), (1024, "1K-word (2 KiB)"));
    let load_time = |config: SerialConfig| -> Result<u64, BoxError> {
        let mut system = System::builder()
            .serial(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()?;
        let mut host = Host::new().with_budget(2_000_000_000);
        host.synchronize(&mut system)?;
        let image: Vec<u16> = (0..words).map(|i| i.wrapping_mul(31)).collect();
        let start = system.cycle();
        host.write_memory(&mut system, PROCESSOR_1, 0, &image)?;
        let cycles = system.cycle() - start;
        // Verify the far end actually holds the image.
        assert_eq!(system.memory(PROCESSOR_1)?.read_block(0, words), image);
        Ok(cycles)
    };
    writeln!(
        r,
        "E10: loading a {size} image over the serial link at 25 MHz\n"
    )?;
    table_row!(r, "link", "cycles/byte", "load cycles", "load time");
    let cases: [(&str, SerialConfig); 5] = [
        ("9600 baud", SerialConfig::from_baud(CLOCK_HZ, 9600.0)),
        ("115200 baud", SerialConfig::from_baud(CLOCK_HZ, 115_200.0)),
        ("921600 baud", SerialConfig::from_baud(CLOCK_HZ, 921_600.0)),
        (
            "USB-class (1 MB/s)",
            SerialConfig {
                cycles_per_byte: 25,
            },
        ),
        ("ideal byte/cycle", SerialConfig { cycles_per_byte: 1 }),
    ];
    let mut times = Vec::new();
    for (name, config) in cases {
        let cycles = load_time(config)?;
        let secs = cycles as f64 / CLOCK_HZ;
        let time = if secs >= 1.0 {
            format!("{secs:.2} s")
        } else {
            format!("{:.1} ms", secs * 1e3)
        };
        times.push(cycles);
        table_row!(r, name, config.cycles_per_byte, cycles, time);
    }
    assert!(times.windows(2).all(|w| w[0] > w[1]));
    writeln!(
        r,
        "\nconclusion: the host link, not the NoC, bounds system fill time —\n\
         the cost/performance trade the paper accepts and proposes USB/PCI to fix."
    )?;
    Ok(())
}

/// E12 (extension) — cost of the §5 future-work compiler: the same
/// kernels written in hand-tuned R8 assembly and in R8C, compared by
/// executed cycles on a standalone core. Quantifies what the paper's
/// "faster software implementation" trades away.
pub fn compiler(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(
        r,
        "E12: hand assembly vs r8c-compiled code (cycles to completion)\n"
    )?;
    table_row!(
        r,
        "kernel",
        "hand asm",
        "r8c -O0",
        "r8c -O1",
        "O1 overhead",
        "agree"
    );

    // Kernel 1: sum 1..=200.
    let hand_sum = assemble(
        "
        XOR  R0, R0, R0
        LIW  R1, 200
        XOR  R2, R2, R2
loop:   ADD  R2, R2, R1
        SUBI R1, 1
        JMPZD done
        JMPD loop
done:   LIW  R3, 0x700
        ST   R2, R3, R0
        HALT
",
    )?;
    let sum_src = "func main() {
             var i = 200;
             var total = 0;
             while (i > 0) {
                 total = total + i;
                 i = i - 1;
             }
             poke(0x700, total);
         }";

    // Kernel 2: 16-entry popcount histogram of i*259.
    let hand_pop = assemble(
        "
        XOR  R0, R0, R0
        XOR  R4, R4, R4          ; i
        XOR  R7, R7, R7          ; checksum
outer:  LIW  R5, 259
        MUL  R5, R4, R5          ; x = i * 259
        XOR  R6, R6, R6          ; popcount
bits:   SUB  R8, R5, R0
        JMPZD donebits
        LIW  R9, 1
        AND  R9, R5, R9
        ADD  R6, R6, R9
        SR0  R5, R5
        JMPD bits
donebits:
        ADD  R7, R7, R6
        ADDI R4, 1
        LIW  R9, 16
        SUB  R8, R4, R9
        JMPZD fin
        JMPD outer
fin:    LIW  R3, 0x700
        ST   R7, R3, R0
        HALT
",
    )?;
    let pop_src = "func weight(x) {
             var acc = 0;
             while (x) {
                 acc = acc + (x & 1);
                 x = x >> 1;
             }
             return acc;
         }
         func main() {
             var i = 0;
             var checksum = 0;
             while (i < 16) {
                 checksum = checksum + weight(i * 259);
                 i = i + 1;
             }
             poke(0x700, checksum);
         }";

    // Cycles to completion and the word the kernel leaves at 0x700.
    let run_words = |program: &r8::Program| {
        let (cpu, bus) = standalone(program, 4096, 50_000_000);
        (cpu.cycles(), bus.peek(0x700))
    };
    let compiled = |source: &str, opt| -> Result<_, BoxError> {
        Ok(run_words(&assemble(&r8c::compile_with(source, opt)?)?))
    };
    for (name, hand, source) in [
        ("sum 1..=200", hand_sum, sum_src),
        ("popcount x16", hand_pop, pop_src),
    ] {
        let (hand_cycles, hand_result) = run_words(&hand);
        let (o0_cycles, o0_result) = compiled(source, r8c::OptLevel::None)?;
        let (o1_cycles, o1_result) = compiled(source, r8c::OptLevel::Basic)?;
        table_row!(
            r,
            name,
            hand_cycles,
            o0_cycles,
            o1_cycles,
            format!("{:.2}x", o1_cycles as f64 / hand_cycles as f64),
            hand_result == o0_result && o0_result == o1_result
        );
        assert_eq!(hand_result, o0_result, "{name} O0 result differs");
        assert_eq!(hand_result, o1_result, "{name} O1 result differs");
    }
    writeln!(
        r,
        "\nconclusion: the stack-based compiler costs a few x over hand assembly;\n\
         folding and direct operand loading (-O1) claw part of it back — the\n\
         productivity/performance trade of the C compiler the paper planned."
    )?;
    Ok(())
}

/// E13 (extension) — the communication profile of the Fig. 10 edge
/// detection application: how many messages of each of the nine NoC
/// services one full run generates, per node. This is the quantitative
/// view of §2.1's claim that the nine packet formats "define a set of
/// services offered by the communication network to the IP cores".
pub fn services(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    let image = Image::synthetic(32, 12);
    let (system, _) = edge_run(&[PROCESSOR_1, PROCESSOR_2], &image)?;
    writeln!(
        r,
        "E13: service mix of one {}x{} edge-detection run on 2 processors\n",
        image.width(),
        image.height()
    )?;
    let counters = system.service_counters();
    table_row!(r, "service", "total sent", "by serial", "by P1", "by P2");
    for code in ALL_CODES {
        table_row!(
            r,
            format!("{code:?}"),
            counters.total_sent(code),
            counters.sent(multinoc::SERIAL, code),
            counters.sent(PROCESSOR_1, code),
            counters.sent(PROCESSOR_2, code)
        );
    }
    writeln!(
        r,
        "\n{} write and {} read transactions moved {} output lines;\n\
         the host-side services (write/read/activate) dominate — the system is\n\
         fill-and-drain limited, consistent with experiments E6 and E10.",
        counters.total_sent(ServiceCode::WriteInMemory),
        counters.total_sent(ServiceCode::ReadFromMemory),
        image.height() - 2
    )?;
    Ok(())
}

const TOTAL_UNITS: u16 = 360;
const SHARE_ADDR: u16 = 0x380; // where the host deposits the work share
const START_ADDR: u16 = 0x381; // first unit index for this processor
const RESULT_ADDR: u16 = 0x382; // partial checksum output

/// Host-side reference of one processor's partial checksum (the xor of
/// all partials is partition-independent only if partitions match, so
/// partials are compared one by one).
fn reference_partial(start: u16, share: u16) -> u16 {
    let mut acc: u16 = 0;
    for unit in start..start + share {
        let mut x = unit.wrapping_mul(7).wrapping_add(1);
        for _ in 0..20 {
            x = (x.wrapping_mul(3).wrapping_add(unit)) & 0x7FF;
            acc ^= x;
        }
    }
    acc
}

/// Makespan of the E14 workload on `processors` cores of a 4×4 mesh:
/// serial at 00, processors filling the other routers in row order.
fn sea_makespan(processors: usize, kernel: &r8::Program) -> Result<u64, BoxError> {
    let mut builder = System::builder()
        .noc(NocConfig::mesh(4, 4))
        .serial_at(RouterAddr::new(0, 0));
    let routers = (0..16u8).map(|i| RouterAddr::new(i % 4, i / 4)).skip(1);
    for addr in routers.take(processors) {
        builder = builder.processor_at(addr);
    }
    let mut system = builder.build()?;
    let nodes: Vec<NodeId> = (1..=processors as u8).map(NodeId).collect();
    let share = TOTAL_UNITS / processors as u16;
    assert_eq!(
        share * processors as u16,
        TOTAL_UNITS,
        "processor count must divide the workload"
    );
    for (k, &node) in nodes.iter().enumerate() {
        let memory = system.memory_mut(node)?;
        memory.write_block(0, kernel.words());
        memory.write(SHARE_ADDR, share);
        memory.write(START_ADDR, k as u16 * share);
    }
    for &node in &nodes {
        system.activate_directly(node)?;
    }
    let start = system.cycle();
    system.run_until_halted(500_000_000)?;
    for (k, &node) in nodes.iter().enumerate() {
        let got = system.memory(node)?.read(RESULT_ADDR);
        let expected = reference_partial(k as u16 * share, share);
        assert_eq!(got, expected, "partial checksum of {node}");
    }
    Ok(system.cycle() - start)
}

/// E14 (extension) — the "sea of processors" (§1): strong scaling of a
/// fixed workload over 1–12 processors on a 4×4 mesh, the system-level
/// consequence of the paper's motivation ("the current trend to
/// increase the number of embedded processors in SoCs").
///
/// Each processor runs the same compiled kernel over its share of 360
/// work units (the share is written into its local memory before
/// activation); the makespan is the cycle at which the last processor
/// halts. Results are verified against per-processor partial checksums.
pub fn sea_of_processors(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    writeln!(
        r,
        "E14: strong scaling of {TOTAL_UNITS} work units over a 4x4 MultiNoC\n"
    )?;
    let kernel = r8c::build(&format!(
        "func main() {{
             var share = peek({SHARE_ADDR});
             var unit = peek({START_ADDR});
             var acc = 0;
             var n = 0;
             while (n < share) {{
                 // A few hundred cycles of real work per unit.
                 var x = unit * 7 + 1;
                 var inner = 0;
                 while (inner < 20) {{
                     x = (x * 3 + unit) & 0x7FF;
                     acc = acc ^ x;
                     inner = inner + 1;
                 }}
                 unit = unit + 1;
                 n = n + 1;
             }}
             poke({RESULT_ADDR}, acc);
         }}"
    ))?;
    table_row!(
        r,
        "processors",
        "makespan (cycles)",
        "speedup",
        "efficiency"
    );
    let mut base = None;
    for processors in [1usize, 2, 3, 4, 6, 12] {
        let cycles = sea_makespan(processors, &kernel)?;
        let speedup = *base.get_or_insert(cycles) as f64 / cycles as f64;
        table_row!(
            r,
            processors,
            cycles,
            format!("{speedup:.2}x"),
            format!("{:.0}%", speedup / processors as f64 * 100.0)
        );
    }
    writeln!(
        r,
        "\nconclusion: with independent per-processor work the platform scales\n\
         nearly linearly — the \"sea of processors\" §1 motivates, enabled by\n\
         the NoC's distributed routing (no shared-bus bottleneck)."
    )?;
    Ok(())
}

/// E15 (extension) — §5's partial/dynamic reconfiguration claims,
/// measured: "the IP cores position be modified in execution at
/// runtime, favoring the IPs communication with improved throughput.
/// Reconfiguration can also be used to reduce system area consumption
/// through insertion and removal of IP cores on demand."
pub fn reconfig(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    // Cycles for P1 to finish `count` remote reads of P2's memory.
    let remote_read_time = |system: &mut System, count: u16| -> Result<u64, BoxError> {
        let base = system
            .address_map(PROCESSOR_1)?
            .window_base(PROCESSOR_2)
            .expect("peer window");
        let program = assemble(&format!(
            "XOR R0, R0, R0\nLIW R1, {base}\nLIW R3, {count}\n\
             loop: LD R2, R1, R0\nSUBI R3, 1\nJMPZD done\nJMPD loop\ndone: HALT"
        ))?;
        system
            .memory_mut(PROCESSOR_1)?
            .write_block(0, program.words());
        let start = system.cycle();
        system.activate_directly(PROCESSOR_1)?;
        system.run_until_halted(50_000_000)?;
        Ok(system.cycle() - start)
    };
    writeln!(r, "E15: dynamic reconfiguration (§5)\n")?;
    writeln!(
        r,
        "claim 1: relocating an IP towards its communication partner"
    )?;
    writeln!(
        r,
        "         improves throughput (P1 at router 10 reads P2's memory)\n"
    )?;
    table_row!(r, "P2 position", "hops", "50 remote reads", "per read");
    let mut system = System::builder()
        .noc(NocConfig::mesh(4, 4))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(1, 0))
        .processor_at(RouterAddr::new(3, 3))
        .memory_at(RouterAddr::new(3, 0))
        .build()?;
    let p1 = RouterAddr::new(1, 0);
    for position in [
        RouterAddr::new(3, 3),
        RouterAddr::new(2, 2),
        RouterAddr::new(2, 0),
    ] {
        if system.table().router_of(PROCESSOR_2) != Some(position) {
            system.relocate_ip(PROCESSOR_2, position)?;
        }
        let cycles = remote_read_time(&mut system, 50)?;
        table_row!(
            r,
            position,
            p1.hops_to(position),
            cycles,
            format!("{:.0} cy", cycles as f64 / 50.0)
        );
    }

    writeln!(
        r,
        "\nclaim 2: removing idle IP cores reduces area consumption\n"
    )?;
    table_row!(r, "configuration", "active slices", "of XC2S200E");
    let slices = |processors: u32, memories: u32| {
        4 * Component::router("r").slices
            + Component::serial("s").slices
            + processors * Component::processor("p").slices
            + memories * Component::memory("m").slices
    };
    let device = floorplan::Device::xc2s200e().slices();
    for (name, p, m) in [
        ("full system (2P + 1M)", 2u32, 1u32),
        ("P2 removed (1P + 1M)", 1, 1),
        ("P2 + memory removed", 1, 0),
    ] {
        let used = slices(p, m);
        table_row!(
            r,
            name,
            used,
            format!("{:.0}%", f64::from(used) / f64::from(device) * 100.0)
        );
    }
    // Demonstrate the removal actually happens in the live system.
    let halt = assemble("HALT")?;
    system.memory_mut(PROCESSOR_2)?.write_block(0, halt.words());
    system.activate_directly(PROCESSOR_2)?;
    system.run_until_idle(1_000_000)?;
    system.remove_ip(PROCESSOR_2)?;
    writeln!(
        r,
        "\nlive removal of P2 succeeded; its node id stays reserved and\n\
         peers' reads of its window now return 0 — a de-configured region."
    )?;
    Ok(())
}

/// E16 (extension) — where the cycles go: per-processor utilization of
/// the two flagship applications. Quantifies the pipelining argument of
/// E6 (edge detection keeps both processors busy) and the serialization
/// inherent in the histogram's token ring.
pub fn utilization(_: Scale, r: &mut Report) -> Result<(), BoxError> {
    let processors = [PROCESSOR_1, PROCESSOR_2];
    let table = |r: &mut Report, system: &System| -> Result<(), BoxError> {
        table_row!(r, "processor", "running", "blocked", "halted/idle", "busy");
        for node in processors {
            let u = system.processor_utilization(node)?;
            table_row!(
                r,
                node,
                u.running,
                u.blocked,
                u.halted + u.idle,
                format!("{:.0}%", u.busy_fraction() * 100.0)
            );
        }
        Ok(())
    };
    writeln!(
        r,
        "E16: processor utilization by application\n\n\
         edge detection, 32x16 image, line-pipelined over 2 processors:"
    )?;
    let (system, _) = edge_run(&processors, &Image::synthetic(32, 16))?;
    table(r, &system)?;

    writeln!(
        r,
        "\ndistributed histogram, 200 samples, 2-processor token ring:"
    )?;
    let mut system = System::paper_config()?;
    let mut host = Host::new().with_budget(50_000_000);
    host.synchronize(&mut system)?;
    let data: Vec<u16> = (0..200).map(|i| ((i * 37 + 11) % 251) as u16).collect();
    let run = histogram::run(&mut system, &mut host, &processors, REMOTE_MEMORY, &data)?;
    assert_eq!(run.bins, histogram::reference(&data));
    table(r, &system)?;

    writeln!(
        r,
        "\nconclusion: the pipelined edge detector splits work symmetrically,\n\
         while the histogram's token ring makes the tail processor wait —\n\
         blocked cycles localize exactly where the synchronization is."
    )?;
    Ok(())
}
