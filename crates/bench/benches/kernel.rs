//! Simulation-kernel microbenchmarks: the default kernel (the shard
//! engine on one shard, walking only routers with work) against the
//! `Reference` full-scan oracle on an idle-heavy mesh (where the
//! active-set walk skips almost everything) and under saturation (the
//! overhead guard — both kernels touch every router, so the walk must
//! cost next to nothing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hermes_noc::{KernelMode, Noc, NocConfig, Packet, RouterAddr};
use multinoc_bench::saturate;
use std::hint::black_box;

const KERNELS: [(&str, KernelMode); 2] = [
    ("reference", KernelMode::Reference),
    ("default", KernelMode::Parallel { threads: 1 }),
];

/// 16×16 mesh, one packet at the start, then thousands of dead cycles:
/// the reference kernel scans 256 idle routers per cycle for nothing.
fn bench_idle_mesh(c: &mut Criterion) {
    let cycles = 10_000u64;
    let mut group = c.benchmark_group("kernel_idle_mesh_16x16");
    group.throughput(Throughput::Elements(cycles));
    for (name, kernel) in KERNELS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kernel, |b, &kernel| {
            b.iter(|| {
                let config = NocConfig::mesh(16, 16).with_kernel_mode(kernel);
                let mut noc = Noc::new(config).unwrap();
                noc.send(
                    RouterAddr::new(0, 0),
                    Packet::new(RouterAddr::new(15, 15), vec![1, 2, 3]),
                )
                .unwrap();
                for _ in 0..cycles {
                    noc.step();
                }
                black_box(noc.stats().flit_hops)
            });
        });
    }
    group.finish();
}

/// 8×8 mesh with every edge node streaming to its opposite: the active
/// set is the whole mesh, so this measures pure bookkeeping overhead.
fn bench_saturated_mesh(c: &mut Criterion) {
    let cycles = 2_000u64;
    let flows: Vec<(RouterAddr, RouterAddr)> = (0..8)
        .map(|i| (RouterAddr::new(i, 0), RouterAddr::new(7 - i, 7)))
        .collect();
    let mut group = c.benchmark_group("kernel_saturated_mesh_8x8");
    group.throughput(Throughput::Elements(cycles));
    for (name, kernel) in KERNELS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kernel, |b, &kernel| {
            b.iter(|| {
                let config = NocConfig::mesh(8, 8).with_kernel_mode(kernel);
                let mut noc = Noc::new(config).unwrap();
                saturate(&mut noc, &flows, 8, cycles).unwrap();
                black_box(noc.stats().flit_hops)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_idle_mesh, bench_saturated_mesh);
criterion_main!(benches);
