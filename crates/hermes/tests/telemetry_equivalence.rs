//! Differential test of the interval telemetry sampler: for the same
//! workload, the exported time-series JSON and Prometheus documents (and
//! therefore every frame, hotspot and congestion alert in them) must be
//! **byte-identical** across the `Reference` and `Parallel` kernels
//! at any thread count and batch window, on every topology — plus
//! equivalence across stepping styles (`step` vs odd `run` chunks vs
//! `advance_idle`) and across a snapshot/restore split.
//!
//! The contract under test: frames are cut only at fully merged cycle
//! boundaries, parallel batch windows are clamped so none ever straddles
//! a boundary, and the idle fast-forward replays the zero-delta frames a
//! stepped run would have produced (the congestion EWMAs decay frame by
//! frame either way).

use hermes_noc::{
    CongestionKind, D2dChannel, KernelMode, Noc, NocConfig, Packet, RouterAddr, TelemetryConfig,
};

/// Kernel line-up: the full-scan oracle and the shard engine at the
/// default one shard, even and oversubscribed thread counts.
const KERNELS: [KernelMode; 4] = [
    KernelMode::Reference,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Batch windows swept against every kernel: cycle-fine and the
/// production default, both of which the sampler must clamp identically.
const BATCH_WINDOWS: [u32; 2] = [1, 16];

fn addr_of(index: u64, width: u8) -> RouterAddr {
    RouterAddr::new(
        (index % u64::from(width)) as u8,
        (index / u64::from(width)) as u8,
    )
}

/// Injects wave `wave` of the scatter schedule: every router sends one
/// 3-word packet to a shuffled destination.
fn inject_wave(noc: &mut Noc, wave: u64) {
    let config = noc.config().clone();
    let nodes = u64::from(config.width()) * u64::from(config.height());
    for i in 0..nodes {
        let src = addr_of(i, config.width());
        let dest = addr_of((i * 7 + wave * 3 + 3) % nodes, config.width());
        let _ = noc.send(src, Packet::new(dest, vec![(wave * 31 + i) as u16; 3]));
    }
}

/// Builds a telemetry-enabled network and drives `waves` scatter waves,
/// advancing `chunk` cycles between them via `run` (so parallel kernels
/// actually batch). Returns the two exported documents.
fn drive(config: &NocConfig, kernel: KernelMode, window: u32, chunk: u64) -> (String, String) {
    let mut noc = Noc::new(
        config
            .clone()
            .with_kernel_mode(kernel)
            .with_batch_window(window),
    )
    .expect("valid config");
    noc.enable_telemetry(TelemetryConfig::default());
    for wave in 0..12 {
        inject_wave(&mut noc, wave);
        noc.run(chunk);
    }
    (
        noc.telemetry_json().expect("telemetry enabled"),
        noc.telemetry_prometheus().expect("telemetry enabled"),
    )
}

/// The tentpole sweep: mesh, torus and chiplet topologies, all kernels,
/// all batch windows, byte-identical exports. The 37-cycle chunk is
/// deliberately coprime with the 64-cycle sample interval so windows
/// land on every possible offset around the boundaries.
#[test]
fn exports_identical_across_kernels_windows_topologies() {
    let configs = [
        ("mesh", NocConfig::mesh(4, 4)),
        ("torus", NocConfig::torus(4, 4)),
        (
            "chiplet",
            NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial),
        ),
    ];
    for (name, config) in configs {
        let reference = drive(&config, KERNELS[0], BATCH_WINDOWS[0], 37);
        assert!(
            reference.0.contains("\"frames\""),
            "{name}: export carries frames"
        );
        for kernel in KERNELS {
            for window in BATCH_WINDOWS {
                let got = drive(&config, kernel, window, 37);
                assert_eq!(
                    reference.0, got.0,
                    "{name}: time-series JSON diverged under {kernel:?} window {window}"
                );
                assert_eq!(
                    reference.1, got.1,
                    "{name}: Prometheus diverged under {kernel:?} window {window}"
                );
            }
        }
    }
}

/// Chunking equivalence: the same schedule single-stepped, advanced in
/// odd 37-cycle chunks and in boundary-aligned 64-cycle chunks must
/// export identical bytes — sample boundaries depend on the clock, never
/// on how the caller slices the run.
#[test]
fn stepping_style_does_not_change_the_series() {
    let config = NocConfig::mesh(4, 4);
    let chunk_cycles = 148u64; // 4 x 37: not a multiple of the interval
    let stepped = {
        let mut noc = Noc::new(
            config
                .clone()
                .with_kernel_mode(KernelMode::Parallel { threads: 2 })
                .with_batch_window(16),
        )
        .expect("valid config");
        noc.enable_telemetry(TelemetryConfig::default());
        for wave in 0..12 {
            inject_wave(&mut noc, wave);
            for _ in 0..chunk_cycles {
                noc.step();
            }
        }
        (
            noc.telemetry_json().expect("enabled"),
            noc.telemetry_prometheus().expect("enabled"),
        )
    };
    for (label, runs, per_run) in [("odd 37s", 4u64, 37u64), ("aligned 74s", 2, 74)] {
        let mut noc = Noc::new(
            config
                .clone()
                .with_kernel_mode(KernelMode::Parallel { threads: 2 })
                .with_batch_window(16),
        )
        .expect("valid config");
        noc.enable_telemetry(TelemetryConfig::default());
        for wave in 0..12 {
            inject_wave(&mut noc, wave);
            for _ in 0..runs {
                noc.run(per_run);
            }
        }
        assert_eq!(
            stepped.0,
            noc.telemetry_json().expect("enabled"),
            "JSON diverged when run in {label}"
        );
        assert_eq!(
            stepped.1,
            noc.telemetry_prometheus().expect("enabled"),
            "Prometheus diverged when run in {label}"
        );
    }
}

/// Idle fast-forward equivalence: once the network drains, skipping 1000
/// cycles with `advance_idle` must leave the sampler byte-identical to
/// stepping through them — the EWMAs decay through the same zero-delta
/// frames either way.
#[test]
fn advance_idle_replays_the_zero_delta_frames() {
    let build = || {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).expect("valid config");
        noc.enable_telemetry(TelemetryConfig::default());
        inject_wave(&mut noc, 0);
        inject_wave(&mut noc, 1);
        noc.run_until_idle(100_000).expect("drains");
        noc
    };
    let mut stepped = build();
    let mut fast = build();
    for _ in 0..1_000 {
        stepped.step();
    }
    assert!(fast.is_idle(), "network drained before the fast-forward");
    fast.advance_idle(1_000);
    assert_eq!(
        stepped.telemetry_json().expect("enabled"),
        fast.telemetry_json().expect("enabled"),
        "idle fast-forward and stepping disagree on the series"
    );
    assert_eq!(
        stepped.telemetry_prometheus().expect("enabled"),
        fast.telemetry_prometheus().expect("enabled"),
        "idle fast-forward and stepping disagree on the exposition"
    );
}

/// Snapshot round trip mid-run: saving between two waves and restoring —
/// into the same kernel and across kernels — must continue to the same
/// exported bytes as the uninterrupted run. Telemetry rides snapshot v4.
#[test]
fn snapshot_restore_resumes_the_series() {
    let config = NocConfig::mesh(4, 4);
    let first_half = |noc: &mut Noc| {
        for wave in 0..6 {
            inject_wave(noc, wave);
            noc.run(37);
        }
    };
    let second_half = |noc: &mut Noc| {
        for wave in 6..12 {
            inject_wave(noc, wave);
            noc.run(37);
        }
        (
            noc.telemetry_json().expect("enabled"),
            noc.telemetry_prometheus().expect("enabled"),
        )
    };
    let mut uninterrupted = Noc::new(config.clone()).expect("valid config");
    uninterrupted.enable_telemetry(TelemetryConfig::default());
    first_half(&mut uninterrupted);
    let bytes = uninterrupted.save_state();
    let expected = second_half(&mut uninterrupted);

    let mut same_kernel = Noc::restore_state(&bytes).expect("snapshot restores");
    assert_eq!(
        expected,
        second_half(&mut same_kernel),
        "restored run diverged from the uninterrupted one"
    );
    let mut cross_kernel =
        Noc::restore_state_with_kernel(&bytes, KernelMode::Parallel { threads: 2 })
            .expect("snapshot restores into the parallel kernel");
    assert_eq!(
        expected,
        second_half(&mut cross_kernel),
        "cross-kernel restore diverged from the uninterrupted run"
    );
}

/// The congestion analytics must deterministically raise (and, once the
/// load drains, clear) a sustained-congestion alert when a single link
/// is pinned at practical saturation: every packet aimed at (0,0) from
/// off row 0 converges on the (0,1)->(0,0) link under XY routing.
#[test]
fn hotspot_raises_and_clears_a_sustained_alert() {
    let config = NocConfig::mesh(4, 4);
    let mut noc = Noc::new(config).expect("valid config");
    noc.enable_telemetry(TelemetryConfig::default());
    let sink = RouterAddr::new(0, 0);
    for cycle in 0..1_400u64 {
        if cycle.is_multiple_of(2) {
            let src = addr_of(4 + (cycle / 2) % 12, 4);
            let _ = noc.send(src, Packet::new(sink, vec![0x0AB; 3]));
        }
        noc.step();
    }
    let telemetry = noc.telemetry().expect("enabled");
    assert!(
        telemetry.alerts_raised() >= 1,
        "saturating one link must raise a sustained-congestion alert"
    );
    let threshold = telemetry.config().alert_threshold_permille;
    assert!(
        telemetry
            .events()
            .filter(|e| e.kind == CongestionKind::Raised)
            .all(|e| e.ewma_permille >= threshold),
        "raised alerts must carry an EWMA at or above the threshold"
    );
    assert!(telemetry.links_alerted() >= 1, "the alert is still active");

    // Drain and idle: the EWMA decays through zero-delta frames and the
    // alert clears.
    noc.run_until_idle(100_000).expect("drains");
    noc.run(1_024);
    let telemetry = noc.telemetry().expect("enabled");
    assert!(
        telemetry.alerts_cleared() >= 1,
        "the alert must clear once the hotspot drains"
    );
    assert_eq!(
        telemetry.links_alerted(),
        0,
        "no link stays alerted on an idle network"
    );
}

/// Chiplet satellite: both off-chip d2d channel styles export
/// deterministically across kernels and windows, the labels carry the
/// `:d2d` annotation, and the two channel styles produce genuinely
/// different series (the serialized channel is the slower path).
#[test]
fn chiplet_mixed_d2d_exports_are_deterministic_and_distinct() {
    let mut by_channel = Vec::new();
    for channel in [D2dChannel::OffChipSerial, D2dChannel::OffChipParallel] {
        let config = NocConfig::chiplet(2, 2, channel);
        let reference = drive(&config, KERNELS[0], BATCH_WINDOWS[0], 37);
        for kernel in KERNELS {
            for window in BATCH_WINDOWS {
                let got = drive(&config, kernel, window, 37);
                assert_eq!(
                    reference, got,
                    "{channel:?}: exports diverged under {kernel:?} window {window}"
                );
            }
        }
        assert!(
            reference.0.contains(":d2d"),
            "{channel:?}: off-chip links are labelled :d2d in the series"
        );
        by_channel.push(reference);
    }
    assert_ne!(
        by_channel[0], by_channel[1],
        "serialized and parallel d2d channels must not export the same series"
    );
}
