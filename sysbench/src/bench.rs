//! One benchmark run: the kernel-agreement precheck, the timed
//! iterations, and the end-to-end or per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hermes_noc::{KernelMode, PhaseProfile};
use multinoc::service::ServiceCode;
use multinoc::System;

use crate::clock::CpuInstant;
use crate::span::Spans;
use crate::stats::{mean, median, quantile};
use crate::workload::{execute, prepare, standalone_instr_per_s, Inputs, Kind, Outcome, Params};

/// Every service code, with the name its per-layer metric uses.
const SERVICES: [(ServiceCode, &str); 12] = [
    (ServiceCode::ReadFromMemory, "read_from_memory"),
    (ServiceCode::ReadReturn, "read_return"),
    (ServiceCode::WriteInMemory, "write_in_memory"),
    (ServiceCode::ActivateProcessor, "activate_processor"),
    (ServiceCode::Printf, "printf"),
    (ServiceCode::Scanf, "scanf"),
    (ServiceCode::ScanfReturn, "scanf_return"),
    (ServiceCode::Notify, "notify"),
    (ServiceCode::Wait, "wait"),
    (ServiceCode::Ack, "ack"),
    (ServiceCode::ReplicateWrite, "replicate_write"),
    (ServiceCode::ReplicaInvalidate, "replica_invalidate"),
];

/// Span names whose self time is simulator time (calls that step the
/// system), and the per-layer metric each becomes.
const SIM_SPANS: [(&str, &str); 6] = [
    ("host.write", "host.write_s"),
    ("host.activate", "host.activate_s"),
    ("host.wait_printf", "host.wait_printf_s"),
    ("host.read", "host.read_s"),
    ("system.activate", "system.activate_s"),
    ("system.run", "system.run_s"),
];

/// The other spans, and their per-layer metric. `run`'s self time is
/// the benchmark's own loop.
const OTHER_SPANS: [(&str, &str); 5] = [
    ("observe.export", "observe.export_s"),
    ("snapshot.save", "snapshot.save_s"),
    ("snapshot.restore", "snapshot.restore_s"),
    ("check", "bench.check_s"),
    ("run", "bench.residual_s"),
];

/// Set-ups timed for `setup_s` before each timed iteration, besides the
/// iteration's own. Only the first follows a whole iteration and finds
/// the caches holding its data, so the median is a warm set-up in every
/// run; spread over the run like the iterations, they see the same host.
const SETUP_REPEATS: usize = 4;

/// Seconds the traced run spends timing the R8 program alone.
const STANDALONE_SECONDS: f64 = 0.3;

/// How a run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seconds to keep starting timed iterations.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Sizes of the kernel-agreement precheck; `None` skips it.
    pub precheck: Option<Params>,
    /// Fewest timed iterations, whatever `seconds` says.
    pub min_iterations: usize,
}

impl Options {
    /// The benchmark's configuration.
    pub fn new(seconds: f64, trace: bool) -> Self {
        Self {
            seconds,
            trace,
            precheck: Some(Params::PRECHECK),
            min_iterations: 4,
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output checked out and every kernel agreed.
    pub correct: bool,
    /// Operations attempted (timed iterations plus precheck kernels).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON, to be written out.
    pub spans_json: Option<String>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// What must agree, bit for bit, between simulation kernels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    outputs: Vec<u16>,
    sim_cycles: u64,
    retired: u64,
    packets: u64,
    flit_hops: u64,
    services: Vec<u64>,
    corrupt_dropped: u64,
    reliable: [u64; 3],
}

impl Fingerprint {
    /// Names of the fields in which `self` and `other` differ.
    fn diff(&self, other: &Self) -> Vec<&'static str> {
        [
            ("outputs", self.outputs != other.outputs),
            ("sim_cycles", self.sim_cycles != other.sim_cycles),
            ("retired", self.retired != other.retired),
            ("packets", self.packets != other.packets),
            ("flit_hops", self.flit_hops != other.flit_hops),
            ("services", self.services != other.services),
            (
                "corrupt_dropped",
                self.corrupt_dropped != other.corrupt_dropped,
            ),
            ("reliable", self.reliable != other.reliable),
        ]
        .into_iter()
        .filter_map(|(name, differs)| differs.then_some(name))
        .collect()
    }

    /// The fingerprint of a finished run on `system`.
    pub fn of(out: &Outcome, system: &System) -> Self {
        let stats = system.noc_stats();
        let counters = system.service_counters();
        let retry = system.retry_counters();
        Self {
            outputs: out.outputs.clone(),
            sim_cycles: out.sim_cycles,
            retired: out.retired,
            packets: stats.packets_sent,
            flit_hops: stats.flit_hops,
            services: SERVICES
                .iter()
                .map(|&(c, _)| counters.total_sent(c))
                .collect(),
            corrupt_dropped: counters.corrupt_dropped(),
            reliable: [retry.sent, retry.retransmissions, retry.acked],
        }
    }
}

/// Runs the workload once at `params` under the default kernel,
/// `Reference` and `Parallel { threads: 2 }`, and returns one problem
/// per kernel that failed a check or disagreed with the default.
pub fn precheck(kind: Kind, params: Params, seed: u64) -> Vec<String> {
    let inputs = Inputs::generate(kind, params, seed);
    let run = |kernel: KernelMode| -> Result<Fingerprint, String> {
        let mut p = prepare(&inputs, kernel).map_err(|e| format!("{kernel:?}: set-up: {e}"))?;
        let out = execute(&inputs, &mut p, &mut Spans::off());
        if let Some(e) = &out.error {
            return Err(format!("{kernel:?}: {e}"));
        }
        if out.failed() > 0 {
            return Err(format!(
                "{kernel:?}: {} of {} outputs wrong",
                out.failed(),
                out.attempted
            ));
        }
        Ok(Fingerprint::of(&out, &p.system))
    };
    let base = match run(kind.default_kernel()) {
        Ok(fp) => fp,
        Err(e) => return vec![e; 2],
    };
    [KernelMode::Reference, KernelMode::Parallel { threads: 2 }]
        .into_iter()
        .filter_map(|kernel| match run(kernel) {
            Ok(fp) if fp == base => None,
            Ok(fp) => Some(format!(
                "{kernel:?} disagrees with {:?} on {:?}",
                kind.default_kernel(),
                fp.diff(&base)
            )),
            Err(e) => Some(e),
        })
        .collect()
}

/// Counters of one traced iteration.
#[derive(Debug, Clone, Default)]
struct Layers {
    outcome: Outcome,
    counts: Fingerprint,
    phase: PhaseProfile,
    latency_p50: u64,
    latency_p99: u64,
    utilization: [u64; 4],
}

impl Layers {
    fn of(outcome: Outcome, system: &System) -> Self {
        let stats = system.noc_stats();
        let mut utilization = [0u64; 4];
        for node in system.processors() {
            if let Ok(u) = system.processor_utilization(node) {
                utilization[0] += u.running;
                utilization[1] += u.blocked;
                utilization[2] += u.halted;
                utilization[3] += u.idle;
            }
        }
        Self {
            counts: Fingerprint::of(&outcome, system),
            outcome,
            phase: system.phase_profile().unwrap_or_default(),
            latency_p50: stats.latency_quantile(0.5).unwrap_or(0),
            latency_p99: stats.latency_quantile(0.99).unwrap_or(0),
            utilization,
        }
    }
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Runs the benchmark on `inputs` as `opts` says.
pub fn run(inputs: &Inputs, opts: &Options) -> Report {
    let kind = inputs.kind;
    let kernel = kind.default_kernel();
    let mut report = Report::default();
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    report.notes.push(format!(
        "workload={} seed={} host_cpus={host_cpus} kernel={kernel:?} threads=1 trace={}",
        kind.name(),
        inputs.seed,
        u8::from(opts.trace)
    ));

    let precheck_start = Instant::now();
    let problems = match opts.precheck {
        Some(params) => {
            report.attempted += 2;
            precheck(kind, params, inputs.seed)
        }
        None => Vec::new(),
    };
    report.failed += problems.len() as u64;
    for problem in &problems {
        report
            .notes
            .push(format!("kernel precheck FAILED: {problem}"));
    }
    if opts.precheck.is_some() && problems.is_empty() {
        report.notes.push(format!(
            "kernel precheck ({:.2} s): Reference and Parallel{{threads: 2}} agree with the default kernel",
            precheck_start.elapsed().as_secs_f64()
        ));
    }

    let mut setups = Vec::new();
    let mut compile = Vec::new();
    let mut assemble = Vec::new();
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut recorder = Spans::on();
    let started = Instant::now();
    let mut iteration = 0;
    // Start another iteration only if one more, as long as the slowest
    // so far, still ends within `seconds`.
    let mut slowest = 0.0f64;
    let mut wall = Vec::new();
    while iteration < opts.min_iterations
        || started.elapsed().as_secs_f64() + slowest < opts.seconds
    {
        let trace_this = opts.trace && iteration % 2 == 1;
        let wall_start = Instant::now();
        for _ in 0..SETUP_REPEATS {
            let t = CpuInstant::now();
            let prepared = prepare(inputs, kernel);
            setups.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(prepared));
        }
        let t = CpuInstant::now();
        let prepared = prepare(inputs, kernel);
        let setup_s = t.elapsed().as_secs_f64();
        let mut p = match prepared {
            Ok(p) => p,
            Err(e) => {
                report.notes.push(format!("set-up failed: {e}"));
                untraced.push(Outcome {
                    attempted: inputs.ops(),
                    error: Some(e.to_string()),
                    ..Outcome::default()
                });
                break;
            }
        };
        setups.push(setup_s);
        compile.push(p.compile_s);
        assemble.push(p.assemble_s);
        let outcome = if trace_this {
            p.system.enable_phase_profiler();
            let outcome = execute(inputs, &mut p, &mut recorder);
            traced.push(Layers::of(outcome.clone(), &p.system));
            outcome
        } else {
            let outcome = execute(inputs, &mut p, &mut Spans::off());
            untraced.push(outcome.clone());
            outcome
        };
        iteration += 1;
        wall.push(wall_start.elapsed().as_secs_f64());
        slowest = slowest.max(wall_start.elapsed().as_secs_f64());
        if let Some(e) = &outcome.error {
            report.notes.push(format!("run failed: {e}"));
        }
        if outcome.failed() > 0 {
            report.notes.push(format!(
                "{} of {} operations failed",
                outcome.failed(),
                outcome.attempted
            ));
            break;
        }
    }
    let all = untraced.iter().chain(traced.iter().map(|l| &l.outcome));
    for outcome in all {
        report.attempted += outcome.attempted;
        report.failed += outcome.failed();
    }
    report.correct = report.failed == 0;
    report.notes.push(format!(
        "iterations: {} untraced, {} traced; operations: {} attempted, {} failed",
        untraced.len(),
        traced.len(),
        report.attempted,
        report.failed
    ));
    let cpu: Vec<f64> = untraced.iter().map(|o| o.run_s).collect();
    report.notes.push(format!(
        "per iteration: median {:.4} wall s (set-up, run and checks), {:.4} CPU s of untraced run",
        median(&wall),
        median(&cpu)
    ));

    if opts.trace {
        per_layer(&mut report, inputs, kernel, &untraced, &traced, &recorder);
        report.push("r8c.build_ms", median(&compile) * 1e3, "ms");
        report.push("asm.assemble_ms", median(&assemble) * 1e3, "ms");
        report.spans_json = Some(recorder.to_json(kind.name(), inputs.seed));
    } else {
        end_to_end(&mut report, &setups, &untraced);
    }
    report
}

fn end_to_end(report: &mut Report, setups: &[f64], outcomes: &[Outcome]) {
    let per_run = |f: &dyn Fn(&Outcome) -> f64| outcomes.iter().map(f).collect::<Vec<f64>>();
    let op_us: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.op_us.iter().copied())
        .collect();
    let attempted = report.attempted.max(1) as f64;
    report.push("setup_s", median(setups), "s");
    report.push("run_s", median(&per_run(&|o| o.run_s)), "s");
    report.push(
        "sim_cycles_per_s",
        median(&per_run(&|o| o.sim_cycles as f64 / o.run_s)),
        "1/s",
    );
    report.push(
        "sim_instr_per_s",
        median(&per_run(&|o| o.retired as f64 / o.run_s)),
        "1/s",
    );
    report.push(
        "sim_cycles",
        median(&per_run(&|o| o.sim_cycles as f64)),
        "cycles",
    );
    // Per-run percentiles, then the median over runs: a burst of host
    // noise inflates one run's tail, not every run's.
    report.push(
        "op_host_us_p50",
        median(&per_run(&|o| quantile(&o.op_us, 0.5))),
        "us",
    );
    report.push(
        "op_host_us_p95",
        median(&per_run(&|o| quantile(&o.op_us, 0.95))),
        "us",
    );
    report.push("peak_rss_kib", peak_rss_kib(), "KiB");
    report.push(
        "ops_ok_ratio",
        1.0 - report.failed as f64 / attempted,
        "ratio",
    );
    report.notes.push(format!(
        "samples: {} set-ups, {} runs, {} operation latencies (us: p10 {:.0}, p50 {:.0}, p90 {:.0}, p95 {:.0}, p99 {:.0})",
        setups.len(),
        outcomes.len(),
        op_us.len(),
        quantile(&op_us, 0.1),
        quantile(&op_us, 0.5),
        quantile(&op_us, 0.9),
        quantile(&op_us, 0.95),
        quantile(&op_us, 0.99),
    ));
}

fn per_layer(
    report: &mut Report,
    inputs: &Inputs,
    kernel: KernelMode,
    untraced: &[Outcome],
    traced: &[Layers],
    recorder: &Spans,
) {
    let n = traced.len().max(1) as f64;
    let table = recorder.self_times();
    let self_s = |name: &str| table.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9 / n);
    let run_s = recorder.root_ns() as f64 / 1e9 / n;
    let last = traced.last().cloned().unwrap_or_default();
    let sum = |f: &dyn Fn(&Layers) -> u64| traced.iter().map(f).sum::<u64>() as f64 / n;

    // The measured self-time table: its parts add up to `trace.run_s`.
    let mut parts: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, metric) in SIM_SPANS.iter().chain(OTHER_SPANS.iter()) {
        parts.insert(metric, self_s(span));
    }
    let covered: f64 = parts.values().sum();
    let unknown: Vec<&&str> = table
        .keys()
        .filter(|k| {
            !SIM_SPANS
                .iter()
                .chain(OTHER_SPANS.iter())
                .any(|(s, _)| s == *k)
        })
        .collect();
    assert!(unknown.is_empty(), "spans without a metric: {unknown:?}");
    let sim_s: f64 = SIM_SPANS.iter().map(|(span, _)| self_s(span)).sum();

    // Inside simulator time: NoC phases (profiler), R8 execution
    // (estimated from the standalone rate), and the rest of the loop.
    // The profiler inside the program reads wall time, so time the host
    // keeps the process off a CPU lands in the phases, not the residual.
    let alone = match prepare(inputs, kernel) {
        Ok(p) => standalone_instr_per_s(inputs, &p, STANDALONE_SECONDS),
        Err(_) => 0.0,
    };
    let retired = sum(&|l| l.outcome.retired);
    let r8_est_s = if alone > 0.0 { retired / alone } else { 0.0 };
    let phase = |f: &dyn Fn(&PhaseProfile) -> u64| sum(&|l| f(&l.phase)) / 1e9;
    let phases = [
        ("hermes.phase.local_s", phase(&|p| p.local_nanos)),
        ("hermes.phase.decide_s", phase(&|p| p.decide_nanos)),
        ("hermes.phase.apply_src_s", phase(&|p| p.apply_src_nanos)),
        ("hermes.phase.apply_dst_s", phase(&|p| p.apply_dst_nanos)),
    ];
    let phase_total: f64 = phases.iter().map(|(_, s)| s).sum();
    let sim_cycles = sum(&|l| l.outcome.sim_cycles);

    report.push("r8.retired", retired, "count");
    let cpu_cycles = sum(&|l| l.outcome.cpu_cycles);
    report.push(
        "r8.cpi",
        if retired > 0.0 {
            cpu_cycles / retired
        } else {
            0.0
        },
        "cycles",
    );
    report.push("r8.alone_minstr_per_s", alone / 1e6, "Minstr/s");
    report.push("r8.est_s", r8_est_s, "s");
    report.push("r8.est_share", r8_est_s / run_s, "ratio");
    report.push("hermes.packets", last.counts.packets as f64, "count");
    report.push("hermes.flit_hops", last.counts.flit_hops as f64, "count");
    report.push("hermes.latency_p50", last.latency_p50 as f64, "cycles");
    report.push("hermes.latency_p99", last.latency_p99 as f64, "cycles");
    report.push(
        "hermes.flit_hops_per_s",
        sum(&|l| l.counts.flit_hops) / sim_s,
        "1/s",
    );
    for (name, seconds) in phases {
        report.push(name, seconds, "s");
    }
    let [sent, retx, _acked] = last.counts.reliable.map(|c| c as f64);
    report.push("reliable.sent", sent, "count");
    report.push("reliable.retransmissions", retx, "count");
    report.push(
        "reliable.useful_ratio",
        if sent + retx > 0.0 {
            sent / (sent + retx)
        } else {
            1.0
        },
        "ratio",
    );
    for (&(_, name), &count) in SERVICES.iter().zip(&last.counts.services) {
        report.push(&format!("service.{name}_sent"), count as f64, "count");
    }
    report.push(
        "service.corrupt_dropped",
        last.counts.corrupt_dropped as f64,
        "count",
    );
    let util_total = last.utilization.iter().sum::<u64>().max(1) as f64;
    for (i, state) in ["running", "blocked", "halted", "idle"].iter().enumerate() {
        report.push(
            &format!("processor.{state}_frac"),
            last.utilization[i] as f64 / util_total,
            "ratio",
        );
    }
    for (i, op) in ["write", "activate", "wait_printf", "read"]
        .iter()
        .enumerate()
    {
        report.push(
            &format!("host.{op}_cycles"),
            sum(&|l| l.outcome.host_cycles[i]),
            "cycles",
        );
    }
    for (metric, seconds) in &parts {
        report.push(metric, *seconds, "s");
    }
    report.push("system.sim_s", sim_s, "s");
    report.push(
        "system.host_ns_per_cycle",
        if sim_cycles > 0.0 {
            sim_s / sim_cycles * 1e9
        } else {
            0.0
        },
        "ns",
    );
    report.push("system.residual_s", sim_s - phase_total - r8_est_s, "s");
    report.push(
        "observe.export_bytes",
        last.outcome.export_bytes as f64,
        "bytes",
    );
    report.push(
        "snapshot.bytes",
        last.outcome.snapshot_bytes as f64,
        "bytes",
    );
    let untraced_s = mean(&untraced.iter().map(|o| o.run_s).collect::<Vec<_>>());
    report.push("trace.run_s", run_s, "s");
    report.push("trace.untraced_run_s", untraced_s, "s");
    report.push("trace.overhead_s", run_s - untraced_s, "s");
    report.push("trace.spans", recorder.spans().len() as f64 / n, "count");

    report.notes.push(format!(
        "self-time table, mean of {} traced runs (parts add up to trace.run_s = {run_s:.6} s):",
        traced.len()
    ));
    for (metric, seconds) in &parts {
        report.notes.push(format!(
            "  {metric:<22} {seconds:>12.6} s  {:>6.2}%",
            seconds / run_s * 100.0
        ));
    }
    report.notes.push(format!(
        "  {:<22} {covered:>12.6} s  (residual labelled bench.residual_s)",
        "sum"
    ));
    report.notes.push(format!(
        "inside system.sim_s = {sim_s:.6} s: hermes phases {phase_total:.6} s, r8 (estimated) {r8_est_s:.6} s, system.residual_s {:.6} s",
        sim_s - phase_total - r8_est_s
    ));
    report.notes.push(format!(
        "tracing overhead: traced {run_s:.6} s - untraced {untraced_s:.6} s = {:.6} s",
        run_s - untraced_s
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const END_TO_END: [&str; 9] = [
        "setup_s",
        "run_s",
        "sim_cycles_per_s",
        "sim_instr_per_s",
        "sim_cycles",
        "op_host_us_p50",
        "op_host_us_p95",
        "peak_rss_kib",
        "ops_ok_ratio",
    ];

    const QUICK: Options = Options {
        seconds: 0.0,
        trace: false,
        precheck: None,
        min_iterations: 1,
    };

    fn quick(kind: Kind, params: Params) -> Report {
        run(&Inputs::generate(kind, params, 11), &QUICK)
    }

    fn assert_all_metrics(report: &Report) {
        for name in END_TO_END {
            assert!(report.metric(name).is_some(), "{name} missing");
        }
        let json = report.to_json();
        assert!(crate::json::validate(&json).is_ok(), "{json}");
    }

    #[test]
    fn a_clean_run_reports_every_metric() {
        for kind in Kind::ALL {
            let report = quick(kind, Params::PRECHECK);
            assert!(report.correct, "{}: {:?}", kind.name(), report.notes);
            assert_eq!(report.failed, 0);
            assert_all_metrics(&report);
            assert_eq!(report.metric("ops_ok_ratio"), Some(1.0));
        }
    }

    #[test]
    fn kernels_agree_on_every_workload() {
        for kind in Kind::ALL {
            let problems = precheck(kind, Params::PRECHECK, 4);
            assert!(problems.is_empty(), "{}: {problems:?}", kind.name());
        }
    }

    #[test]
    fn a_reference_mismatch_is_counted_and_reported() {
        let mut inputs = Inputs::generate(Kind::SeaCompute, Params::PRECHECK, 11);
        inputs.expected[3] ^= 1;
        let report = run(&inputs, &QUICK);
        assert!(!report.correct);
        assert_eq!(report.failed, 1);
        let ok = report.metric("ops_ok_ratio").unwrap();
        assert_eq!(ok, 1.0 - 1.0 / report.attempted as f64);
        assert_all_metrics(&report);
    }

    #[test]
    fn a_budget_error_fails_every_unverified_op_and_still_reports() {
        let params = Params {
            budget: 2_000,
            ..Params::PRECHECK
        };
        let report = quick(Kind::Edge, params);
        assert!(!report.correct);
        assert_eq!(report.failed, report.attempted);
        assert_eq!(report.metric("ops_ok_ratio"), Some(0.0));
        assert_all_metrics(&report);
        assert!(
            report.notes.iter().any(|n| n.contains("budget")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn a_delivery_failure_is_counted_and_reported() {
        let params = Params {
            memories: 6,
            iterations: 100,
            ..Params::TIMED
        };
        let report = quick(Kind::SeaShared, params);
        assert!(!report.correct);
        assert_eq!(report.failed, report.attempted);
        assert_all_metrics(&report);
        assert!(
            report.notes.iter().any(|n| n.contains("undelivered")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn traced_parts_add_up_to_the_traced_run() {
        for kind in Kind::ALL {
            let opts = Options {
                trace: true,
                min_iterations: 2,
                ..QUICK
            };
            let report = run(&Inputs::generate(kind, Params::PRECHECK, 11), &opts);
            assert!(report.correct, "{}: {:?}", kind.name(), report.notes);
            let parts: f64 = SIM_SPANS
                .iter()
                .chain(OTHER_SPANS.iter())
                .map(|(_, metric)| report.metric(metric).expect("part reported"))
                .sum();
            let run_s = report.metric("trace.run_s").unwrap();
            assert!(
                (parts - run_s).abs() <= 1e-9 * run_s.max(1.0),
                "{parts} vs {run_s}"
            );
            assert!(report.metric("trace.overhead_s").is_some());
            assert!(report.spans_json.is_some());
        }
    }
}
