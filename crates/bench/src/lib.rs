//! The MultiNoC experiment harness.
//!
//! Every evaluation artifact of the paper is one [`Experiment`] in the
//! [`EXPERIMENTS`] registry (see the experiment index in `DESIGN.md`);
//! the `exp` binary selects and runs them through [`main`]. The driver
//! owns every step the experiments share: selection, the smoke/full
//! switch ([`Scale`]), the same-seed double run
//! ([`Report::same_seed_twice`]), the kernel-differential check
//! ([`agree`]), BENCH JSON ([`Obj`]) and artifact writing. The Criterion
//! benches in `benches/` measure the simulator itself, and [`json`] is
//! a small parser used to validate exported artifacts without external
//! dependencies.

use std::fmt::Debug;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use hermes_noc::{KernelMode, Noc, Packet, RouterAddr};

pub mod json;

mod area;
mod faults;
mod noc;
mod observability;
mod perf;
mod recovery;
mod system;
mod topology;

/// The error an experiment reports instead of panicking.
pub type BoxError = Box<dyn std::error::Error>;

/// How much work an experiment does: `Smoke` is the fast CI variant,
/// `Full` the measurement behind the committed artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast CI variant (`exp --smoke`).
    Smoke,
    /// Full measurement.
    Full,
}

impl Scale {
    /// `smoke` at smoke scale, `full` otherwise.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Short id, `e1`..`e25`, matching the `DESIGN.md` index.
    pub id: &'static str,
    /// Human-readable name, shown in the progress lines.
    pub name: &'static str,
    /// Writes the report; an `Err` or a panic marks the run failed.
    pub run: fn(Scale, &mut Report) -> Result<(), BoxError>,
}

/// What an experiment produced: the printed text plus the artifacts the
/// driver writes, as `(file name, contents)`.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the experiment printed.
    pub text: String,
    /// Files to write next to the report.
    artifacts: Vec<(String, String)>,
    same_seed_checked: bool,
}

impl Report {
    /// Appends a row of fixed-width columns (16 characters each, first
    /// column 24) so experiment output lines up like the paper's tables.
    pub fn row(&mut self, cells: &[String]) {
        for (i, cell) in cells.iter().enumerate() {
            let width = if i == 0 { 24 } else { 16 };
            self.text.push_str(&format!("{cell:>width$}"));
        }
        self.text.push('\n');
    }

    /// Queues `contents` to be written to `name` once the run succeeds.
    pub fn artifact(&mut self, name: &str, contents: String) {
        self.artifacts.push((name.to_string(), contents));
    }

    /// Runs a seeded sweep twice and asserts both runs are identical,
    /// returning the first. The driver notes the check under the report.
    pub fn same_seed_twice<T: PartialEq + Debug>(&mut self, mut sweep: impl FnMut() -> T) -> T {
        let first = sweep();
        assert_eq!(
            first,
            sweep(),
            "same seed must reproduce the identical sweep"
        );
        self.same_seed_checked = true;
        first
    }
}

/// `write!`/`writeln!` append to the report text.
impl std::fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// Appends a [`Report::row`] built from displayable items.
#[macro_export]
macro_rules! table_row {
    ($r:expr, $($cell:expr),+ $(,)?) => {
        $r.row(&[$(format!("{}", $cell)),+])
    };
}

/// The NoC kernels every differential check runs under.
pub fn kernels(scale: Scale) -> &'static [KernelMode] {
    scale.pick(
        &[
            KernelMode::Reference,
            KernelMode::Active,
            KernelMode::Parallel { threads: 2 },
            KernelMode::Parallel { threads: 8 },
        ],
        &[
            KernelMode::Reference,
            KernelMode::Active,
            KernelMode::Parallel { threads: 1 },
            KernelMode::Parallel { threads: 2 },
            KernelMode::Parallel { threads: 8 },
        ],
    )
}

/// Runs `run` under every kernel in `kernels`, asserts every result
/// equals the first, and returns that baseline.
pub fn agree<T: PartialEq + Debug>(
    kernels: &[KernelMode],
    mut run: impl FnMut(KernelMode) -> T,
) -> T {
    let (&first, rest) = kernels.split_first().expect("at least one kernel");
    let baseline = run(first);
    for &kernel in rest {
        assert_eq!(
            baseline,
            run(kernel),
            "kernel {kernel:?} diverged from {first:?}"
        );
    }
    baseline
}

/// One value of a BENCH JSON document: a scalar or object already
/// rendered inline, or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Inline JSON text.
    Raw(String),
    /// An array; one element per line at the top level of a document.
    List(Vec<Value>),
}

/// A float value printed with `decimals` decimals.
pub fn fixed(value: f64, decimals: usize) -> Value {
    Value::Raw(format!("{value:.decimals$}"))
}

macro_rules! display_value {
    ($($t:ty),+) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Raw(v.to_string())
            }
        }
    )+};
}
display_value!(u16, u32, u64, u128, usize, bool);

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Raw(format!(
            "\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        ))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        v.as_str().into()
    }
}

impl From<Obj> for Value {
    fn from(v: Obj) -> Self {
        let fields: Vec<String> =
            v.0.iter()
                .map(|(k, v)| format!("\"{k}\": {}", v.inline()))
                .collect();
        Value::Raw(format!("{{{}}}", fields.join(", ")))
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Raw("null".into()), Into::into)
    }
}

impl Value {
    fn inline(&self) -> String {
        match self {
            Value::Raw(text) => text.clone(),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::inline).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }
}

/// A JSON object with keys in insertion order: the BENCH file writer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obj(Vec<(&'static str, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// Renders the layout every `BENCH_*.json` shares: one top-level key
    /// per line, one array element per line, anything deeper inline.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| match value {
                Value::List(items) if !items.is_empty() => {
                    let items: Vec<String> = items
                        .iter()
                        .map(|v| format!("    {}", v.inline()))
                        .collect();
                    format!("  \"{key}\": [\n{}\n  ]", items.join(",\n"))
                }
                _ => format!("  \"{key}\": {}", value.inline()),
            })
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

/// Keeps `flows` source queues non-empty so the links they use stay
/// saturated, then runs the network for `cycles`. Each flow is a
/// `(source, destination)` pair streaming `payload_flits`-flit packets.
///
/// # Errors
///
/// Propagates [`hermes_noc::NocError`] for out-of-mesh flows.
pub fn saturate(
    noc: &mut Noc,
    flows: &[(RouterAddr, RouterAddr)],
    payload_flits: usize,
    cycles: u64,
) -> Result<(), hermes_noc::NocError> {
    let wire = payload_flits + 2;
    for _ in 0..cycles {
        for &(src, dst) in flows {
            // Keep roughly two packets of backlog per flow.
            while noc.backlog_flits(src) < 2 * wire {
                noc.send(src, Packet::new(dst, vec![0x5A; payload_flits]))?;
            }
        }
        noc.step();
    }
    Ok(())
}

const fn exp(
    id: &'static str,
    name: &'static str,
    run: fn(Scale, &mut Report) -> Result<(), BoxError>,
) -> Experiment {
    Experiment { id, name, run }
}

/// Every experiment, in index order.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("e1", "latency", noc::latency),
    exp("e2", "throughput", noc::throughput),
    exp("e3", "area", area::area),
    exp("e4", "scaling", area::scaling),
    exp("e5", "flow", system::flow),
    exp("e6", "edge_detection", system::edge_detection),
    exp("e7", "cpi", system::cpi),
    exp("e8", "buffer_sweep", noc::buffer_sweep),
    exp("e9", "arbitration", noc::arbitration),
    exp("e10", "serial", system::serial),
    exp("e11", "load_sweep", noc::load_sweep),
    exp("e12", "compiler", system::compiler),
    exp("e13", "services", system::services),
    exp("e14", "sea_of_processors", system::sea_of_processors),
    exp("e15", "reconfig", system::reconfig),
    exp("e16", "utilization", system::utilization),
    exp("e17", "routing", noc::routing),
    exp("e18", "fault_sweep", faults::fault_sweep),
    exp("e19", "degradation", faults::degradation),
    exp("e20", "perf", perf::perf),
    exp("e21", "observability", observability::observability),
    exp("e22", "chaos", faults::chaos),
    exp("e23", "recovery", recovery::recovery),
    exp("e24", "topology", topology::topology),
    exp("e25", "telemetry", observability::telemetry),
];

/// Where artifacts go: the working directory at full scale, and a
/// scratch directory for smoke runs so they never overwrite the
/// committed full-scale files.
fn artifact_dir(scale: Scale) -> &'static Path {
    Path::new(scale.pick("target/exp-smoke", ""))
}

/// An experiment that did not finish, with the reason.
#[derive(Debug)]
struct Failure {
    id: &'static str,
    reason: String,
}

/// Runs every experiment in `selected`, prints each report to `out`,
/// writes the artifacts of each successful run under `dir`, and keeps
/// going past failures; returns them all.
fn run(selected: &[&Experiment], scale: Scale, dir: &Path, out: &mut dyn Write) -> Vec<Failure> {
    let mut failures = Vec::new();
    for e in selected {
        let start = Instant::now();
        let mut report = Report::default();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| (e.run)(scale, &mut report)));
        let mut failure = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(err)) => Some(err.to_string()),
            Err(payload) => Some(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panicked".into()),
            ),
        };
        let mut text = report.text;
        if failure.is_none() {
            if report.same_seed_checked {
                text.push_str(
                    "Determinism check: two same-seed sweeps produced identical reports.\n",
                );
            }
            for (name, contents) in &report.artifacts {
                let path = dir.join(name);
                match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
                    Ok(()) => text.push_str(&format!("wrote {}\n", path.display())),
                    Err(err) => {
                        failure = Some(format!("writing {}: {err}", path.display()));
                        break;
                    }
                }
            }
        }
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
        let verdict = if failure.is_some() { "FAILED" } else { "ok" };
        eprintln!(
            "== {} {}: {verdict} in {:.1} s",
            e.id,
            e.name,
            start.elapsed().as_secs_f64()
        );
        if let Some(reason) = failure {
            failures.push(Failure { id: e.id, reason });
        }
    }
    failures
}

const USAGE: &str = "usage: exp [--smoke] (all | <id>...)\n\
     e.g. `exp all`, `exp e20 e24`, `exp --smoke all`";

/// The `exp` command line: selects experiments, runs them at the chosen
/// scale, and exits non-zero listing every failure. E23 re-executes the
/// binary as its fresh post-crash process, which takes over here.
pub fn main(args: impl IntoIterator<Item = String>) -> std::process::ExitCode {
    if recovery::restore_child() {
        return std::process::ExitCode::SUCCESS;
    }
    let mut scale = Scale::Full;
    let mut selectors = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            _ => selectors.push(arg),
        }
    }
    if let Some(unknown) = selectors
        .iter()
        .find(|s| *s != "all" && !EXPERIMENTS.iter().any(|e| e.id == *s))
    {
        eprintln!("exp: unknown experiment {unknown:?}\n{USAGE}");
        return std::process::ExitCode::from(2);
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| selectors.iter().any(|s| s == "all" || s == e.id))
        .collect();
    if selected.is_empty() {
        eprintln!("{USAGE}");
        return std::process::ExitCode::from(2);
    }
    let failures = run(
        &selected,
        scale,
        artifact_dir(scale),
        &mut std::io::stdout(),
    );
    if failures.is_empty() {
        return std::process::ExitCode::SUCCESS;
    }
    eprintln!(
        "exp: {} of {} experiments failed:",
        failures.len(),
        selected.len()
    );
    for f in &failures {
        // A diverging `assert_eq!` can quote megabytes of export; the
        // panic hook has already printed it in full.
        let first_line = f.reason.lines().next().unwrap_or_default();
        eprintln!("  {}: {first_line}", f.id);
    }
    std::process::ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_noc::NocConfig;
    use std::fmt::Write as _;

    #[test]
    fn saturate_fills_a_link() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let flows = [(RouterAddr::new(0, 0), RouterAddr::new(1, 0))];
        // Long packets amortize the per-packet routing charge.
        saturate(&mut noc, &flows, 100, 8_000).unwrap();
        let util = noc
            .stats()
            .peak_link_utilization(noc.config().cycles_per_flit);
        // A single continuous stream approaches full link utilization.
        assert!(util > 0.85, "utilization {util}");
    }

    fn fake_ok(_: Scale, r: &mut Report) -> Result<(), BoxError> {
        writeln!(r, "fake report")?;
        r.artifact("fake.txt", "contents".into());
        Ok(())
    }

    fn fake_err(_: Scale, r: &mut Report) -> Result<(), BoxError> {
        writeln!(r, "partial")?;
        Err("gate failed".into())
    }

    fn fake_panic(_: Scale, _: &mut Report) -> Result<(), BoxError> {
        panic!("assertion tripped");
    }

    #[test]
    fn driver_runs_everything_then_reports_every_failure() {
        let registry = [
            Experiment {
                id: "f1",
                name: "err",
                run: fake_err,
            },
            Experiment {
                id: "f2",
                name: "ok",
                run: fake_ok,
            },
            Experiment {
                id: "f3",
                name: "panic",
                run: fake_panic,
            },
            Experiment {
                id: "f4",
                name: "ok again",
                run: fake_ok,
            },
        ];
        let selected: Vec<&Experiment> = registry.iter().collect();
        let dir = std::env::temp_dir().join(format!("exp-driver-test-{}", std::process::id()));
        let mut out = Vec::new();
        let failures = run(&selected, Scale::Smoke, &dir, &mut out);
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.matches("fake report").count(), 2, "{out}");
        assert!(out.contains("partial"), "a failed report is still printed");
        let ids: Vec<&str> = failures.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["f1", "f3"]);
        assert_eq!(failures[0].reason, "gate failed");
        assert_eq!(failures[1].reason, "assertion tripped");
        assert_eq!(
            std::fs::read_to_string(dir.join("fake.txt")).unwrap(),
            "contents"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_seed_note_follows_the_report() {
        fn twice(_: Scale, r: &mut Report) -> Result<(), BoxError> {
            let n = r.same_seed_twice(|| 7);
            writeln!(r, "value {n}")?;
            Ok(())
        }
        let e = Experiment {
            id: "t",
            name: "twice",
            run: twice,
        };
        let mut out = Vec::new();
        assert!(run(&[&e], Scale::Full, Path::new(""), &mut out).is_empty());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "value 7\nDeterminism check: two same-seed sweeps produced identical reports.\n"
        );
    }

    #[test]
    fn agree_returns_the_baseline_and_catches_divergence() {
        assert_eq!(agree(kernels(Scale::Full), |_| 3), 3);
        let diverged =
            panic::catch_unwind(|| agree(kernels(Scale::Smoke), |k| k == KernelMode::Active));
        assert!(diverged.is_err());
    }

    #[test]
    fn bench_json_layout() {
        let doc = Obj::new()
            .with("experiment", "E0 \"test\"")
            .with("seed", 7u64)
            .with("ratio", fixed(0.25, 2))
            .with("missing", None::<u64>)
            .with("points", vec![Obj::new().with("a", 1u32).with("ok", true)])
            .with("empty", Vec::<Obj>::new())
            .with("nested", Obj::new().with("x", fixed(1.0, 0)));
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"experiment\": \"E0 \\\"test\\\"\",\n  \"seed\": 7,\n  \"ratio\": 0.25,\n  \
             \"missing\": null,\n  \"points\": [\n    {\"a\": 1, \"ok\": true}\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\"x\": 1}\n}\n"
        );
        let parsed = json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(json::Json::as_str),
            Some("E0 \"test\"")
        );
    }

    /// Every registry id has a row in the `DESIGN.md` experiment index
    /// and every index row names a registry id.
    #[test]
    fn design_index_matches_the_registry() {
        let design = include_str!("../../../DESIGN.md");
        let mut rows: Vec<String> = design
            .lines()
            .filter_map(|l| l.strip_prefix("| E"))
            .filter_map(|rest| rest.split_once(' '))
            .filter(|(n, _)| n.parse::<u32>().is_ok())
            .map(|(n, rest)| {
                assert!(
                    rest.contains(&format!("`exp e{n}`")),
                    "row E{n} runs via `exp e{n}`"
                );
                format!("e{n}")
            })
            .collect();
        rows.sort();
        let mut ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
        ids.sort();
        assert_eq!(rows, ids);
    }
}
