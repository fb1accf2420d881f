//! Command line of the full-system benchmark.
//!
//! ```text
//! cargo run --release --manifest-path sysbench/Cargo.toml -- \
//!     --workload edge --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable report, then the result as one JSON object
//! on the last line. Exits 0 when every output checked out, 1 when a
//! check failed (the result is still printed), 2 on a usage error.
//! A traced run (`--trace 1`) also writes its spans and self-time table
//! to `sysbench-trace/<workload>-seed<seed>.json` under
//! `$CARGO_TARGET_DIR` (default `sysbench/target`).

use std::path::PathBuf;
use std::process::ExitCode;

use multinoc_sysbench::bench::{run, Options};
use multinoc_sysbench::workload::{Inputs, Kind, Params};

fn parse() -> Result<(Inputs, Options), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let kind = workload.ok_or(format!("--workload is required: one of {names:?}"))?;
    Ok((
        Inputs::generate(kind, Params::TIMED, seed),
        Options::new(seconds, trace),
    ))
}

fn main() -> ExitCode {
    let (inputs, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sysbench: {e}");
            eprintln!("usage: sysbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let report = run(&inputs, &opts);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    if let Some(json) = &report.spans_json {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("sysbench/target"), PathBuf::from)
            .join("sysbench-trace");
        let path = dir.join(format!("{}-seed{}.json", inputs.kind.name(), inputs.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
