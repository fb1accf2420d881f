//! `exp` — runs the MultiNoC experiments of the registry in
//! `multinoc_bench::EXPERIMENTS`.
//!
//! Usage: `exp [--smoke] (all | <id>...)`, e.g.
//! `cargo run --release -p multinoc-bench --bin exp -- all`. Every
//! selected experiment runs even if an earlier one fails; the exit
//! status is non-zero if any failed, and each failure is listed.

fn main() -> std::process::ExitCode {
    multinoc_bench::main(std::env::args().skip(1))
}
