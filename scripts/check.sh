#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints and the whole test suite.
# Everything runs offline — the workspace has no network dependencies.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "=== cargo doc (deny warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "=== cargo test ==="
# Includes the differential kernel suites: hermes/tests/kernel_equivalence.rs
# (reference full scan vs active set vs parallel shards at 1/2/8 threads,
# cycle-identical, plus the batch-window sweep — every window size in
# {1,2,5,16} × every thread count bit-identical on healthy, faulted,
# degraded and router-killed schedules, with checkpoint/restore at
# arbitrary run split points), multinoc/tests/kernel_invariance.rs
# (thread-count and batch-window invariance at system level) and
# multinoc/tests/fast_forward_equivalence.rs (idle fast-forward vs
# single-stepping).
cargo test -q --offline --workspace

echo "=== experiments, smoke scale (every registry entry, fixed seeds) ==="
# Runs E1-E25 at smoke size; artifacts go to target/exp-smoke/, never
# over the committed full-scale files. Every experiment runs even if an
# earlier one fails, and the driver exits non-zero listing each failure.
# The experiments carry their own checks: kernel-differential
# fingerprints and same-seed double runs, byte-identical exports across
# kernels and batch windows, schema validation, exactly-once failover,
# fresh-process crash recovery, and (on hosts with at least 2 CPUs) the
# E20 gate that the saturated 32x32 run at threads=2 is not slower than
# at threads=1.
cargo run --release -q --offline -p multinoc-bench --bin exp -- --smoke all > /dev/null

echo "=== benchmark baseline comparison (warn-only) ==="
# Diffs the smoke-run BENCH_*.json files against the baselines committed
# at HEAD; informational only — wall-clock rates vary by host.
scripts/bench_compare.sh target/exp-smoke/BENCH_*.json

echo "all checks passed"
