#!/usr/bin/env bash
# Regenerates every evaluation artifact of the paper (DESIGN.md
# experiment index, E1-E25) with the one `exp` driver; the BENCH_*.json
# and observability artifacts land in the repo root.
# Usage: scripts/run_experiments.sh
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run --release -q -p multinoc-bench --bin exp -- all
