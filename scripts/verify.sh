#!/usr/bin/env bash
# Offline verification gate for the IGO workspace.
#
# Runs the same checks CI would: formatting, lints (warnings are errors),
# a release build, and the full test suite (unit + integration + doc).
# Everything is hermetic — path-only dependencies, no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo bench --no-run (bench-rot gate) =="
# The Criterion-style harnesses are excluded from `cargo test`; compiling
# them here keeps them from rotting without paying their runtime in CI.
cargo bench -p igo-bench --no-run

echo "== cargo test =="
cargo test -q

echo "== benchmark package tests =="
# simbench is a package of its own (outside the workspace), so the
# workspace test run above never builds it; this catches public-API
# changes that break the benchmark.
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "== fixed-seed differential fuzz-audit =="
# Tee the JSON summary to a file so CI can print it and upload it as an
# artifact on failure; `pipefail` preserves the audit's exit code.
./target/release/igo-sim audit --seeds 200 | tee audit-summary.json

echo "verify: all checks passed"
