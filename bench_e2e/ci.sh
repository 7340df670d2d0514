#!/usr/bin/env bash
# Build the benchmark, run its unit tests, and prove the gate can fire on
# a reduced op count. Not wired into .github/workflows/ci.yml yet; a later
# PR adds `- run: bench_e2e/ci.sh` there.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=bench_e2e/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
# 5 s runs: 7 ops a run instead of 28; ten runs in all, about 90 s.
cargo run --release --offline --quiet --manifest-path "$manifest" -- --selfcheck --seconds 5
