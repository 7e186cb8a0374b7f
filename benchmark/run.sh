#!/usr/bin/env bash
# The repo benchmark, one command: builds `netscatterd` and the benchmark
# crate, then runs the load generator against the real daemon binary.
#
#   benchmark/run.sh [--seed N] [--trace] [--quick]        every workload
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one workload; last line is the JSON
#
# Both builds land in $CARGO_TARGET_DIR when it is set (relative to the
# repo root), else in benchmark/target, so the root `target/` is untouched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout is the benchmark's own.
cargo build --release --offline --quiet -p netscatter_daemon --bin netscatterd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/netscatter-benchmark" \
    --daemon-bin "$target/release/netscatterd" \
    --out-dir "$here/out" \
    --spec "$root/BENCHMARK.json" \
    "$@"
