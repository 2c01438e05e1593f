#!/usr/bin/env bash
# Builds the UGC benchmark and the `repro` daemon from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <cpu-suite|serve-mix|sim-zoo> \
#       --seed N --seconds S --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the JSON result. Spans of a traced run are
# written to $CARGO_TARGET_DIR/perfbench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$root/.bench_build}")"
export CARGO_TARGET_DIR="$target"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench: $root is not a UGC checkout (no Cargo.toml and crates/)" >&2
    exit 1
fi

cargo build --release --offline --quiet -p ugc-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/ugc-perfbench" "$@" \
    --repro "$target/release/repro" --trace-dir "$target/perfbench"
