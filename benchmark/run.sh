#!/usr/bin/env bash
# Build the benchmark (offline, into $CARGO_TARGET_DIR or .bench_build at the
# repository root) and run it with the arguments given.  See README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/eris-benchmark" "$@"
