#!/usr/bin/env bash
# The benchmark's run command (BENCHMARK.json): build `omc` and the ledger
# from the checkout's own sources, then hand the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1) to the ledger.
# Run from the root of a full checkout; anywhere else it exits non-zero
# without printing a result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f src/bin/omc.rs ] || [ ! -f crates/bench/Cargo.toml ]; then
    echo "ledger: run from the root of a checkout that holds the omc sources" >&2
    exit 2
fi

# Cargo reports on stderr; stdout stays clean for the result line.
cargo build --release --offline --bin omc
cargo build --release --offline -p om-bench --bin ledger

target="${CARGO_TARGET_DIR:-target}"
exec "$target/release/ledger" --omc "$target/release/omc" "$@"
