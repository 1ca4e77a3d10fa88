#!/usr/bin/env bash
# Build and run the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <first.out> <second.out>
#
# Builds go to $CARGO_TARGET_DIR (default perfbench/target) and print only
# on stderr. The traced run uses a second binary built with the engine's
# counting allocator, so untraced timings never pay for it; it runs the
# untraced binary once itself to measure its own overhead. Both are built
# on the first call. `compare` takes the concatenated standard output of
# untraced runs of one workload, one file per set.
set -euo pipefail

manifest="perfbench/Cargo.toml"
if [[ ! -f "$manifest" ]]; then
    echo "run.sh: run from the root of a checkout ($manifest not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-perfbench/target}"

cargo build --release --offline --quiet --manifest-path "$manifest" --bin perfbench >&2
cargo build --release --offline --quiet --manifest-path "$manifest" \
    --features alloc --bin perfbench-alloc >&2

# The engine spills shuffle runs under the system temp directory; keep
# them inside the checkout with the rest of the run's files.
export TMPDIR="$PWD/.perfbench-work/tmp"
mkdir -p "$TMPDIR"

bin="$target/release/perfbench"
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin="$target/release/perfbench-alloc"
    fi
    prev="$arg"
done
exec "$bin" "$@"
