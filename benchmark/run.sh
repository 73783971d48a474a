#!/usr/bin/env bash
# Builds the harness from source (release, locked, offline) and runs it with
# the arguments given. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh all --smoke
#
# The build goes to $CARGO_TARGET_DIR if set, else to benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --locked --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/vs-benchmark" "$@"
