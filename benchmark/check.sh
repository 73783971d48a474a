#!/usr/bin/env bash
# The benchmark's own gate, ready for CI: builds benchmark/ locked and
# offline, runs every workload once in smoke mode (untraced and traced,
# correctness checked), and lints BENCHMARK.json against the metric tables.
# Run from the root of a checkout.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
bash "$here/run.sh" all --smoke
bash "$here/run.sh" lint BENCHMARK.json
# BENCHMARK.json is generated from src/metrics.rs; the two must not drift.
diff <(bash "$here/run.sh" manifest) BENCHMARK.json
echo "benchmark check: ok"
