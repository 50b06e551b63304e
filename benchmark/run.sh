#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs one workload.  Run from the repository root.  Traced runs
# (`--trace 1`) are built with the lock-order audit on, so the sync.* layer
# metrics and the violation audit are real; untraced runs measure the plain
# release build.
set -euo pipefail
features=""
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
    features="--features audit"
  fi
  prev="$arg"
done
# shellcheck disable=SC2086
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml $features -- "$@"
