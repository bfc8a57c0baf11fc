#!/usr/bin/env bash
# Builds the `ldiv` server binary and the `perfbench` binary from source,
# then runs `perfbench` from the repository root:
#
#   bash perfbench/run.sh --workload anonymize_cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo's
# progress goes to stderr so the last line of stdout is the result.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml -p ldiv-cli 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$target/release/perfbench" --ldiv "$target/release/ldiv" "$@"
