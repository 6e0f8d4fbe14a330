#!/usr/bin/env bash
# Builds the release `bagcq` binary and the benchmark, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-hot|serve-cold|sweep --seed N --seconds S --trace 0|1
#
# Works from any directory: it changes to the checkout that holds it.
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "perfbench: run from a bagcq checkout (no Cargo.toml or crates/ in $root)" >&2
  exit 2
fi
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin bagcq >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bagcq "$target/release/bagcq" "$@"
