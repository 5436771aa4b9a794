#!/usr/bin/env bash
# Builds the benchmark and rlibm-serve from this checkout, then runs one
# benchmark workload. Run it from the repository root; arguments pass
# through to perfbench, e.g.
#
#   bash perfbench/run.sh --workload libm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise, relative to the root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/results"

# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout too.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export TMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/bin/" ./cmd/perfbench rlibm/cmd/rlibm-serve) >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/rlibm-serve" -out "$out/results" "$@"
