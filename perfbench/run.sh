#!/usr/bin/env bash
# Builds the VSS benchmark from the source tree it sits in, then runs it:
#
#   bash perfbench/run.sh --workload cache-reads --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, and each run's scratch stores, which the benchmark removes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/vss" ]; then
	echo "perfbench: no VSS source tree at $root to build the benchmark against" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/work" "$@"
