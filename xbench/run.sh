#!/usr/bin/env bash
# Builds the xbench harness from source and runs one measured process:
#
#   bash xbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it writes stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build). A freshly
# built binary gets one untimed warm-up process first, because the first
# process after a build measures slower than later ones.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/xbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

bin=$build/xbench-bin
(cd "$root/xbench" && go build -o "$bin.new" .)
if cmp -s "$bin.new" "$bin"; then
	rm "$bin.new"
else
	mv "$bin.new" "$bin"
	"$bin" --quick --workload campaign-gpr --seconds 0 --out "$build/xbench" >/dev/null
fi
exec "$bin" --out "$build/xbench" "$@"
