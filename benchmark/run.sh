#!/usr/bin/env bash
# Builds the host-time benchmark from the sources of the checkout it sits
# in, then runs it with the given arguments (see benchmark/README.md):
#
#   bash benchmark/run.sh -workload mix1-paper -seed 42 -seconds 20 -trace 0
#
# Every file the build writes (compiler cache, temporary files, the
# binary) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$build/bin"
bin=$build/bin/compresso-bench
# Version stamping needs a readable repository; drop it rather than fail
# when the checkout is not one git can read.
go -C benchmark build -o "$bin" . 2>/dev/null || go -C benchmark build -buildvcs=false -o "$bin" .
exec "$bin" "$@"
