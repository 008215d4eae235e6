#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash smrperf/run.sh --workload fig3-matrix --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache, Go's own config files)
# stays under .bench_build/ at the repository root; CARGO_TARGET_DIR,
# when set, names that directory instead. The last line of standard
# output is the JSON result; the exit code is non-zero when the build
# fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac

if [ ! -f "$root/go.mod" ]; then
	echo "smrperf: no go.mod at $root; the benchmark builds the program from its source tree" >&2
	exit 2
fi

mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/smrperf" .) >&2
cd "$root"
exec "$build/smrperf" "$@"
