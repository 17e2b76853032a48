#!/usr/bin/env bash
# Builds the survey-to-serve benchmark and cmd/atlasd from the sources of
# the checkout it is run in, then runs one workload:
#
#   bash benchmark/run.sh --workload ip-survey --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binaries, the
# per-run scratch files (deleted when the run ends) and the span files of
# traced runs. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/atlasd" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root; the program sources are missing here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
unset GOFLAGS

(cd "$root" && go build -o "$build/bin/atlasd" ./cmd/atlasd)
(cd "$root/benchmark" && go build -o "$build/bin/surveybench" .)

exec "$build/bin/surveybench" -atlasd "$build/bin/atlasd" -workdir "$build" "$@"
