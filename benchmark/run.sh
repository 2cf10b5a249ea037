#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload read-direct --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh -runs 3 -o A.json
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build writes, Go's build cache included, goes to
# .bench_build at the root of the checkout, so a run touches nothing
# outside the checkout but the tmpfs file of its journal.
#
# The benchmark runs pinned to one core, beside a busy loop of idle
# priority on the same core. The loop yields to the benchmark at once
# and takes no time from it; what it does is keep the virtual core from
# halting, because waking a halted core costs anything from 1 to 50 us
# on a shared host and that cost, not the program's, then sets every
# round trip. Without taskset and chrt the benchmark runs unpinned.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/ftnet-benchmark" .

pin=()
if allowed="$(taskset -cp $$ 2>/dev/null)"; then
	core="${allowed##*[ ,-]}" # the last core this process may run on
	if taskset -c "$core" chrt -i 0 true 2>/dev/null; then
		pin=(taskset -c "$core")
		"${pin[@]}" chrt -i 0 bash -c 'while :; do :; done' &
		idle=$!
		trap 'kill "$idle" 2>/dev/null; wait "$idle" 2>/dev/null || true' EXIT
	fi
fi
status=0
"${pin[@]}" "$build/ftnet-benchmark" -out "$here/out" "$@" || status=$?
exit "$status"
