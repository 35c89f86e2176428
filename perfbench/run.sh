#!/usr/bin/env bash
# Builds the benchmark and the udtserve/udtree binaries it drives from this
# checkout, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload train|score|serve --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (binaries, the Go build cache, work files, traces). --trace 1 builds the
# traced variant (-tags perftrace), whose layer probes import the module's
# internal packages; the untraced build uses only its public surfaces.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/udtserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/udtserve, perfbench/)" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[$i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
		trace=${args[$((i + 1))]}
	fi
done

go build -o "$out/bin/udtserve" ./cmd/udtserve
go build -o "$out/bin/udtree" ./cmd/udtree
if [[ "$trace" == 1 ]]; then
	(cd perfbench && go build -tags perftrace -o "$out/bin/perfbench-trace" .)
	exec "$out/bin/perfbench-trace" --bin "$out/bin" --out "$out" "$@"
fi
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out" "$@"
