#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives from this checkout, then
# runs it. Run from the repository root:
#
#   bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#   bash bench/run.sh compare --base DIR --head DIR
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries and the
# span files of traced runs. The first run fills the build cache (about
# 20 s of compiling on two cores); later runs only check it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/montsysd ] || [ ! -d cmd/montsyslb ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/montsysd, cmd/montsyslb)" >&2
	exit 2
fi
command -v go >/dev/null || { echo "bench/run.sh: no go toolchain on PATH" >&2; exit 2; }

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/tmp" "$out/bin"

go build -o "$out/bin/" ./cmd/montsysd ./cmd/montsyslb
(cd bench && go build -o "$out/bin/bench" .)

if [ "${1:-}" = compare ]; then
	exec "$out/bin/bench" "$@"
fi
exec "$out/bin/bench" -bin "$out/bin" -spans "$out/spans" "$@"
