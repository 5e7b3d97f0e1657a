#!/usr/bin/env bash
# Builds the perfbench program and cmd/dpmserve from the godpm source tree
# that contains this directory, then runs perfbench with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Every build product and Go cache lands under .bench_build/ at the root
# of the tree, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dpmserve" ]]; then
	echo "perfbench: $root is not a godpm source tree (no go.mod or cmd/dpmserve)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/dpmserve" godpm/cmd/dpmserve
cd "$root"
exec "$out/perfbench" -root "$root" -dpmserve "$out/dpmserve" "$@"
