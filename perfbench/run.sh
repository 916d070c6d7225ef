#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ycsb-a --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

rel="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$rel/gocache" "$rel/tmp"
out="$(cd "$rel" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2

# The revision is recorded in every result when the checkout is a git
# work tree; the ceiling keeps git from finding an enclosing repository.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# served-mix's unix socket goes under the relative path: a socket path
# is limited to 108 bytes, and the checkout's absolute path may be long.
exec "$out/perfbench" -rev "$rev" -tmp "$rel/tmp" "$@"
