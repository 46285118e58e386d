#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The Go toolchain writes to GOCACHE and GOPATH on every
# build, so both point under .bench_build at the checkout's root, where the
# binary goes too; GOTOOLCHAIN and GOPROXY make a missing toolchain or module
# an error and not a download.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/quamax-bench" .)
cd "$root"
exec "$build/quamax-bench" "$@"
