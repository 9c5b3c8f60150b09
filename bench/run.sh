#!/usr/bin/env bash
# Builds glsmark from source into .bench_build/ under the current directory
# (the root of a checkout) and runs it there with the given arguments.
# Everything the build writes — Go's build cache included — stays inside
# the checkout. In a directory without the repository around bench/ the
# build fails and so does this script.
set -euo pipefail
here="$(pwd)"
build="$here/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here/bench" -o "$build/glsmark" .
exec "$build/glsmark" "$@"
