#!/usr/bin/env bash
# Builds yieldserver and the benchmark from the checkout's sources, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-pf --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: the Go build cache, the
# binaries, and the run's logs, stores and span files.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/perfbench" "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

# The benchmark is a module of its own that requires the repository's
# module through a directory replacement, so the server is built from the
# same sources the in-process checker links.
( cd "${root}/perfbench" &&
	go build -o "${build}/perfbench/yieldserver" github.com/cnfet/yieldlab/cmd/yieldserver &&
	go build -o "${build}/perfbench/perfbench" . ) >&2

exec "${build}/perfbench/perfbench" -server "${build}/perfbench/yieldserver" -out "${build}/perfbench" "$@"
