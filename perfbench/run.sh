#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paced --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, module cache, Go's
# config and telemetry files) stays under .bench_build/ at the root,
# so the run reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=""
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)

# A checkout without its own .git is stamped with a hash of its sources
# instead (see commitID).
if [ -e "$root/.git" ] && commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export PERFBENCH_COMMIT="$commit"
fi
cd "$root"
exec "$build/perfbench" "$@"
