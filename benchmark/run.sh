#!/usr/bin/env bash
# Builds the end-to-end serving benchmark in Release and runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds 15]
#                    [--trace 0|1] [--smoke] [--allow-debug]
#
# Build output goes to stderr; stdout carries the provenance header, one
# `workload metric value unit` line per metric and, last, the JSON result.
# Exits non-zero on a build failure or any correctness failure.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: $root/src is missing; the benchmark builds the library from" \
       "source and must run from a full checkout" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target isrl_e2e -j "$jobs"
} 1>&2

# Provenance: the commit when this is a git checkout of its own, plus a
# checksum of the library sources either way.
sha="none"
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [ "$top" = "$root" ]; then
  sha="$(git -C "$root" rev-parse --short=12 HEAD)"
fi
src_sum="$(find "$root/src" -type f \( -name '*.cc' -o -name '*.h' \) -print0 |
           sort -z | xargs -0 cat | cksum | cut -d' ' -f1)"

exec "$build/isrl_e2e" --tmp-root "$build" --git-sha "$sha,src-cksum=$src_sum" "$@"
