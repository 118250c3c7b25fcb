#!/usr/bin/env sh
# Configures a build tree and builds the given targets under an exclusive
# lock on the tree, so smoke gates running side by side (ctest -j) never
# rebuild the same targets at once — e.g. after a commit changed the
# configure-time git sha every one of them would otherwise relink hero_obs
# and the tools concurrently. Under ctest the `smoke_build` fixture runs this
# once for every smoke target before the gates start; each gate's own call
# is then a serialized no-op.
#
#   tools/smoke_build.sh build_dir target...
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=$1
shift

mkdir -p "$build_dir"
exec 9> "$build_dir/.smoke_build.lock"
if command -v flock > /dev/null 2>&1; then
    flock 9
fi
cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" --target "$@" -j"$(nproc 2>/dev/null || echo 1)" > /dev/null
