#!/usr/bin/env bash
# Byte-for-byte output parity against a base revision.
#
# Usage: scripts/stdout_parity.sh <base-rev>
#
# Exports <base-rev> into a temporary directory outside the repository
# (`git archive`, so no worktree metadata is left behind), builds it and
# the working tree in release, then runs on both:
#
#   * the 13 claim-asserting bins of CI's claim step and every example
#     in the working tree's `examples/` (the base runs the same list),
#     comparing each one's stdout and every SNAPSHOT_*.json it writes;
#   * CI's pooled-fabric `vpnm-serve` run, comparing its JSON with the
#     measurement-domain fields (`wall_nanos`, `mpps`, `producer_parks`)
#     zeroed.
#
# Prints one line per difference and exits 1 if there is any (or if a
# run fails on either side); exits 0 when every output is identical.
# The serving goldens are pinned by `cargo test` instead.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi

repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bins="mts_validation adversary_resistance ablations qos_sweep vpnm-inspect fig1_timing
      dram_efficiency fig4_dsb_mts fig6_baq_mts fig7_pareto table2_optimal table3_buffering
      reassembly_throughput"
examples=$(for f in "$repo"/examples/*.rs; do basename "$f" .rs; done)
serve_args="--cycles 200000 --flows 65536 --producers 3 --channels 4 --select universal-hash
            --workers 2"

mkdir "$tmp/base"
git -C "$repo" archive "$base_sha" | tar -x -C "$tmp/base"

# build <tree> <target-dir>
build() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release -q -p vpnm-bench --bins \
        && CARGO_TARGET_DIR="$2" cargo build --release -q -p vpnm-apps --bin vpnm-serve \
        && CARGO_TARGET_DIR="$2" cargo build --release -q --examples)
}

# run <release-dir> <out-dir>: each program runs in its own directory,
# where it drops its SNAPSHOT_*.json.
run() {
    local rel=$1 out=$2 name
    for name in $bins; do
        mkdir -p "$out/bin-$name"
        (cd "$out/bin-$name" && "$rel/$name" > stdout) || echo "FAILED: bin $name ($out)" >&2
    done
    for name in $examples; do
        mkdir -p "$out/example-$name"
        (cd "$out/example-$name" && "$rel/examples/$name" > stdout) \
            || echo "FAILED: example $name ($out)" >&2
    done
    mkdir -p "$out/vpnm-serve"
    # shellcheck disable=SC2086
    "$rel/vpnm-serve" $serve_args 2> /dev/null \
        | sed -E 's/"(wall_nanos|mpps|producer_parks)": [0-9.]+/"\1": 0/' \
            > "$out/vpnm-serve/stdout" \
        || echo "FAILED: vpnm-serve ($out)" >&2
}

head_target=${CARGO_TARGET_DIR:-$repo/target}
echo "building base $base_sha" >&2
build "$tmp/base" "$tmp/target"
echo "building working tree" >&2
build "$repo" "$head_target"

run "$tmp/target/release" "$tmp/out-base" 2> "$tmp/failures"
run "$head_target/release" "$tmp/out-head" 2>> "$tmp/failures"

status=0
if [ -s "$tmp/failures" ]; then
    cat "$tmp/failures"
    status=1
fi
if diff -r -q "$tmp/out-base" "$tmp/out-head" > "$tmp/diff"; then
    count=$(find "$tmp/out-head" -type f | wc -l)
    echo "identical: $count outputs (stdout and SNAPSHOT_*.json) against $base_sha"
else
    sed -E -e "s#^Files $tmp/out-base/(.*) and .* differ\$#differs: \1#" \
        -e "s#^Only in $tmp/out-(base|head)/?(.*): #only in \1: \2/#" "$tmp/diff"
    status=1
fi
exit $status
