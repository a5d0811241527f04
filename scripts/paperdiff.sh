#!/bin/sh
# paperdiff.sh BASE EXPERIMENT... — check that the working tree prints the
# same paper tables and figures as commit BASE.
#
# Builds carolbench at BASE (in a temporary git worktree, as CI's bench job
# checks out the merge base) and in the working tree, runs each experiment
# at -scale quick on both, masks every timing, and diffs the two outputs.
# Exits 1 on any difference, after printing it.
#
#	scripts/paperdiff.sh main table3 fig5b fig7 fig8 fig9
#
# The mask turns every number with a time or speedup unit (ns, µs, us, ms,
# s, m, h, x) into T, and every cell of a "compress MB/s" or "decompress
# MB/s" column (the thr experiment's throughput) into T, and squeezes runs
# of blanks, which tabwriter pads to the width of the timings. A unit must
# end a word, so grid dims such as 64x64x64 stay whole. Ratios, α, dims and
# every other value stay, so a change that moves a training set, a model or
# a prediction shows up here.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 BASE EXPERIMENT..." >&2
    exit 2
fi
base=$1
shift

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git -C "$root" worktree add --detach -q "$tmp/base" "$base"
(cd "$tmp/base" && go build -o "$tmp/carolbench.base" ./cmd/carolbench)
(cd "$root" && go build -o "$tmp/carolbench.head" ./cmd/carolbench)

mask() {
    sed -E 's/[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m|h|x)\b/T/g' "$1" |
        sed -E 's/[[:space:]]+/ /g' |
        awk '
            # thr table: codec workers compressMB/s decompressMB/s ratio PSNR,
            # from its header line to the next line of another shape.
            /compress MB\/s decompress MB\/s/ { mbs = 1; print; next }
            mbs && NF == 6 { $3 = "T"; $4 = "T"; print; next }
            { mbs = 0; print }'
}

status=0
for exp in "$@"; do
    for side in base head; do
        "$tmp/carolbench.$side" -experiment "$exp" -scale quick >"$tmp/$exp.$side"
        mask "$tmp/$exp.$side" >"$tmp/$exp.$side.masked"
    done
    if diff -u "$tmp/$exp.base.masked" "$tmp/$exp.head.masked"; then
        echo "paperdiff: $exp identical"
    else
        echo "paperdiff: $exp differs from $base" >&2
        status=1
    fi
done
exit $status
