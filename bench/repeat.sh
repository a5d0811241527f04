#!/usr/bin/env bash
# repeat.sh N OUT.jsonl [SECONDS] — run every workload N times through the
# contract command, seeds 1..N, appending one JSON line per run to OUT.jsonl.
# Successive sets start with a different workload, so no workload always
# runs first or on a cold machine. Compare sets with
#
#   go run ./bench -compare base.jsonl change.jsonl
#
# or look at one set's run-to-run spread with -compare base.jsonl.
set -euo pipefail

n=${1:?usage: bench/repeat.sh N OUT.jsonl [SECONDS]}
out=${2:?usage: bench/repeat.sh N OUT.jsonl [SECONDS]}
seconds=${3:-}
workloads=(lib_fixed_ratio codec_bulk serve_ratio fleet_mixed)
for seed in $(seq 1 "$n"); do
    for k in 0 1 2 3; do
        w=${workloads[$(((k + seed) % 4))]}
        echo "== set $seed/$n: $w" >&2
        bash bench/run.sh --workload "$w" --seed "$seed" --trace 0 \
            ${seconds:+--seconds "$seconds"} --out "$out" >/dev/null
    done
done
