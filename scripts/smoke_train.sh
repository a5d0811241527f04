#!/bin/sh
# smoke_train.sh — end-to-end continuous-training loop (DESIGN.md §17):
# publish a deliberately weak offline baseline with caroltrain, boot
# carolserve with -harvest-dir and -registry-watch, drive varied traffic
# so outcomes land in the harvest journal, then run carolretrain twice:
#
#   1. the zoo candidate (trained on the served traffic) wins the shadow
#      evaluation against the stale baseline and is auto-published; the
#      watching carolserve hot-swaps to it without a signal, visible in
#      /v1/models as a new version + backend tag;
#   2. an immediate rerun on the unchanged journal trains a bit-identical
#      candidate, which ties — and a tie is not a win, so nothing is
#      published and the registry provably stays at the retrained version.
#
# Around that loop it checks the -backends flag on the real binaries: a
# bad list or the retired knn tag is refused by caroltrain before any
# training work and by carolretrain before it reads the journal, and a
# non-forest (boost) publish is listed and answered by the live server.
# It also checks that caroltrain -workers 1 and -workers 0 publish
# artifacts that differ only in their trained_at stamp.
#
# Everything is seeded and the traffic is fixed, so both verdicts are
# deterministic. Pure sh + curl; helpers in scripts/lib.sh.
set -eu

scriptdir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
bindir=$(mktemp -d)
workdir=$(mktemp -d)
. "$scriptdir/lib.sh"
server_pid=
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$bindir" "$workdir"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$bindir" ./cmd/carolserve ./cmd/caroltrain ./cmd/carolretrain ./cmd/carolgen

echo "== caroltrain: a bad or retired -backends list is refused before any training work"
for bad in rf,bogus knn; do
    if "$bindir/caroltrain" -codec szx -model-dir "$workdir/models" -dims 16x16x8 \
        -backends "$bad" >"$workdir/badflag.txt" 2>&1; then
        echo "smoke_train: caroltrain accepted -backends $bad" >&2
        exit 1
    fi
    if grep -q "collected" "$workdir/badflag.txt"; then
        echo "smoke_train: -backends $bad was rejected only after data collection:" >&2
        cat "$workdir/badflag.txt" >&2
        exit 1
    fi
done

echo "== caroltrain: -workers 1 and -workers 0 publish the same artifact"
# Generation, collection and training fan out over -workers without
# changing a bit. trained_at is the one value that may differ: a 20-byte
# RFC 3339 stamp behind its key and a one-byte length, covered by the
# artifact's 4-byte CRC trailer. Every differing byte must lie in those.
for w in 1 0; do
    "$bindir/caroltrain" -codec szx -name "szx-w$w" -model-dir "$workdir/ident" \
        -datasets miranda,hurricane:TC -dims 16x16x8 -bounds 12 -bo-iters 2 \
        -forest-cap 8 -kfolds 2 -seed 7 -workers "$w" >/dev/null
done
a="$workdir/ident/szx-w1/v000001.model"
b="$workdir/ident/szx-w0/v000001.model"
size=$(wc -c <"$a")
key=$(grep -abo trained_at "$a" | head -n 1 | cut -d: -f1)
if [ "$size" -ne "$(wc -c <"$b")" ] || [ -z "$key" ] ||
    ! cmp -l "$a" "$b" | awk -v lo=$((key + 12)) -v hi=$((key + 31)) -v crc=$((size - 3)) \
        '!(($1 >= lo && $1 <= hi) || $1 >= crc) { bad = 1 } END { exit bad }'; then
    echo "smoke_train: -workers 1 and -workers 0 artifacts differ beyond trained_at:" >&2
    cmp -l "$a" "$b" | head -n 20 >&2
    exit 1
fi

echo "== generate traffic fields"
dims=32x32x8
"$bindir/carolgen" -dataset miranda -field velocityx -dims $dims -out "$workdir/f1.raw"
"$bindir/carolgen" -dataset miranda -field pressure -dims $dims -out "$workdir/f2.raw"
"$bindir/carolgen" -dataset hurricane -field TC -step 3 -dims $dims -out "$workdir/f3.raw"
"$bindir/carolgen" -dataset nyx -field temperature -dims $dims -out "$workdir/f4.raw"
"$bindir/carolgen" -dataset it -field velocity_magnitude -dims $dims -out "$workdir/f5.raw"

echo "== caroltrain: publish weak offline baseline as szx v1"
# Tiny budget on a mismatched grid: the point is a live model the
# traffic-trained candidate can beat.
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 4 -bo-iters 1 \
    -forest-cap 4 -kfolds 2 -seed 7

addr="127.0.0.1:$(random_port)"
echo "== boot carolserve on $addr with -harvest-dir and -registry-watch"
"$bindir/carolserve" -addr "$addr" -model-dir "$workdir/models" \
    -harvest-dir "$workdir/harvest" -registry-watch 200ms \
    >"$(log_path carolserve)" 2>&1 &
server_pid=$!
wait_healthz carolserve "$addr" "$server_pid"
curl -fsS "http://$addr/v1/models" | grep -q '"version":1' || {
    echo "smoke_train: carolserve did not load baseline v1" >&2
    exit 1
}

echo "== serve traffic: 30 rel-bounded compressions across 5 fields"
for f in f1 f2 f3 f4 f5; do
    for rel in 3e-2 1e-2 3e-3 1e-3 3e-4 1e-4; do
        curl -fsS -o /dev/null --data-binary @"$workdir/$f.raw" \
            "http://$addr/v1/compress?codec=szx&rel=$rel&dims=$dims"
    done
done
[ -f "$workdir/harvest/szx.journal" ] || {
    echo "smoke_train: no harvest journal written" >&2
    dump_log carolserve
    exit 1
}

echo "== carolretrain: the retired -backends knn is refused before the journal is read"
if "$bindir/carolretrain" -codec szx -model-dir "$workdir/models" \
    -harvest-dir "$workdir/harvest" -min-samples 20 -backends knn \
    >"$workdir/retrain-knn.txt" 2>&1; then
    echo "smoke_train: carolretrain accepted -backends knn" >&2
    exit 1
fi
if grep -q "harvested=" "$workdir/retrain-knn.txt"; then
    echo "smoke_train: -backends knn was rejected only after reading the journal:" >&2
    cat "$workdir/retrain-knn.txt" >&2
    exit 1
fi

echo "== carolretrain cycle 1: traffic-trained candidate must win and publish v2"
"$bindir/carolretrain" -codec szx -model-dir "$workdir/models" \
    -harvest-dir "$workdir/harvest" -min-samples 20 -margin 0.001 \
    -seed 11 -workers 2 | tee "$workdir/retrain1.txt"
grep -q "published szx v2" "$workdir/retrain1.txt" || {
    echo "smoke_train: first retrain cycle did not publish v2" >&2
    exit 1
}
winner=$(sed -n 's/^carolretrain: candidate backend \([a-z]*\).*/\1/p' "$workdir/retrain1.txt")
[ -n "$winner" ] || { echo "smoke_train: no candidate backend in report" >&2; exit 1; }
echo "   zoo winner: $winner"

echo "== registry-watch hot-swap: /v1/models must show v2 + backend \"$winner\""
wait_for carolserve 50 sh -c "curl -fsS 'http://$addr/v1/models' | grep -q '\"version\":2'"
curl -fsS "http://$addr/v1/models" >"$workdir/models.json"
cat "$workdir/models.json"; echo
grep -q "\"backend\":\"$winner\"" "$workdir/models.json" || {
    echo "smoke_train: /v1/models backend tag does not match retrain winner" >&2
    exit 1
}
curl -fsS --data-binary @"$workdir/f1.raw" \
    "http://$addr/v1/predict?ratio=10,50&dims=$dims" | grep -q '"version":2' || {
    echo "smoke_train: /v1/predict still serving v1 after hot-swap" >&2
    exit 1
}

echo "== carolretrain cycle 2: unchanged traffic ties, must NOT publish"
"$bindir/carolretrain" -codec szx -model-dir "$workdir/models" \
    -harvest-dir "$workdir/harvest" -min-samples 20 -margin 0.001 \
    -seed 11 -workers 2 | tee "$workdir/retrain2.txt"
grep -q "no-win: nothing published" "$workdir/retrain2.txt" || {
    echo "smoke_train: second retrain cycle should be a no-win" >&2
    exit 1
}
curl -fsS "http://$addr/v1/models" | grep -q '"version":2' || {
    echo "smoke_train: registry advanced past v2 after a losing candidate" >&2
    exit 1
}

echo "== caroltrain -backends boost: a non-forest publish is served by the live carolserve"
"$bindir/caroltrain" -codec szx -name szx-boost -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 8 -bo-iters 1 \
    -forest-cap 4 -kfolds 2 -seed 7 -backends boost
wait_for carolserve 50 sh -c "curl -fsS 'http://$addr/v1/models' | grep -q '\"model\":\"szx-boost\"[^}]*\"backend\":\"boost\"'"
curl -fsS --data-binary @"$workdir/f1.raw" \
    "http://$addr/v1/predict?model=szx-boost&ratio=10,50&dims=$dims" | grep -q '"error_bounds":\[' || {
    echo "smoke_train: /v1/predict did not answer from the boost model" >&2
    exit 1
}

echo "== harvest metrics"
curl -fsS "http://$addr/metrics" | grep "harvest_records_total" || {
    echo "smoke_train: /metrics missing harvest_records_total" >&2
    exit 1
}

echo "== graceful shutdown (SIGTERM)"
stop_graceful carolserve "$server_pid"
server_pid=
echo "== smoke_train passed"
