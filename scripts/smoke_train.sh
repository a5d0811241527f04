#!/bin/sh
# smoke_train.sh — the publish-to-serve path on real binaries (DESIGN.md
# §17): caroltrain publishes szx v1, carolserve boots with -registry-watch,
# and a second caroltrain publish (szx v2) must reach /v1/models and
# /v1/predict on the next poll, without a signal.
#
# Around that it checks the -backends flag: a bad list or the retired knn
# tag is refused by caroltrain before any training work, and a non-forest
# (boost) publish is listed and answered by the live server. It also checks
# that caroltrain -workers 1 and -workers 0 publish artifacts that differ
# only in their trained_at stamp, with the forest alone and with the zoo's
# pick between rf and boost.
#
# Everything is seeded. Pure sh + curl; helpers in scripts/lib.sh.
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
go build -o "$bindir" ./cmd/carolserve ./cmd/caroltrain ./cmd/carolgen

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
# Generation, collection, training and the zoo's cross-validation fan out
# over -workers without changing a bit. trained_at is the one value that
# may differ: a 20-byte RFC 3339 stamp behind its key and a one-byte
# length, covered by the artifact's 4-byte CRC trailer. Every differing
# byte must lie in those.
for backends in rf rf,boost; do
    tag=$(echo "$backends" | tr , -)
    for w in 1 0; do
        "$bindir/caroltrain" -codec szx -name "szx-$tag-w$w" -model-dir "$workdir/ident" \
            -datasets miranda,hurricane:TC -dims 16x16x8 -bounds 12 -bo-iters 2 \
            -forest-cap 8 -kfolds 2 -seed 7 -workers "$w" -backends "$backends" >/dev/null
    done
    a="$workdir/ident/szx-$tag-w1/v000001.model"
    b="$workdir/ident/szx-$tag-w0/v000001.model"
    size=$(wc -c <"$a")
    key=$(grep -abo trained_at "$a" | head -n 1 | cut -d: -f1)
    if [ "$size" -ne "$(wc -c <"$b")" ] || [ -z "$key" ] ||
        ! cmp -l "$a" "$b" | awk -v lo=$((key + 12)) -v hi=$((key + 31)) -v crc=$((size - 3)) \
            '!(($1 >= lo && $1 <= hi) || $1 >= crc) { bad = 1 } END { exit bad }'; then
        echo "smoke_train: -backends $backends: -workers 1 and -workers 0 artifacts differ beyond trained_at:" >&2
        cmp -l "$a" "$b" | head -n 20 >&2
        exit 1
    fi
done

echo "== generate a field"
dims=32x32x8
"$bindir/carolgen" -dataset miranda -field velocityx -dims $dims -out "$workdir/f1.raw"

echo "== caroltrain: publish szx v1"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 4 -bo-iters 1 \
    -forest-cap 4 -kfolds 2 -seed 7

addr="127.0.0.1:$(random_port)"
echo "== boot carolserve on $addr with -registry-watch"
"$bindir/carolserve" -addr "$addr" -model-dir "$workdir/models" \
    -registry-watch 200ms >"$(log_path carolserve)" 2>&1 &
server_pid=$!
wait_healthz carolserve "$addr" "$server_pid"
curl -fsS "http://$addr/v1/models" | grep -q '"version":1' || {
    echo "smoke_train: carolserve did not load szx v1" >&2
    exit 1
}

echo "== caroltrain: publish szx v2; the watching carolserve swaps without a signal"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda,hurricane:TC -dims 16x16x8 -bounds 8 -bo-iters 1 \
    -forest-cap 4 -kfolds 2 -seed 11
wait_for carolserve 50 sh -c "curl -fsS 'http://$addr/v1/models' | grep -q '\"model\":\"szx\",\"version\":2'"
curl -fsS --data-binary @"$workdir/f1.raw" \
    "http://$addr/v1/predict?ratio=10,50&dims=$dims" | grep -q '"version":2' || {
    echo "smoke_train: /v1/predict still serving v1 after the registry changed" >&2
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

echo "== graceful shutdown (SIGTERM)"
stop_graceful carolserve "$server_pid"
server_pid=
echo "== smoke_train passed"
