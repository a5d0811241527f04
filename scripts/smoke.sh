#!/bin/sh
# smoke.sh — build the CLIs, train and publish a model with caroltrain,
# boot carolserve on a random loopback port with the model registry
# mounted, hit the core endpoints (including /v1/predict and a SIGHUP
# hot reload to a second model version) and shut down gracefully. Any
# non-200 answer or a non-zero server exit fails the script. Pure sh + curl.
#
# Boot/poll/teardown helpers live in scripts/lib.sh (shared with
# smoke_fleet.sh); every wait is bounded and dumps the server log on
# timeout. Set SMOKE_LOG_DIR to keep logs after the run (CI uploads them
# as artifacts on failure).
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
go build -o "$bindir" ./cmd/carolserve ./cmd/carolbench ./cmd/caroltrain ./cmd/carolc ./cmd/carolgen ./cmd/carolpack

echo "== carolbench -list"
"$bindir/carolbench" -list

echo "== caroltrain: publish model version 1"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 6 -bo-iters 2 \
    -forest-cap 8 -kfolds 2 -seed 7

addr="127.0.0.1:$(random_port)"
echo "== boot carolserve on $addr with -model-dir"
"$bindir/carolserve" -addr "$addr" -model-dir "$workdir/models" \
    >"$(log_path carolserve)" 2>&1 &
server_pid=$!
wait_healthz carolserve "$addr" "$server_pid"

echo "== GET /v1/codecs"
curl -fsS "http://$addr/v1/codecs"
echo

echo "== POST /v1/compress"
# 32x32x1 float32 zeros = 4096 bytes.
dd if=/dev/zero of="$workdir/field.raw" bs=4096 count=1 2>/dev/null
curl -fsS -o "$workdir/stream.bin" -D "$workdir/headers.txt" \
    --data-binary @"$workdir/field.raw" \
    "http://$addr/v1/compress?codec=szx&rel=1e-3&dims=32x32x1"
grep -i "X-Carol-Achieved-Ratio" "$workdir/headers.txt"

echo "== POST /v1/compress?rel=NaN is the client's 400, not a 500"
code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary @"$workdir/field.raw" \
    "http://$addr/v1/compress?codec=szx&rel=NaN&dims=32x32x1")
if [ "$code" -ne 400 ]; then
    echo "smoke: rel=NaN answered $code, want 400" >&2
    exit 1
fi

echo "== POST /v1/compress?ratio= over a field with a NaN sample is the client's 400, not a 500"
# The first sample is a quiet NaN (little-endian 0x7fc00000), the rest zeros.
{ printf '\000\000\300\177'; head -c 4092 /dev/zero; } >"$workdir/nan.raw"
code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary @"$workdir/nan.raw" \
    "http://$addr/v1/compress?codec=szx&ratio=4&dims=32x32x1")
if [ "$code" -ne 400 ]; then
    echo "smoke: ratio= over a NaN sample answered $code, want 400" >&2
    exit 1
fi

echo "== streaming CLI path: carolc -stream round trip (CPL1 container)"
"$bindir/carolc" -stream -compressor sz3 -dims 32x32x1 -eb 1e-3 \
    -in "$workdir/field.raw" -out "$workdir/field.cpl"
head -c 4 "$workdir/field.cpl" | grep -q CPL1 || {
    echo "smoke: carolc -stream did not write a CPL1 container" >&2
    exit 1
}
"$bindir/carolc" -d -compressor sz3 -in "$workdir/field.cpl" -out "$workdir/field.restored"
restored=$(wc -c <"$workdir/field.restored")
if [ "$restored" -ne 4096 ]; then
    echo "smoke: streaming round trip restored $restored bytes, want 4096" >&2
    exit 1
fi

echo "== carolc -codec auto round trip (the codec is sniffed from the stream magic)"
# 16x16x8 float32 = 8192 bytes.
"$bindir/carolgen" -dataset miranda -field velocityx -dims 16x16x8 -out "$workdir/cli.raw"
"$bindir/carolc" -codec auto -dims 16x16x8 -eb 1e-3 -in "$workdir/cli.raw" -out "$workdir/cli.auto"
"$bindir/carolc" -d -codec auto -in "$workdir/cli.auto" -out "$workdir/cli.auto.raw"
restored=$(wc -c <"$workdir/cli.auto.raw")
if [ "$restored" -ne 8192 ]; then
    echo "smoke: carolc -codec auto round trip restored $restored bytes, want 8192" >&2
    exit 1
fi

echo "== carolpack -pack (plain, then -stream), -list and -extract"
for flags in "" -stream; do
    "$bindir/carolpack" -pack $flags -out "$workdir/snap.car" \
        -field a:szx:1e-3:16x16x8:"$workdir/cli.raw" -field b:sz3:1e-3:16x16x8:"$workdir/cli.raw"
    "$bindir/carolpack" -list -in "$workdir/snap.car" | tee "$workdir/list.txt"
    ratio=$(awk '/overall ratio/ { print $NF }' "$workdir/list.txt")
    case "$ratio" in
    [0-9]*.[0-9]) ;;
    *)
        echo "smoke: carolpack -list $flags printed overall ratio '$ratio', want a finite number" >&2
        exit 1
        ;;
    esac
    "$bindir/carolpack" -extract b -in "$workdir/snap.car" -out "$workdir/snap.b.raw"
    restored=$(wc -c <"$workdir/snap.b.raw")
    if [ "$restored" -ne 8192 ]; then
        echo "smoke: carolpack -extract $flags restored $restored bytes, want 8192" >&2
        exit 1
    fi
done

echo "== POST /v1/compress?stream=1 (pipeline container) and decompress auto-detect"
curl -fsS -o "$workdir/stream-cpl.bin" --data-binary @"$workdir/field.raw" \
    "http://$addr/v1/compress?codec=szx&rel=1e-3&stream=1&dims=32x32x1"
head -c 4 "$workdir/stream-cpl.bin" | grep -q CPL1 || {
    echo "smoke: stream=1 did not answer a CPL1 container" >&2
    exit 1
}
curl -fsS -o "$workdir/stream-restored.raw" --data-binary @"$workdir/stream-cpl.bin" \
    "http://$addr/v1/decompress?codec=szx"
restored=$(wc -c <"$workdir/stream-restored.raw")
if [ "$restored" -ne 4096 ]; then
    echo "smoke: server streaming round trip restored $restored bytes, want 4096" >&2
    exit 1
fi

echo "== GET /readyz"
curl -fsS "http://$addr/readyz"

echo "== GET /v1/models"
curl -fsS "http://$addr/v1/models" >"$workdir/models.json"
cat "$workdir/models.json"; echo
grep -q '"version":1' "$workdir/models.json" || {
    echo "smoke: /v1/models does not list version 1" >&2
    exit 1
}

echo "== POST /v1/predict"
curl -fsS --data-binary @"$workdir/field.raw" \
    "http://$addr/v1/predict?ratio=10,100&dims=32x32x1" >"$workdir/predict1.json"
cat "$workdir/predict1.json"; echo
grep -q '"error_bounds"' "$workdir/predict1.json" || {
    echo "smoke: /v1/predict returned no error bounds" >&2
    exit 1
}

echo "== caroltrain: publish model version 2, then SIGHUP hot reload"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 6 -bo-iters 2 \
    -forest-cap 8 -kfolds 2 -seed 8
kill -HUP "$server_pid"
wait_for carolserve 50 sh -c "curl -fsS 'http://$addr/v1/models' | grep -q '\"version\":2'"
curl -fsS --data-binary @"$workdir/field.raw" \
    "http://$addr/v1/predict?ratio=10,100&dims=32x32x1" | grep -q '"version":2' || {
    echo "smoke: /v1/predict still serving old version after reload" >&2
    exit 1
}

echo "== POST /v1/compress?ratio= starts from the reloaded model's bound"
"$bindir/carolgen" -dataset miranda -field velocityx -dims 16x16x8 -out "$workdir/velocityx.raw"
curl -fsS -o /dev/null -D "$workdir/ratio_headers.txt" \
    --data-binary @"$workdir/velocityx.raw" \
    "http://$addr/v1/compress?codec=szx&ratio=4&dims=16x16x8"
tr -d '\r' <"$workdir/ratio_headers.txt" | grep -i '^X-Carol-'
tr -d '\r' <"$workdir/ratio_headers.txt" | grep -qi '^X-Carol-Resolver: model$' || {
    echo "smoke: ratio= did not use the loaded model (want X-Carol-Resolver: model)" >&2
    exit 1
}
runs=$(tr -d '\r' <"$workdir/ratio_headers.txt" | awk -F': ' 'tolower($1) == "x-carol-compressor-runs" { print $2 }')
if [ -z "$runs" ] || [ "$runs" -gt 2 ]; then
    echo "smoke: ratio= took '$runs' compressor runs, want <= 2 (szx searches on its surrogate first)" >&2
    exit 1
fi
tr -d '\r' <"$workdir/ratio_headers.txt" | grep -qiE '^X-Carol-Surrogate-Evals: [0-9]+$' || {
    echo "smoke: ratio= answer lacks X-Carol-Surrogate-Evals" >&2
    exit 1
}

echo "== POST /v1/compress?codec=sz3&ratio= root-finds on SZ3's surrogate"
"$bindir/carolgen" -dataset miranda -field velocityx -dims 32x32x32 -out "$workdir/velocityx32.raw"
curl -fsS -o /dev/null -D "$workdir/sz3_headers.txt" \
    --data-binary @"$workdir/velocityx32.raw" \
    "http://$addr/v1/compress?codec=sz3&ratio=25&dims=32x32x32"
tr -d '\r' <"$workdir/sz3_headers.txt" | grep -i '^X-Carol-'
header_value() { tr -d '\r' <"$1" | awk -F': ' -v h="$2" 'tolower($1) == h { print $2 }'; }
runs=$(header_value "$workdir/sz3_headers.txt" x-carol-compressor-runs)
evals=$(header_value "$workdir/sz3_headers.txt" x-carol-surrogate-evals)
if [ -z "$runs" ] || [ "$runs" -gt 3 ] || [ -z "$evals" ] || [ "$evals" -lt 1 ]; then
    echo "smoke: sz3 ratio=25 took '$runs' compressor runs and '$evals' surrogate evaluations, want <= 3 and > 0" >&2
    exit 1
fi

echo "== GET /metrics"
curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
for metric in http_requests_total http_request_seconds_bucket codec_compress_seconds \
    model_loaded_version model_load_total model_predict_seconds model_forest_trees \
    carol_model_version 'fraz_search_runs_bucket{resolver="model"' fraz_ratio_miss_bucket \
    fraz_surrogate_evals_bucket fraz_surrogate_dropped_total fraz_surrogate_jump_skips_total \
    fraz_surrogate_refine_runs_total; do
    grep -q "$metric" "$workdir/metrics.txt" || {
        echo "smoke: /metrics missing $metric" >&2
        exit 1
    }
done
wc -l "$workdir/metrics.txt"
# The 32x32x1 requests above after the first read their bodies into storage
# an earlier one gave back.
reused=$(awk '$1 == "http_field_storage_total{result=\"reused\"}" { print $2 }' "$workdir/metrics.txt")
if [ -z "$reused" ] || [ "$reused" -lt 1 ]; then
    echo "smoke: http_field_storage_total{result=\"reused\"} is '$reused', want > 0 after repeated same-dims requests" >&2
    exit 1
fi

echo "== GET /debug/vars"
curl -fsS -o /dev/null "http://$addr/debug/vars"

echo "== graceful shutdown (SIGTERM)"
stop_graceful carolserve "$server_pid"
server_pid=
echo "== smoke passed"
