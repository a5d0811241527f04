#!/bin/sh
# smoke_fleet.sh — multi-process fleet topology smoke test: boot three
# carolserve shards over one shared model registry plus one carolgate
# front door, then verify the behaviors the fleet promises:
#
#   1. whole-field requests route through the gate and round-trip
#   2. large fields slab-fan across shards into a CCH1 container that
#      decompresses back through the gate
#   3. /v1/fleet reports 3 healthy shards with converged models
#   4. killing a shard degrades the fleet but not correctness
#   5. publishing a new model version converges every shard via the
#      registry-watch poll (no SIGHUP fan-out)
#   6. the async job API accepts, runs, and serves a chunked compress
#   7. mode=auto picks a codec adaptively — whole-routed (shard decides)
#      and fan-out (gate decides once for all slabs) — and the bandit
#      state is inspectable at /v1/selector on gate and shards
#   8. SIGTERM drains gate and shards to clean exits
#
# Pure sh + curl. Set SMOKE_LOG_DIR to keep per-process logs (CI uploads
# them as artifacts on failure).
set -eu

scriptdir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
bindir=$(mktemp -d)
workdir=$(mktemp -d)
. "$scriptdir/lib.sh"

s1_pid=; s2_pid=; s3_pid=; gate_pid=
cleanup() {
    for p in "$gate_pid" "$s1_pid" "$s2_pid" "$s3_pid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$bindir" "$workdir"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$bindir" ./cmd/carolserve ./cmd/carolgate ./cmd/caroltrain

echo "== caroltrain: publish model version 1 into the shared registry"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 6 -bo-iters 2 \
    -forest-cap 8 -kfolds 2 -seed 7

p1=$(random_port 1); p2=$(random_port 2); p3=$(random_port 3); pg=$(random_port 4)
a1="127.0.0.1:$p1"; a2="127.0.0.1:$p2"; a3="127.0.0.1:$p3"; ag="127.0.0.1:$pg"

echo "== boot 3 shards on $a1 $a2 $a3 (registry-watch 200ms)"
for i in 1 2 3; do
    eval "addr=\$a$i"
    "$bindir/carolserve" -addr "$addr" -model-dir "$workdir/models" \
        -registry-watch 200ms >"$(log_path "shard$i")" 2>&1 &
    eval "s${i}_pid=$!"
done
wait_healthz shard1 "$a1" "$s1_pid"
wait_healthz shard2 "$a2" "$s2_pid"
wait_healthz shard3 "$a3" "$s3_pid"

echo "== boot carolgate on $ag over the 3 shards"
"$bindir/carolgate" -addr "$ag" \
    -shards "http://$a1,http://$a2,http://$a3" \
    -chunk-threshold-kib 16 -probe-interval 200ms \
    >"$(log_path carolgate)" 2>&1 &
gate_pid=$!
wait_healthz carolgate "$ag" "$gate_pid"
wait_for carolgate 100 curl -fsS -o /dev/null "http://$ag/readyz"

echo "== whole-field round trip through the gate (4 KiB, below threshold)"
dd if=/dev/zero of="$workdir/small.raw" bs=4096 count=1 2>/dev/null
curl -fsS -o "$workdir/small.bin" -D "$workdir/small-headers.txt" \
    --data-binary @"$workdir/small.raw" \
    "http://$ag/v1/compress?codec=szx&rel=1e-3&dims=32x32x1"
grep -i "X-Carol-Achieved-Ratio" "$workdir/small-headers.txt"
curl -fsS -o "$workdir/small-restored.raw" --data-binary @"$workdir/small.bin" \
    "http://$ag/v1/decompress?codec=szx"
restored=$(wc -c <"$workdir/small-restored.raw")
if [ "$restored" -ne 4096 ]; then
    echo "smoke-fleet: whole-field round trip restored $restored bytes, want 4096" >&2
    dump_log carolgate
    exit 1
fi

echo "== rel=NaN through the gate is refused at the door with 400 (no replica walk, no 503)"
code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary @"$workdir/small.raw" \
    "http://$ag/v1/compress?codec=szx&rel=NaN&dims=32x32x1")
if [ "$code" -ne 400 ]; then
    echo "smoke-fleet: rel=NaN through the gate answered $code, want 400" >&2
    dump_log carolgate
    exit 1
fi

echo "== a NaN sample is the shard's 400, relayed by the gate whole-routed and fanned out"
# The last sample is a quiet NaN (little-endian 0x7fc00000), in the last slab
# of a fan-out; 4 KiB routes whole, 64 KiB fans out.
for req in 4096:32x32x1 65536:64x16x16; do
    size=${req%%:*}; dims=${req#*:}
    { head -c $((size - 4)) /dev/zero; printf '\000\000\300\177'; } >"$workdir/nan.raw"
    code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary @"$workdir/nan.raw" \
        "http://$ag/v1/compress?codec=szx&abs=0.01&dims=$dims")
    if [ "$code" -ne 400 ]; then
        echo "smoke-fleet: a $size-byte body with a NaN sample answered $code, want 400" >&2
        dump_log carolgate
        exit 1
    fi
done

echo "== chunked fan-out round trip through the gate (64 KiB field)"
dd if=/dev/zero of="$workdir/big.raw" bs=65536 count=1 2>/dev/null
curl -fsS -o "$workdir/big.cch" -D "$workdir/big-headers.txt" \
    --data-binary @"$workdir/big.raw" \
    "http://$ag/v1/compress?codec=szx&rel=1e-3&dims=64x16x16"
head -c 4 "$workdir/big.cch" | grep -q CCH1 || {
    echo "smoke-fleet: large compress did not answer a CCH1 container" >&2
    dump_log carolgate
    exit 1
}
grep -i "X-Carol-Fanout-Chunks: 3" "$workdir/big-headers.txt" || {
    echo "smoke-fleet: fan-out did not use 3 chunks" >&2
    cat "$workdir/big-headers.txt" >&2
    exit 1
}
curl -fsS -o "$workdir/big-restored.raw" --data-binary @"$workdir/big.cch" \
    "http://$ag/v1/decompress?codec=szx"
restored=$(wc -c <"$workdir/big-restored.raw")
if [ "$restored" -ne 65536 ]; then
    echo "smoke-fleet: chunked round trip restored $restored bytes, want 65536" >&2
    dump_log carolgate
    exit 1
fi

echo "== a fan-out body 4 bytes longer than dims= is refused with 400, not served with its tail dropped"
{ cat "$workdir/big.raw"; printf 'tail'; } >"$workdir/big-long.raw"
code=$(curl -sS -o /dev/null -w '%{http_code}' --data-binary @"$workdir/big-long.raw" \
    "http://$ag/v1/compress?codec=szx&rel=1e-3&dims=64x16x16")
if [ "$code" -ne 400 ]; then
    echo "smoke-fleet: a 65540-byte body for dims=64x16x16 answered $code, want 400" >&2
    dump_log carolgate
    exit 1
fi

echo "== /v1/fleet: 3 healthy shards, models converged at version 1"
wait_for carolgate 100 sh -c \
    "curl -fsS 'http://$ag/v1/fleet' | grep -q '\"healthy_shards\":3'"
curl -fsS "http://$ag/v1/fleet" >"$workdir/fleet1.json"
cat "$workdir/fleet1.json"; echo
grep -q '"models_converged":true' "$workdir/fleet1.json" || {
    echo "smoke-fleet: fleet not converged at boot" >&2
    exit 1
}

echo "== kill shard 2: degraded but correct"
kill -KILL "$s2_pid" 2>/dev/null
wait "$s2_pid" 2>/dev/null || true
s2_pid=
# The gate notices via probe or first failed request; routing must keep
# answering either way (retry-on-next-replica).
curl -fsS -o "$workdir/degraded.bin" --data-binary @"$workdir/small.raw" \
    "http://$ag/v1/compress?codec=szx&rel=1e-3&dims=32x32x1" || {
    echo "smoke-fleet: compress failed with one shard down" >&2
    dump_log carolgate
    exit 1
}
wait_for carolgate 100 sh -c \
    "curl -fsS 'http://$ag/v1/fleet' | grep -q '\"healthy_shards\":2'"
# Chunked traffic must also survive on the 2 survivors.
curl -fsS -o "$workdir/big2.cch" --data-binary @"$workdir/big.raw" \
    "http://$ag/v1/compress?codec=szx&rel=1e-3&dims=64x16x16"
curl -fsS -o "$workdir/big2-restored.raw" --data-binary @"$workdir/big2.cch" \
    "http://$ag/v1/decompress?codec=szx"
restored=$(wc -c <"$workdir/big2-restored.raw")
if [ "$restored" -ne 65536 ]; then
    echo "smoke-fleet: degraded chunked round trip restored $restored bytes, want 65536" >&2
    dump_log carolgate
    exit 1
fi

echo "== publish model version 2: registry watch converges surviving shards"
"$bindir/caroltrain" -codec szx -model-dir "$workdir/models" \
    -datasets miranda:velocityx -dims 16x16x8 -bounds 6 -bo-iters 2 \
    -forest-cap 8 -kfolds 2 -seed 8
wait_for carolgate 150 sh -c \
    "curl -fsS 'http://$ag/v1/fleet' >'$workdir/fleet2.json' \
     && grep -q '\"szx\":2' '$workdir/fleet2.json' \
     && ! grep -q '\"szx\":1' '$workdir/fleet2.json' \
     && grep -q '\"models_converged\":true' '$workdir/fleet2.json'"
cat "$workdir/fleet2.json"; echo

echo "== async job: submit, poll, fetch result"
curl -fsS -o "$workdir/job.json" -H "X-Carol-Tenant: smoke" \
    --data-binary @"$workdir/big.raw" \
    "http://$ag/v1/jobs/compress?codec=szx&rel=1e-3&dims=64x16x16"
cat "$workdir/job.json"; echo
job_id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/job.json")
if [ -z "$job_id" ]; then
    echo "smoke-fleet: job submit returned no id" >&2
    exit 1
fi
wait_for carolgate 100 sh -c \
    "curl -fsS 'http://$ag/v1/jobs/$job_id' | grep -q '\"state\":\"done\"'"
curl -fsS -o "$workdir/job-result.cch" "http://$ag/v1/jobs/$job_id/result"
head -c 4 "$workdir/job-result.cch" | grep -q CCH1 || {
    echo "smoke-fleet: job result is not a CCH1 container" >&2
    dump_log carolgate
    exit 1
}
curl -fsS -o "$workdir/job-restored.raw" --data-binary @"$workdir/job-result.cch" \
    "http://$ag/v1/decompress?codec=szx"
restored=$(wc -c <"$workdir/job-restored.raw")
if [ "$restored" -ne 65536 ]; then
    echo "smoke-fleet: job round trip restored $restored bytes, want 65536" >&2
    exit 1
fi

echo "== mode=auto: whole-routed adaptive compress through the gate"
curl -fsS -o "$workdir/auto-small.bin" -D "$workdir/auto-small-headers.txt" \
    --data-binary @"$workdir/small.raw" \
    "http://$ag/v1/compress?mode=auto&rel=1e-3&dims=32x32x1"
chosen=$(tr -d '\r' <"$workdir/auto-small-headers.txt" \
    | sed -n 's/^[Xx]-[Cc]arol-[Cc]odec-[Cc]hosen: //p')
if [ -z "$chosen" ]; then
    echo "smoke-fleet: auto compress returned no X-Carol-Codec-Chosen" >&2
    cat "$workdir/auto-small-headers.txt" >&2
    dump_log carolgate
    exit 1
fi
echo "   chosen codec: $chosen"
curl -fsS -o "$workdir/auto-small-restored.raw" \
    --data-binary @"$workdir/auto-small.bin" \
    "http://$ag/v1/decompress?codec=$chosen"
restored=$(wc -c <"$workdir/auto-small-restored.raw")
if [ "$restored" -ne 4096 ]; then
    echo "smoke-fleet: auto whole round trip restored $restored bytes, want 4096" >&2
    exit 1
fi

echo "== mode=auto: chunked fan-out resolves one codec at the gate"
curl -fsS -o "$workdir/auto-big.cch" -D "$workdir/auto-big-headers.txt" \
    --data-binary @"$workdir/big.raw" \
    "http://$ag/v1/compress?mode=auto&rel=1e-3&dims=64x16x16"
head -c 4 "$workdir/auto-big.cch" | grep -q CCH1 || {
    echo "smoke-fleet: auto fan-out did not answer a CCH1 container" >&2
    dump_log carolgate
    exit 1
}
gchosen=$(tr -d '\r' <"$workdir/auto-big-headers.txt" \
    | sed -n 's/^[Xx]-[Cc]arol-[Cc]odec-[Cc]hosen: //p')
if [ -z "$gchosen" ]; then
    echo "smoke-fleet: auto fan-out returned no X-Carol-Codec-Chosen" >&2
    exit 1
fi
echo "   gate chose: $gchosen"
curl -fsS -o "$workdir/auto-big-restored.raw" \
    --data-binary @"$workdir/auto-big.cch" \
    "http://$ag/v1/decompress?codec=$gchosen"
restored=$(wc -c <"$workdir/auto-big-restored.raw")
if [ "$restored" -ne 65536 ]; then
    echo "smoke-fleet: auto chunked round trip restored $restored bytes, want 65536" >&2
    exit 1
fi

echo "== /v1/selector: bandit state inspectable on gate and live shards"
for ep in "$ag" "$a1" "$a3"; do
    curl -fsS "http://$ep/v1/selector" >"$workdir/selector-$ep.json" || {
        echo "smoke-fleet: /v1/selector failed on $ep" >&2
        exit 1
    }
    grep -q '"decisions"' "$workdir/selector-$ep.json" || {
        echo "smoke-fleet: /v1/selector on $ep missing decisions field" >&2
        cat "$workdir/selector-$ep.json" >&2
        exit 1
    }
done

echo "== gate /metrics sanity"
curl -fsS "http://$ag/metrics" >"$workdir/gate-metrics.txt"
for metric in gate_requests_total gate_routed_total carol_fleet_healthy_shards \
    gate_fanout_total gate_shard_request_seconds; do
    grep -q "$metric" "$workdir/gate-metrics.txt" || {
        echo "smoke-fleet: gate /metrics missing $metric" >&2
        exit 1
    }
done

echo "== graceful shutdown: gate first, then shards"
stop_graceful carolgate "$gate_pid"; gate_pid=
stop_graceful shard1 "$s1_pid"; s1_pid=
stop_graceful shard3 "$s3_pid"; s3_pid=
echo "== smoke-fleet passed"
