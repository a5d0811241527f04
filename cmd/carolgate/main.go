// Command carolgate is the fleet front door: it routes /v1/ traffic
// across N backend carolserve shards on a consistent-hash ring
// (internal/ring), splits large fields into slabs that are compressed in
// parallel on the shards that own them (internal/chunked geometry,
// internal/pipeline fan-out discipline), and absorbs large jobs into a
// bounded async queue (internal/jobs) behind a 202-Accepted API.
//
//	carolgate -addr :8080 -shards http://s1:8081,http://s2:8082,http://s3:8083
//
// Endpoints:
//
//	POST /v1/compress?codec=..&rel=..&dims=..     -> routed to one shard, or
//	     slab-fanned across the fleet when the field is large enough
//	POST /v1/compress?mode=auto&rel=..&dims=..    -> adaptive codec selection:
//	     fanned fields are scored by the gate's own selector BEFORE the slab
//	     split (all slabs of one field use the one chosen codec,
//	     X-Carol-Codec-Chosen names it); whole-routed fields are decided by
//	     the owning shard and its header is relayed
//	POST /v1/decompress?codec=..                  -> CCH1 containers fan chunks
//	     out to their shards; everything else routes whole
//	POST /v1/estimate, /v1/predict                -> routed whole
//	GET  /v1/models, /v1/codecs                   -> routed whole
//	POST /v1/jobs/compress?...&tenant=..          -> 202 + job id (async queue)
//	GET  /v1/jobs/{id}                            -> JSON job status
//	GET  /v1/jobs/{id}/result                     -> result stream once done
//	GET  /v1/fleet                                -> shard health + model versions
//	GET  /v1/selector                             -> gate-local mode=auto bandit state
//	GET  /metrics, /debug/vars                    -> gate metrics
//	GET  /healthz                                 -> gate liveness
//	GET  /readyz                                  -> 200 once >=1 shard healthy
//
// Shard health is probed continuously (/healthz with per-shard backoff);
// requests retry on the next ring replica when a shard fails mid-flight,
// and an empty healthy set answers 503 + Retry-After. SIGTERM drains
// in-flight requests and the job queue before exiting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	cfg := defaultGateConfig()
	addr := flag.String("addr", ":8080", "listen address")
	shardList := flag.String("shards", "", "comma-separated backend carolserve base URLs (required)")
	flag.IntVar(&cfg.virtualNodes, "vnodes", cfg.virtualNodes,
		"virtual nodes per shard on the consistent-hash ring")
	flag.IntVar(&cfg.maxInflight, "max-inflight", cfg.maxInflight,
		"maximum concurrently served /v1/ requests; excess get 503 + Retry-After")
	flag.IntVar(&cfg.fanoutWorkers, "fanout-workers", cfg.fanoutWorkers,
		"maximum concurrent shard requests per fanned-out field")
	flag.IntVar(&cfg.chunkThresholdKiB, "chunk-threshold-kib", cfg.chunkThresholdKiB,
		"fields at least this many KiB are slab-fanned across shards (0 disables chunking)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", cfg.probeInterval,
		"shard /healthz probe interval (healthy shards)")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", cfg.probeTimeout,
		"per-probe timeout")
	flag.DurationVar(&cfg.probeMaxBackoff, "probe-max-backoff", cfg.probeMaxBackoff,
		"cap on the exponential probe backoff for failing shards")
	flag.DurationVar(&cfg.shardTimeout, "shard-timeout", cfg.shardTimeout,
		"per-attempt timeout for proxied shard requests")
	flag.IntVar(&cfg.jobWorkers, "job-workers", cfg.jobWorkers,
		"concurrently running async jobs")
	flag.IntVar(&cfg.jobQueue, "job-queue", cfg.jobQueue,
		"maximum queued async jobs (503 beyond)")
	flag.IntVar(&cfg.tenantQuota, "tenant-quota", cfg.tenantQuota,
		"maximum queued+running async jobs per tenant (429 beyond)")
	flag.Uint64Var(&cfg.selectorSeed, "selector-seed", cfg.selectorSeed,
		"seed for the gate's mode=auto exploration RNG (fan-out path); fixed seed = reproducible decisions")
	flag.Float64Var(&cfg.selectorEpsilon, "selector-epsilon", cfg.selectorEpsilon,
		"gate mode=auto exploration probability (negative disables exploration)")
	cfg.timeouts.Flags(flag.CommandLine)
	flag.Parse()

	shards := splitShards(*shardList)
	if len(shards) == 0 {
		log.Printf("carolgate: -shards is required (comma-separated carolserve base URLs)")
		os.Exit(2)
	}
	os.Exit(run(cfg, *addr, shards))
}

// splitShards parses the -shards flag, trimming blanks and trailing
// slashes so "http://a:1/, http://b:2" normalizes cleanly.
func splitShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// run boots the gate: the first probe sweep runs synchronously so /readyz
// is meaningful the moment the listener accepts, then the background loop
// takes over; a graceful drain empties the job queue after HTTP.
func run(cfg gateConfig, addr string, shards []string) int {
	g, err := newGate(cfg, shards)
	if err != nil {
		log.Printf("carolgate: %v", err)
		return 1
	}
	g.probeAll()
	stopProber := g.startProber()
	defer stopProber()
	return g.Run(addr, cfg.timeouts, fmt.Sprintf(", %d shards on the ring", g.ring.Len()), g.queue.Close)
}
