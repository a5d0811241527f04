// Command carolgate is the fleet front door: it routes /v1/ traffic
// across N backend carolserve shards on a consistent-hash ring
// (internal/ring), splits large fields into slabs that are compressed in
// parallel on the shards that own them (internal/pipeline geometry and
// fan-out discipline) into one CPL1 container, and absorbs large jobs into a
// bounded async queue (queue.go) behind a 202-Accepted API.
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
//	POST /v1/decompress?codec=..                  -> slab containers (CPL1, or
//	     the legacy CCH1) fan their frames out to the shards; everything
//	     else routes whole
//	POST /v1/estimate, /v1/predict                -> routed whole
//	GET  /v1/models, /v1/codecs                   -> routed whole
//	POST /v1/jobs/compress?...&tenant=..          -> 202 + job id (async queue)
//	GET  /v1/jobs/{id}                            -> JSON job status
//	GET  /v1/jobs/{id}/result                     -> result stream once done
//	GET  /v1/fleet                                -> shard health + model versions
//	GET  /v1/selector                             -> gate-local mode=auto codecs and counters
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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	cfg, addr, shards, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		log.Printf("carolgate: %v", err)
		os.Exit(2)
	}
	os.Exit(run(cfg, addr, shards))
}

// parseFlags reads the gate's flags over defaultGateConfig and returns the
// config, the listen address and the shard URLs.
func parseFlags(args []string) (gateConfig, string, []string, error) {
	cfg := defaultGateConfig()
	fs := flag.NewFlagSet("carolgate", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shardList := fs.String("shards", "", "comma-separated backend carolserve base URLs (required)")
	fs.IntVar(&cfg.virtualNodes, "vnodes", cfg.virtualNodes,
		"virtual nodes per shard on the consistent-hash ring")
	fs.IntVar(&cfg.maxInflight, "max-inflight", cfg.maxInflight,
		"maximum concurrently served /v1/ requests; excess get 503 + Retry-After")
	fs.IntVar(&cfg.fanoutWorkers, "fanout-workers", cfg.fanoutWorkers,
		"maximum concurrent shard requests per fanned-out field")
	fs.IntVar(&cfg.chunkThresholdKiB, "chunk-threshold-kib", cfg.chunkThresholdKiB,
		"fields at least this many KiB are slab-fanned across shards (0 disables chunking)")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", cfg.probeInterval,
		"shard /healthz probe interval (healthy shards)")
	fs.DurationVar(&cfg.probeTimeout, "probe-timeout", cfg.probeTimeout,
		"per-probe timeout")
	fs.DurationVar(&cfg.probeMaxBackoff, "probe-max-backoff", cfg.probeMaxBackoff,
		"cap on the exponential probe backoff for failing shards")
	fs.DurationVar(&cfg.shardTimeout, "shard-timeout", cfg.shardTimeout,
		"per-attempt timeout for proxied shard requests")
	fs.IntVar(&cfg.jobWorkers, "job-workers", cfg.jobWorkers,
		"concurrently running async jobs")
	fs.IntVar(&cfg.jobQueue, "job-queue", cfg.jobQueue,
		"maximum queued async jobs (503 beyond)")
	fs.IntVar(&cfg.tenantQuota, "tenant-quota", cfg.tenantQuota,
		"maximum queued+running async jobs per tenant (429 beyond)")
	fs.Uint64("selector-seed", 1,
		"ignored: mode=auto draws no random numbers (kept until the benchmark harness stops passing it)")
	cfg.timeouts.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, "", nil, err
	}
	shards := splitShards(*shardList)
	if len(shards) == 0 {
		return cfg, "", nil, fmt.Errorf("-shards is required (comma-separated carolserve base URLs)")
	}
	// A value below 1 would serve no request, fan out to no shard, leave
	// the ring empty, or refuse every job or run none.
	for _, c := range []struct {
		flag string
		val  int
	}{
		{"max-inflight", cfg.maxInflight},
		{"fanout-workers", cfg.fanoutWorkers},
		{"vnodes", cfg.virtualNodes},
		{"job-workers", cfg.jobWorkers},
		{"job-queue", cfg.jobQueue},
		{"tenant-quota", cfg.tenantQuota},
	} {
		if c.val < 1 {
			return cfg, "", nil, fmt.Errorf("-%s %d < 1", c.flag, c.val)
		}
	}
	return cfg, *addr, shards, nil
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
	return g.Run(addr, cfg.timeouts, fmt.Sprintf(", %d shards on the ring", g.ring.Len()), g.queue.close)
}
