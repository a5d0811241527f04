package ring

import (
	"fmt"
	"testing"
)

// BenchmarkRingLookup is the gate's per-request routing cost: one key
// hashed and placed on an 8-shard ring with the default virtual-node
// count. The gated number is bench/'s ring.lookup_ns (bench/README.md).
func BenchmarkRingLookup(b *testing.B) {
	r := mustNew(b, shardNames(8), Options{})
	ks := keys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := r.Lookup(ks[i%len(ks)], 3)
		if len(seq) != 3 {
			b.Fatalf("lookup returned %d shards", len(seq))
		}
	}
}

// BenchmarkRingBuild measures membership-change cost (a new ring per
// join/leave): not a hot path, but it bounds how often a control loop may
// rebuild without showing up in tail latency.
func BenchmarkRingBuild(b *testing.B) {
	shards := shardNames(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := New(shards, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != 8 {
			b.Fatal("bad ring")
		}
	}
}

var sinkSeq []string

func BenchmarkRingLookupScale(b *testing.B) {
	for _, n := range []int{3, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			r := mustNew(b, shardNames(n), Options{})
			ks := keys(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSeq = r.Lookup(ks[i%len(ks)], 2)
			}
		})
	}
}
