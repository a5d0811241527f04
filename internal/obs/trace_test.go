package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceSpansAndHistograms(t *testing.T) {
	r := NewRegistry()
	tr := r.StartTrace("op")
	s := tr.StartSpan("parse")
	time.Sleep(time.Millisecond)
	if d := s.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	s = tr.StartSpan("work")
	s.End()
	tr.Record("summed", 3*time.Millisecond)
	if d := tr.End(); d <= 0 {
		t.Fatalf("trace duration %v", d)
	}

	spans := tr.Spans()
	if len(spans) != 3 || spans[0].Stage != "parse" || spans[1].Stage != "work" || spans[2] != (SpanRecord{"summed", 3 * time.Millisecond}) {
		t.Fatalf("spans = %v", spans)
	}
	str := tr.String()
	if !strings.HasPrefix(str, "parse=") || !strings.Contains(str, " work=") || !strings.HasSuffix(str, " summed=3ms") {
		t.Fatalf("String() = %q", str)
	}
	if h := r.Histogram("op_summed_seconds", LatencyBuckets()); h.Count() != 1 || h.Sum() != 0.003 {
		t.Fatalf("recorded stage histogram: count %d, sum %g", h.Count(), h.Sum())
	}

	if got := r.Histogram("op_parse_seconds", LatencyBuckets()).Count(); got != 1 {
		t.Fatalf("per-stage histogram count = %d", got)
	}
	if got := r.Histogram("op_seconds", LatencyBuckets()).Count(); got != 1 {
		t.Fatalf("total histogram count = %d", got)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	s := tr.StartSpan("x")
	if d := s.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
	if d := tr.End(); d != 0 {
		t.Fatalf("nil trace End = %v", d)
	}
	tr.Record("x", time.Second)
	if tr.Spans() != nil || tr.String() != "" {
		t.Fatal("nil trace not a no-op")
	}
}
