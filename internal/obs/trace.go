package obs

import (
	"strings"
	"sync"
	"time"
)

// Trace times the stages of one logical operation (an HTTP request, a
// ratio search, a training run). Each StartSpan/End pair records the
// stage's duration both into the trace's own record — retrievable with
// Spans or String for a response header or log line — and into a
// registry histogram named <trace>_<stage>_seconds, so per-stage latency
// distributions accumulate across requests without any extra bookkeeping
// at the call sites.
//
// A nil *Trace is valid: every method is a no-op, so instrumented code can
// thread an optional trace through without nil checks at each stage.
type Trace struct {
	reg   *Registry
	name  string
	start time.Time
	total *Histogram

	mu    sync.Mutex
	spans []SpanRecord
}

// SpanRecord is one completed stage of a trace.
type SpanRecord struct {
	Stage    string
	Duration time.Duration
}

// Span is an in-progress stage of a trace.
type Span struct {
	t     *Trace
	stage string
	start time.Time
	h     *Histogram
}

// StartTrace begins a trace named name. The trace's total duration is
// recorded into the histogram <name>_seconds when End is called.
func (r *Registry) StartTrace(name string) *Trace {
	return &Trace{
		reg:   r,
		name:  name,
		start: time.Now(),
		total: r.Histogram(name+"_seconds", LatencyBuckets()),
	}
}

// StartSpan begins timing one stage.
func (t *Trace) StartSpan(stage string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:     t,
		stage: stage,
		start: time.Now(),
		h:     t.reg.Histogram(t.name+"_"+stage+"_seconds", LatencyBuckets()),
	}
}

// End completes the span, recording its duration into the trace and the
// per-stage histogram, and returns the duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, SpanRecord{Stage: s.stage, Duration: d})
	s.t.mu.Unlock()
	return d
}

// Record adds a completed stage whose duration the caller measured itself:
// time summed over many short calls that a Span would list one by one.
func (t *Trace) Record(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.reg.Histogram(t.name+"_"+stage+"_seconds", LatencyBuckets()).Observe(d.Seconds())
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{Stage: stage, Duration: d})
	t.mu.Unlock()
}

// End completes the trace, recording the total elapsed time into the
// <name>_seconds histogram, and returns it.
func (t *Trace) End() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.start)
	t.total.Observe(d.Seconds())
	return d
}

// Spans returns a copy of the completed spans, in completion order.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// String renders the completed spans as "stage1=1.2ms stage2=340µs" — the
// compact form carolserve puts in its X-Carol-Trace response header.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for i, s := range t.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Stage)
		b.WriteByte('=')
		b.WriteString(s.Duration.String())
	}
	return b.String()
}
