package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// files around the layer's public function. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	// Out and Alloc are set on codec calls: the compressed size, and the
	// bytes the process allocated while the call ran.
	Out   int               `json:"out_bytes,omitempty"`
	Alloc uint64            `json:"alloc_bytes,omitempty"`
	Data  map[string]string `json:"data,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It exists only in a
// traced run: untraced runs never call it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, class string, parent, op, bytes int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Class: class, Start: now, Bytes: bytes})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// note attaches one key/value (a response header, a count) to span id.
func (t *tracer) note(id int, key, value string) {
	if value == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Data == nil {
		s.Data = make(map[string]string)
	}
	s.Data[key] = value
}

// run times fn as a child span of parent.
func (t *tracer) run(name string, parent, op, bytes int, fn func()) time.Duration {
	id := t.begin(name, "", parent, op, bytes)
	fn()
	return t.end(id)
}

// codec times one codec call as a child span of parent and also records
// the compressed size fn returns and the bytes allocated meanwhile. The
// memory statistics are read outside the span, so their cost is not in it.
func (t *tracer) codec(name string, parent, op, bytes int, fn func() int) time.Duration {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(name, "", parent, op, bytes)
	out := fn()
	d := t.end(id)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Out, s.Alloc = out, after.TotalAlloc-before.TotalAlloc
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children (two
// slabs compressed at once) are counted once, and a child that sticks out
// of its parent's interval is clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes one span per line to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("trace: encode span %d: %w", s.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

// spanStats aggregates spans by name for the per-layer metrics.
type spanStats struct {
	durs  []float64 // seconds
	bytes int
	out   int
	alloc uint64
	total float64 // seconds
}

func (s *spanStats) mbps() float64 { return mbps(s.bytes, s.total) }

// p50ms is the median span duration in milliseconds.
func (s *spanStats) p50ms() float64 { return 1e3 * median(s.durs) }

// byName groups finished spans by name. Names never seen map to an empty
// stats value, so a layer the workload does not exercise reads as zero.
type spanIndex map[string]*spanStats

func indexSpans(spans []span) spanIndex {
	idx := make(spanIndex)
	for _, s := range spans {
		st := idx[s.Name]
		if st == nil {
			st = &spanStats{}
			idx[s.Name] = st
		}
		d := s.dur().Seconds()
		st.durs = append(st.durs, d)
		st.total += d
		st.bytes += s.Bytes
		st.out += s.Out
		st.alloc += s.Alloc
	}
	return idx
}

// selfP50ms is the median self time, in milliseconds, of the spans called
// name: what the layer itself costs beyond the calls it makes into others.
func selfP50ms(spans []span, name string) float64 {
	self := selfTimes(spans)
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, 1e3*self[s.ID].Seconds())
		}
	}
	return median(ms)
}

func (idx spanIndex) get(name string) *spanStats {
	if st := idx[name]; st != nil {
		return st
	}
	return &spanStats{}
}
