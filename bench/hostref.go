package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a small share of a larger machine, and
// what the other tenants do changes how fast the same code runs here by
// 15-50 % for seconds to tens of minutes at a time (README.md, "The host
// reference"). No estimator over one run's samples can take that out: the
// whole run sits inside the slow spell. So every run also times a fixed
// reference unit of work, interleaved with the measured operations, and the
// timing metrics are reported at the speed of a host on which that unit
// takes refNominal: throughput times the slowdown, latency divided by it.
// The measured values are kept beside them as raw.<name>.

const (
	// refNominal is the reference unit's time on the reference host. It
	// only fixes the scale of the reported numbers (it is what this box does
	// when nothing disturbs it); comparisons never depend on it.
	refNominal = 7500 * time.Microsecond
	// refEvery is the sampling period. The disturbance changes within a
	// second: sampling it once per 1.2 s left twice the spread that sampling
	// every 0.2-0.6 s did.
	refEvery = 200 * time.Millisecond
	// refWalkBytes and refMixRounds size the two parts of the unit: 6.3 ms
	// of walk and 1.2 ms of mix. The mix slows 2.5 times as much as the walk;
	// with 3 ms of it the unit slowed more than the workloads did (across
	// forty runs their times followed the unit's with a slope of 0.6-0.95).
	refWalkBytes = 64 << 20
	refMixRounds = 600
)

type refSample struct {
	at   time.Time
	secs float64
}

// hostRef times the reference unit and keeps the samples of one run.
type hostRef struct {
	walk       []float64
	mixA, mixB []uint32
	sink       float64 // keeps the unit's results alive

	mu      sync.Mutex
	samples []refSample
	last    time.Time
}

func newHostRef() *hostRef {
	h := &hostRef{
		walk: make([]float64, refWalkBytes/8),
		mixA: make([]uint32, 2048),
		mixB: make([]uint32, 2048),
	}
	for i := range h.walk {
		h.walk[i] = float64(i)
	}
	for i := range h.mixA {
		h.mixA[i] = uint32(i * 7919)
	}
	return h
}

// unit is the reference work. The disturbance slows code down by how much it
// asks of a core, not by how much memory it moves (copying, clearing and
// pointer chasing barely notice it; a dependent multiply-add chain neither),
// and the codecs lie between the two parts timed here: a prefetched walk
// over a buffer far larger than the caches, one load and one add per cache
// line, which slows about as much as SZ3 and SZx compression, and four
// independent multiply-shift-xor chains over a table that stays in the
// first-level cache, which slow about as much as ZFP and SZx decompression.
// It allocates nothing, so the collector never runs on its account.
func (h *hostRef) unit() {
	var s float64
	for i := 0; i < len(h.walk); i += 8 {
		s += h.walk[i]
	}
	var s0, s1, s2, s3 uint32
	a, b := h.mixA, h.mixB
	for r := 0; r < refMixRounds; r++ {
		for i := 0; i+3 < len(a); i += 4 {
			a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
			s0 += a0*2654435761 ^ a0>>3
			s1 += a1*2246822519 ^ a1>>5
			s2 += a2*3266489917 ^ a2>>7
			s3 += a3*668265263 ^ a3>>11
			b[i], b[i+1], b[i+2], b[i+3] = s0, s1, s2, s3
		}
	}
	h.sink += s + float64(s0+s1+s2+s3)
}

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID: the processor time of
// the calling thread, to the nanosecond (getrusage counts it in scheduler
// ticks of 4 ms here).
const clockThreadCPU = 3

// threadCPU is the processor time the calling thread has used. The caller
// has locked its goroutine to the thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // a kernel without the clock: samples of zero length are dropped and nothing is rescaled
	}
	return time.Duration(ts.Nano())
}

// sample times the unit once, in processor time of its thread, so that time
// spent waiting for a core (a set-up is busy on all of them) is not counted
// as the host being slow. One goroutine at a time samples: the unit's
// buffers are not shared.
func (h *hostRef) sample() {
	runtime.LockOSThread()
	at := time.Now()
	before := threadCPU()
	h.unit()
	d := threadCPU() - before
	runtime.UnlockOSThread()
	h.mu.Lock()
	if d > 0 {
		h.samples = append(h.samples, refSample{at, d.Seconds()})
	}
	h.last = at
	h.mu.Unlock()
}

// tick samples when refEvery has passed since the last sample. The goroutine
// that runs the measured operations calls it between them, so the unit runs
// while nothing that is being measured does.
func (h *hostRef) tick() {
	h.mu.Lock()
	due := time.Since(h.last) >= refEvery
	h.mu.Unlock()
	if due {
		h.sample()
	}
}

// watch samples every refEvery from a goroutine of its own until the
// returned function is called, which waits for it to end. It is for
// set-ups, which have no gaps to sample in: the unit takes 5 % of one core
// from them.
func (h *hostRef) watch() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		h.sample()
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// slowdown is how much slower than the reference host this one ran between
// from and to: the mean time of the samples started in that span over
// refNominal. With no sample in the span (a kernel without the thread clock)
// the answer is 1: the numbers stay as measured.
func (h *hostRef) slowdown(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range h.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.secs
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / refNominal.Seconds()
}

// atReferenceSpeed rescales the named throughput metrics of m from this
// host's speed to the reference host's and keeps what was measured under
// raw.<name>.
func atReferenceSpeed(m map[string]float64, slowdown float64, names ...string) {
	for _, name := range names {
		m["raw."+name] = m[name]
		m[name] *= slowdown
	}
}
