// Package jobs is the async work queue behind carolgate's 202-Accepted
// path: a large compress or train request is admitted (or refused — the
// queue is bounded and per-tenant quotas stop one client from starving
// the fleet), executed on a bounded worker pool, and its result held for
// the client to poll and stream back.
//
// Admission is the contract: Submit either returns an ID whose job WILL
// run, or an error classifying why not (ErrQueueFull → 503 Retry-After,
// ErrTenantQuota → 429). There is no silent dropping and no unbounded
// queueing — the two failure modes that turn an async API into an outage
// amplifier under load.
//
// Lifecycle: Queued → Running → Done|Failed. Completed jobs stay
// retrievable until evicted: each tenant's finished jobs are capped and
// evicted oldest-first, so an abandoned client leaks a bounded number of
// results, not a process.
//
// The worker pool follows the launcher discipline of internal/pipeline's
// runOrdered: a single dispatcher goroutine pulls admitted jobs in FIFO
// order and acquires a semaphore slot before each `go`, so concurrency is
// bounded by construction. Close stops admission and waits for running
// jobs — the graceful-drain half of the gate's SIGTERM story.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"carol/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Admission errors. Callers map these to HTTP statuses (503 and 429).
var (
	ErrQueueFull   = errors.New("jobs: queue full")
	ErrTenantQuota = errors.New("jobs: tenant quota exceeded")
	ErrClosed      = errors.New("jobs: queue closed")
	// ErrNotFound reports an unknown (or already evicted) job ID.
	ErrNotFound = errors.New("jobs: not found")
)

// MetaFunc is the work a job performs. It runs on a pool goroutine; the
// context is cancelled when the queue shuts down, and implementations
// should return promptly once it is. The returned bytes become the
// streamable result, and the bounded key/value metadata (e.g. which codec
// an adaptive compress chose, or nil) surfaces in Status.Meta once the job
// is done.
type MetaFunc func(ctx context.Context) ([]byte, map[string]string, error)

// Options tunes a Queue. Zero values take defaults.
type Options struct {
	// MaxQueued bounds jobs admitted but not yet running. Default 64.
	MaxQueued int
	// Workers bounds concurrently running jobs. Default 2.
	Workers int
	// TenantQuota bounds one tenant's queued+running jobs. Default 8.
	TenantQuota int
	// RetainPerTenant bounds one tenant's completed-but-unfetched jobs;
	// beyond it the oldest finished job is evicted. Default 32.
	RetainPerTenant int
	// Registry receives queue metrics. Default obs.Default.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxQueued <= 0 {
		o.MaxQueued = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = 8
	}
	if o.RetainPerTenant <= 0 {
		o.RetainPerTenant = 32
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	return o
}

// Status is a point-in-time job snapshot, shaped for the /v1/jobs/{id}
// JSON response.
type Status struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	Kind     string  `json:"kind"`
	State    State   `json:"state"`
	Error    string  `json:"error,omitempty"`
	Queued   int64   `json:"queued_unix_ms"`
	Started  int64   `json:"started_unix_ms,omitempty"`
	Finished int64   `json:"finished_unix_ms,omitempty"`
	Bytes    int     `json:"result_bytes,omitempty"`
	Seconds  float64 `json:"run_seconds,omitempty"`
	// Meta carries the job's result metadata, present once the job is Done
	// and its MetaFunc returned any.
	Meta map[string]string `json:"meta,omitempty"`
}

// job is the internal record. All fields after creation are guarded by
// Queue.mu except result/err which are written exactly once before the
// state moves to Done/Failed (also under mu).
type job struct {
	id     string
	tenant string
	kind   string
	fn     MetaFunc

	state    State
	queued   time.Time
	started  time.Time
	finished time.Time
	result   []byte
	meta     map[string]string
	err      error
	seq      uint64 // admission order, for oldest-first eviction
}

// Queue is the bounded async job queue. Create with New, stop with Close.
type Queue struct {
	opts Options

	mu      sync.Mutex
	byID    map[string]*job
	pending []*job // FIFO admission order
	closed  bool
	seq     uint64

	wake   chan struct{} // dispatcher nudge, capacity 1
	sem    chan struct{} // worker slots
	done   chan struct{} // dispatcher exited
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	depth     *obs.Gauge
	running   *obs.Gauge
	submitted func(result string) *obs.Counter
	completed func(state string) *obs.Counter
	runSecs   *obs.Histogram
}

// New builds and starts a queue.
func New(opts Options) *Queue {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts:    opts,
		byID:    make(map[string]*job),
		wake:    make(chan struct{}, 1),
		sem:     make(chan struct{}, opts.Workers),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		depth:   opts.Registry.Gauge("jobs_queued"),
		running: opts.Registry.Gauge("jobs_running"),
		runSecs: opts.Registry.Histogram("jobs_run_seconds", obs.LatencyBuckets()),
	}
	q.submitted = func(result string) *obs.Counter {
		return opts.Registry.Counter(obs.Label("jobs_submitted_total", "result", result))
	}
	q.completed = func(state string) *obs.Counter {
		return opts.Registry.Counter(obs.Label("jobs_completed_total", "state", state))
	}
	go q.dispatch()
	return q
}

// newID returns a 128-bit random hex job ID. IDs are capability tokens —
// knowing one is what authorizes fetching its result — so they come from
// crypto/rand, not a counter.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Submit admits a job or refuses with a classified error. kind is a
// bounded caller-chosen label ("compress", "train") used in Status only.
func (q *Queue) Submit(tenant, kind string, fn MetaFunc) (string, error) {
	if fn == nil {
		return "", errors.New("jobs: nil func")
	}
	id, err := newID()
	if err != nil {
		return "", err
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.submitted("closed").Inc()
		return "", ErrClosed
	}
	if len(q.pending) >= q.opts.MaxQueued {
		q.mu.Unlock()
		q.submitted("full").Inc()
		return "", fmt.Errorf("%w (%d queued)", ErrQueueFull, q.opts.MaxQueued)
	}
	active := 0
	for _, j := range q.byID {
		if j.tenant == tenant && (j.state == StateQueued || j.state == StateRunning) {
			active++
		}
	}
	if active >= q.opts.TenantQuota {
		q.mu.Unlock()
		q.submitted("quota").Inc()
		return "", fmt.Errorf("%w: tenant %q has %d active jobs", ErrTenantQuota, tenant, active)
	}
	q.seq++
	j := &job{
		id: id, tenant: tenant, kind: kind, fn: fn,
		state: StateQueued, queued: time.Now(), seq: q.seq,
	}
	q.byID[id] = j
	q.pending = append(q.pending, j)
	q.depth.Set(float64(len(q.pending)))
	q.mu.Unlock()
	q.submitted("ok").Inc()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return id, nil
}

// dispatch is the single launcher goroutine: a worker slot is acquired
// BEFORE a job is popped, so a job is either still in pending (where Close
// can fail it) or already Running (where Close waits for it) — there is no
// claimed-but-not-started limbo. FIFO over pending, semaphore acquired
// before each go, so at most Workers jobs run and go-per-job is bounded by
// construction (the runOrdered discipline).
func (q *Queue) dispatch() {
	defer close(q.done)
	for {
		select {
		case q.sem <- struct{}{}: // bounds concurrency before the go statement
		case <-q.ctx.Done():
			return
		}
		j := q.next()
		if j == nil {
			<-q.sem // nothing to run; give the slot back and sleep
			select {
			case <-q.wake:
				continue
			case <-q.ctx.Done():
				return
			}
		}
		q.wg.Add(1)
		go func(j *job) {
			defer q.wg.Done()
			defer func() { <-q.sem }()
			q.run(j)
		}(j)
	}
}

// next pops the oldest pending job and marks it Running in the same
// critical section, or returns nil.
func (q *Queue) next() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	j := q.pending[0]
	q.pending = q.pending[1:]
	q.depth.Set(float64(len(q.pending)))
	j.state = StateRunning
	j.started = time.Now()
	q.running.Add(1)
	return j
}

// run executes one job on a pool goroutine and records its outcome. A
// panicking job is a failed job, not a dead queue.
func (q *Queue) run(j *job) {
	defer q.running.Add(-1)
	var res []byte
	var meta map[string]string
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("jobs: panic: %v", p)
			}
		}()
		res, meta, err = j.fn(q.ctx)
	}()
	q.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		j.result = res
		j.meta = meta
	}
	q.runSecs.Observe(j.finished.Sub(j.started).Seconds())
	q.evictLocked(j.tenant)
	q.mu.Unlock()
	q.completed(string(j.state)).Inc()
}

// fail marks a never-run job failed (shutdown path). Caller does not hold mu.
func (q *Queue) fail(j *job, err error) {
	q.mu.Lock()
	j.state = StateFailed
	j.err = err
	j.finished = time.Now()
	q.mu.Unlock()
	q.completed(string(StateFailed)).Inc()
}

// evictLocked drops the tenant's oldest finished jobs beyond the retain
// cap. Caller holds mu.
func (q *Queue) evictLocked(tenant string) {
	finished := 0
	for _, j := range q.byID {
		if j.tenant == tenant && (j.state == StateDone || j.state == StateFailed) {
			finished++
		}
	}
	// Oldest admission order first. The overflow is at most 1 in steady
	// state, so repeated min-seq selection beats collect-and-sort, and the
	// unique seq makes each pick independent of map iteration order.
	for ; finished > q.opts.RetainPerTenant; finished-- {
		var oldest *job
		for _, j := range q.byID {
			if j.tenant != tenant || (j.state != StateDone && j.state != StateFailed) {
				continue
			}
			if oldest == nil || j.seq < oldest.seq {
				oldest = j
			}
		}
		delete(q.byID, oldest.id)
	}
}

// statusLocked snapshots j. Caller holds mu.
func statusLocked(j *job) Status {
	st := Status{
		ID:     j.id,
		Tenant: j.tenant,
		Kind:   j.kind,
		State:  j.state,
		Queued: j.queued.UnixMilli(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.Started = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UnixMilli()
		if !j.started.IsZero() {
			st.Seconds = j.finished.Sub(j.started).Seconds()
		}
	}
	st.Bytes = len(j.result)
	if len(j.meta) > 0 {
		// Copy so a caller holding the snapshot can never alias job state.
		st.Meta = make(map[string]string, len(j.meta))
		for k, v := range j.meta {
			st.Meta[k] = v
		}
	}
	return st
}

// Get returns a job's status.
func (q *Queue) Get(id string) (Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return statusLocked(j), nil
}

// Result returns a finished job's bytes. ErrNotFound for unknown IDs; a
// (Status, nil-result) pair with Done=false semantics is expressed by the
// returned status — callers answer 409/202 from it.
func (q *Queue) Result(id string) ([]byte, Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	return j.result, statusLocked(j), nil
}

// Depth returns (queued, running) counts.
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.byID {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// Close drains the queue: admission stops immediately (Submit returns
// ErrClosed), still-pending jobs fail with ErrClosed, and running jobs
// get until ctx expires to finish before their context is cancelled.
// Returns ctx.Err() if the drain deadline passed, nil on a clean drain.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return nil
	}
	q.closed = true
	pending := q.pending
	q.pending = nil
	q.depth.Set(0)
	q.mu.Unlock()
	for _, j := range pending {
		q.fail(j, ErrClosed)
	}

	finished := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel the job context (stops stragglers and wakes the dispatcher),
	// then wait for the dispatcher so no goroutine outlives Close.
	q.cancel()
	<-q.done
	if err != nil {
		// Bounded wait for stragglers that ignored cancellation would hang
		// here; they were built from Func contracts that honor ctx.
		<-finished
	}
	return err
}
