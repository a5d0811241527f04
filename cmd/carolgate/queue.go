package main

// The async job queue behind the gate's 202-Accepted path: a large
// compress request is admitted (or refused — the queue is bounded and
// per-tenant quotas stop one client from starving the fleet), executed on
// a bounded worker pool, and its result held for the client to poll and
// stream back.
//
// Admission is the contract: submit either returns an ID whose job WILL
// run, or an error classifying why not (errQueueFull → 503 Retry-After,
// errTenantQuota → 429). There is no silent dropping and no unbounded
// queueing — the two failure modes that turn an async API into an outage
// amplifier under load.
//
// Lifecycle: queued → running → done|failed. Completed jobs stay
// retrievable until evicted: each tenant's finished jobs are capped and
// evicted oldest-first, so an abandoned client leaks a bounded number of
// results, not a process.
//
// The worker pool follows the launcher discipline of internal/pipeline's
// runOrdered: a single dispatcher goroutine pulls admitted jobs in FIFO
// order and acquires a semaphore slot before each `go`, so concurrency is
// bounded by construction. close stops admission and waits for running
// jobs — the graceful-drain half of the gate's SIGTERM story.

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

// jobState is a job's lifecycle position.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// Admission errors; jobAdmissionError maps them to 503 and 429.
var (
	errQueueFull   = errors.New("jobs: queue full")
	errTenantQuota = errors.New("jobs: tenant quota exceeded")
	errQueueClosed = errors.New("jobs: queue closed")
	// errJobNotFound reports an unknown (or already evicted) job ID.
	errJobNotFound = errors.New("jobs: not found")
)

// jobFunc is the work a job performs. It runs on a pool goroutine; the
// context is cancelled when the queue shuts down, and implementations
// should return promptly once it is. The returned bytes become the
// streamable result, and the bounded key/value metadata (e.g. which codec
// an adaptive compress chose, or nil) surfaces in jobStatus.Meta once the job
// is done.
type jobFunc func(ctx context.Context) ([]byte, map[string]string, error)

// jobStatus is a point-in-time job snapshot, shaped for the /v1/jobs/{id}
// JSON response.
type jobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Kind     string   `json:"kind"`
	State    jobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Queued   int64    `json:"queued_unix_ms"`
	Started  int64    `json:"started_unix_ms,omitempty"`
	Finished int64    `json:"finished_unix_ms,omitempty"`
	Bytes    int      `json:"result_bytes,omitempty"`
	Seconds  float64  `json:"run_seconds,omitempty"`
	// Meta carries the job's result metadata, present once the job is Done
	// and its jobFunc returned any.
	Meta map[string]string `json:"meta,omitempty"`
}

// job is the internal record. All fields after creation are guarded by
// queue.mu except result/err which are written exactly once before the
// state moves to Done/Failed (also under mu).
type job struct {
	id     string
	tenant string
	kind   string
	fn     jobFunc

	state    jobState
	queued   time.Time
	started  time.Time
	finished time.Time
	result   []byte
	meta     map[string]string
	err      error
	seq      uint64 // admission order, for oldest-first eviction
}

// queue is the bounded async job queue. Create with newQueue, stop with
// close.
type queue struct {
	maxQueued   int
	tenantQuota int

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

// retainPerTenant bounds one tenant's completed-but-unfetched jobs;
// beyond it the oldest finished job is evicted.
const retainPerTenant = 32

// newQueue builds and starts a queue that admits up to maxQueued jobs not
// yet running, runs up to workers at once, and holds each tenant to
// tenantQuota queued and running jobs. Its metrics go to obs.Default.
func newQueue(maxQueued, workers, tenantQuota int) *queue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &queue{
		maxQueued:   maxQueued,
		tenantQuota: tenantQuota,
		byID:        make(map[string]*job),
		wake:        make(chan struct{}, 1),
		sem:         make(chan struct{}, workers),
		done:        make(chan struct{}),
		ctx:         ctx,
		cancel:      cancel,
		depth:       obs.Default.Gauge("jobs_queued"),
		running:     obs.Default.Gauge("jobs_running"),
		runSecs:     obs.Default.Histogram("jobs_run_seconds", obs.LatencyBuckets()),
	}
	q.submitted = func(result string) *obs.Counter {
		return obs.Default.Counter(obs.Label("jobs_submitted_total", "result", result))
	}
	q.completed = func(state string) *obs.Counter {
		return obs.Default.Counter(obs.Label("jobs_completed_total", "state", state))
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

// submit admits a job or refuses with a classified error. kind is a
// bounded caller-chosen label ("compress", "train") used in jobStatus only.
func (q *queue) submit(tenant, kind string, fn jobFunc) (string, error) {
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
		return "", errQueueClosed
	}
	if len(q.pending) >= q.maxQueued {
		q.mu.Unlock()
		q.submitted("full").Inc()
		return "", fmt.Errorf("%w (%d queued)", errQueueFull, q.maxQueued)
	}
	active := 0
	for _, j := range q.byID {
		if j.tenant == tenant && (j.state == jobQueued || j.state == jobRunning) {
			active++
		}
	}
	if active >= q.tenantQuota {
		q.mu.Unlock()
		q.submitted("quota").Inc()
		return "", fmt.Errorf("%w: tenant %q has %d active jobs", errTenantQuota, tenant, active)
	}
	q.seq++
	j := &job{
		id: id, tenant: tenant, kind: kind, fn: fn,
		state: jobQueued, queued: time.Now(), seq: q.seq,
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
// BEFORE a job is popped, so a job is either still in pending (where close
// can fail it) or already running (where close waits for it) — there is no
// claimed-but-not-started limbo. FIFO over pending, semaphore acquired
// before each go, so at most workers jobs run and go-per-job is bounded by
// construction (the runOrdered discipline).
func (q *queue) dispatch() {
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
		go func(j *job) {
			defer q.wg.Done()
			defer func() { <-q.sem }()
			q.run(j)
		}(j)
	}
}

// next pops the oldest pending job and marks it Running (and counts it on
// wg) in the same critical section, or returns nil.
func (q *queue) next() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	j := q.pending[0]
	q.pending = q.pending[1:]
	q.depth.Set(float64(len(q.pending)))
	j.state = jobRunning
	j.started = time.Now()
	q.running.Add(1)
	// Counted under the lock that pops it, so a close that takes the lock
	// next waits for this job too.
	q.wg.Add(1)
	return j
}

// run executes one job on a pool goroutine and records its outcome. A
// panicking job is a failed job, not a dead queue.
func (q *queue) run(j *job) {
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
		j.state = jobFailed
		j.err = err
	} else {
		j.state = jobDone
		j.result = res
		j.meta = meta
	}
	q.runSecs.Observe(j.finished.Sub(j.started).Seconds())
	q.evictLocked(j.tenant)
	q.mu.Unlock()
	q.completed(string(j.state)).Inc()
}

// fail marks a never-run job failed (shutdown path). Caller does not hold mu.
func (q *queue) fail(j *job, err error) {
	q.mu.Lock()
	j.state = jobFailed
	j.err = err
	j.finished = time.Now()
	q.mu.Unlock()
	q.completed(string(jobFailed)).Inc()
}

// evictLocked drops the tenant's oldest finished jobs beyond the retain
// cap. Caller holds mu.
func (q *queue) evictLocked(tenant string) {
	finished := 0
	for _, j := range q.byID {
		if j.tenant == tenant && (j.state == jobDone || j.state == jobFailed) {
			finished++
		}
	}
	// Oldest admission order first. The overflow is at most 1 in steady
	// state, so repeated min-seq selection beats collect-and-sort, and the
	// unique seq makes each pick independent of map iteration order.
	for ; finished > retainPerTenant; finished-- {
		var oldest *job
		for _, j := range q.byID {
			if j.tenant != tenant || (j.state != jobDone && j.state != jobFailed) {
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
func statusLocked(j *job) jobStatus {
	st := jobStatus{
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

// get returns a job's status.
func (q *queue) get(id string) (jobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return jobStatus{}, errJobNotFound
	}
	return statusLocked(j), nil
}

// result returns a finished job's bytes. errJobNotFound for unknown IDs; a
// (jobStatus, nil-result) pair with Done=false semantics is expressed by the
// returned status — callers answer 409/202 from it.
func (q *queue) result(id string) ([]byte, jobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	if !ok {
		return nil, jobStatus{}, errJobNotFound
	}
	return j.result, statusLocked(j), nil
}

// counts returns the queued and running job counts.
func (q *queue) counts() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.byID {
		switch j.state {
		case jobQueued:
			queued++
		case jobRunning:
			running++
		}
	}
	return queued, running
}

// close drains the queue: admission stops immediately (submit returns
// errQueueClosed), still-pending jobs fail with errQueueClosed, and running jobs
// get until ctx expires to finish before their context is cancelled.
// Returns ctx.Err() if the drain deadline passed, nil on a clean drain.
func (q *queue) close(ctx context.Context) error {
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
		q.fail(j, errQueueClosed)
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
	// then wait for the dispatcher so no goroutine outlives close.
	q.cancel()
	<-q.done
	if err != nil {
		// Bounded wait for stragglers that ignored cancellation would hang
		// here; they were built from jobFunc contracts that honor ctx.
		<-finished
	}
	return err
}
