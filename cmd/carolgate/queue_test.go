package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func waitState(t *testing.T, q *queue, id string, want jobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := q.get(id)
		if err != nil {
			t.Fatalf("get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := q.get(id)
	t.Fatalf("job %s never reached %s (state %s)", id, want, st.State)
	return jobStatus{}
}

func TestQueueLifecycle(t *testing.T) {
	q := newQueue(64, 2, 8)
	defer q.close(context.Background())

	id, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return []byte("payload"), nil, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitState(t, q, id, jobDone)
	if st.Tenant != "t1" || st.Kind != "compress" || st.Bytes != 7 {
		t.Fatalf("bad status: %+v", st)
	}
	res, st2, err := q.result(id)
	if err != nil || st2.State != jobDone {
		t.Fatalf("result: %v, %+v", err, st2)
	}
	if !bytes.Equal(res, []byte("payload")) {
		t.Fatalf("result = %q", res)
	}
}

func TestQueueFailedJob(t *testing.T) {
	q := newQueue(64, 2, 8)
	defer q.close(context.Background())
	boom := errors.New("boom")
	id, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return nil, nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, q, id, jobFailed)
	if st.Error != "boom" {
		t.Fatalf("Error = %q", st.Error)
	}
}

func TestPanickingJobFailsWithoutKillingQueue(t *testing.T) {
	q := newQueue(64, 2, 8)
	defer q.close(context.Background())
	id, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		panic("job bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, jobFailed)
	// Queue still works afterwards.
	id2, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return []byte("ok"), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id2, jobDone)
}

func TestQueueUnknownID(t *testing.T) {
	q := newQueue(64, 2, 8)
	defer q.close(context.Background())
	if _, err := q.get("nope"); !errors.Is(err, errJobNotFound) {
		t.Fatalf("get unknown = %v, want errJobNotFound", err)
	}
	if _, _, err := q.result("nope"); !errors.Is(err, errJobNotFound) {
		t.Fatalf("result unknown = %v, want errJobNotFound", err)
	}
}

// TestQueueBoundedAdmission: with workers busy and the queue at its bound,
// submit refuses with errQueueFull instead of queueing without bound.
func TestQueueBoundedAdmission(t *testing.T) {
	block := make(chan struct{})
	q := newQueue(2, 1, 100)
	defer func() {
		close(block)
		if err := q.close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	wait := func(ctx context.Context) ([]byte, map[string]string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil, nil
	}
	// One running + fill the queue. The dispatcher may pull one pending job
	// into its claimed slot, so saturate by submitting until refused.
	var refused error
	for i := 0; i < 20; i++ {
		if _, err := q.submit("t1", "compress", wait); err != nil {
			refused = err
			break
		}
	}
	if !errors.Is(refused, errQueueFull) {
		t.Fatalf("saturated submit = %v, want errQueueFull", refused)
	}
}

func TestQueueTenantQuota(t *testing.T) {
	block := make(chan struct{})
	q := newQueue(100, 1, 3)
	defer func() {
		close(block)
		if err := q.close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	wait := func(ctx context.Context) ([]byte, map[string]string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil, nil
	}
	for i := 0; i < 3; i++ {
		if _, err := q.submit("greedy", "compress", wait); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := q.submit("greedy", "compress", wait); !errors.Is(err, errTenantQuota) {
		t.Fatalf("over-quota submit = %v, want errTenantQuota", err)
	}
	// Another tenant is unaffected.
	if _, err := q.submit("polite", "compress", wait); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
}

// TestQueueWorkerBound: at most workers jobs observe each other running.
func TestQueueWorkerBound(t *testing.T) {
	const workers = 3
	q := newQueue(64, workers, 64)
	defer q.close(context.Background())
	var mu sync.Mutex
	cur, peak := 0, 0
	for i := 0; i < 20; i++ {
		_, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			return nil, nil, nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		queued, running := q.counts()
		if queued == 0 && running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained (%d queued, %d running)", queued, running)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent jobs, worker bound is %d", peak, workers)
	}
}

// TestQueueRetentionEviction: finished jobs beyond retainPerTenant are
// evicted oldest-first; newer results stay fetchable.
func TestQueueRetentionEviction(t *testing.T) {
	q := newQueue(64, 1, 64)
	defer q.close(context.Background())
	var ids []string
	for i := 0; i < retainPerTenant+3; i++ {
		payload := []byte(fmt.Sprintf("r%d", i))
		id, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
			return payload, nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, id, jobDone)
		ids = append(ids, id)
	}
	for _, old := range ids[:3] {
		if _, err := q.get(old); !errors.Is(err, errJobNotFound) {
			t.Fatalf("job %s survived eviction: %v", old, err)
		}
	}
	for _, recent := range ids[3:] {
		res, st, err := q.result(recent)
		if err != nil || st.State != jobDone || len(res) == 0 {
			t.Fatalf("recent job %s: %v %+v", recent, err, st)
		}
	}
}

// TestQueueCloseDrains: close stops admission, fails pending jobs, and lets
// running jobs finish inside the deadline.
func TestQueueCloseDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q := newQueue(8, 1, 8)
	runID, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		close(started)
		<-release
		return []byte("late but done"), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pendID, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return []byte("never runs"), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- q.close(ctx)
	}()
	// Admission is refused as soon as close begins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) { return nil, nil, nil }); errors.Is(err, errQueueClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submit never started returning errQueueClosed")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	res, st, err := q.result(runID)
	if err != nil || st.State != jobDone || string(res) != "late but done" {
		t.Fatalf("running job after drain: %v %+v %q", err, st, res)
	}
	if st, err := q.get(pendID); err != nil || st.State != jobFailed {
		t.Fatalf("pending job after drain: %v %+v", err, st)
	}
}

// TestQueueCloseDeadline: a job that honors ctx is cancelled when the
// drain deadline passes, and close reports the deadline error.
func TestQueueCloseDeadline(t *testing.T) {
	started := make(chan struct{})
	q := newQueue(64, 1, 8)
	if _, err := q.submit("t", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		close(started)
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close = %v, want DeadlineExceeded", err)
	}
}

// TestQueueConcurrentSubmitters hammers submit/get/result from many
// goroutines (meaningful under -race).
func TestQueueConcurrentSubmitters(t *testing.T) {
	q := newQueue(256, 4, 256)
	defer q.close(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 20; i++ {
				id, err := q.submit(tenant, "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
					return []byte{byte(i)}, nil, nil
				})
				if err != nil {
					continue // admission refusals are expected under load
				}
				_, _ = q.get(id)
				_, _, _ = q.result(id)
			}
		}(g)
	}
	wg.Wait()
}

// TestQueueSubmitMeta: metadata returned by a jobFunc surfaces in the Done
// status (copied, not aliased) and failed jobs carry none.
func TestQueueSubmitMeta(t *testing.T) {
	q := newQueue(64, 1, 8)
	defer func() {
		if err := q.close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	src := map[string]string{"codec": "sz3"}
	id, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return []byte("payload"), src, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitState(t, q, id, jobDone)
	if st.Meta["codec"] != "sz3" {
		t.Fatalf("meta = %v, want codec=sz3", st.Meta)
	}
	st.Meta["codec"] = "mutated"
	again, err := q.get(id)
	if err != nil {
		t.Fatal(err)
	}
	if again.Meta["codec"] != "sz3" {
		t.Fatal("status meta aliases job state")
	}

	fid, err := q.submit("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return nil, map[string]string{"codec": "szx"}, errors.New("boom")
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitState(t, q, fid, jobFailed); st.Meta != nil {
		t.Fatalf("failed job carries meta %v", st.Meta)
	}

	if _, err := q.submit("t1", "compress", nil); err == nil {
		t.Fatal("nil jobFunc accepted")
	}
}
