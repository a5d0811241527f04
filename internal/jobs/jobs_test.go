package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func waitState(t *testing.T, q *Queue, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := q.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := q.Get(id)
	t.Fatalf("job %s never reached %s (state %s)", id, want, st.State)
	return Status{}
}

func TestLifecycle(t *testing.T) {
	q := New(Options{Workers: 2})
	defer q.Close(context.Background())

	id, err := q.Submit("t1", "compress", func(ctx context.Context) ([]byte, error) {
		return []byte("payload"), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, q, id, StateDone)
	if st.Tenant != "t1" || st.Kind != "compress" || st.Bytes != 7 {
		t.Fatalf("bad status: %+v", st)
	}
	res, st2, err := q.Result(id)
	if err != nil || st2.State != StateDone {
		t.Fatalf("Result: %v, %+v", err, st2)
	}
	if !bytes.Equal(res, []byte("payload")) {
		t.Fatalf("Result = %q", res)
	}
}

func TestFailedJob(t *testing.T) {
	q := New(Options{})
	defer q.Close(context.Background())
	boom := errors.New("boom")
	id, err := q.Submit("t1", "compress", func(ctx context.Context) ([]byte, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, q, id, StateFailed)
	if st.Error != "boom" {
		t.Fatalf("Error = %q", st.Error)
	}
}

func TestPanickingJobFailsWithoutKillingQueue(t *testing.T) {
	q := New(Options{})
	defer q.Close(context.Background())
	id, err := q.Submit("t1", "compress", func(ctx context.Context) ([]byte, error) {
		panic("job bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id, StateFailed)
	// Queue still works afterwards.
	id2, err := q.Submit("t1", "compress", func(ctx context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, id2, StateDone)
}

func TestUnknownID(t *testing.T) {
	q := New(Options{})
	defer q.Close(context.Background())
	if _, err := q.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, _, err := q.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result unknown = %v, want ErrNotFound", err)
	}
}

// TestBoundedAdmission: with workers busy and the queue at MaxQueued,
// Submit refuses with ErrQueueFull instead of queueing without bound.
func TestBoundedAdmission(t *testing.T) {
	block := make(chan struct{})
	q := New(Options{Workers: 1, MaxQueued: 2, TenantQuota: 100})
	defer func() {
		close(block)
		if err := q.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	wait := func(ctx context.Context) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One running + fill the queue. The dispatcher may pull one pending job
	// into its claimed slot, so saturate by submitting until refused.
	var refused error
	for i := 0; i < 20; i++ {
		if _, err := q.Submit("t1", "compress", wait); err != nil {
			refused = err
			break
		}
	}
	if !errors.Is(refused, ErrQueueFull) {
		t.Fatalf("saturated Submit = %v, want ErrQueueFull", refused)
	}
}

func TestTenantQuota(t *testing.T) {
	block := make(chan struct{})
	q := New(Options{Workers: 1, MaxQueued: 100, TenantQuota: 3})
	defer func() {
		close(block)
		if err := q.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	wait := func(ctx context.Context) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Submit("greedy", "compress", wait); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit("greedy", "compress", wait); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota Submit = %v, want ErrTenantQuota", err)
	}
	// Another tenant is unaffected.
	if _, err := q.Submit("polite", "compress", wait); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
}

// TestWorkerBound: at most Workers jobs observe each other running.
func TestWorkerBound(t *testing.T) {
	const workers = 3
	q := New(Options{Workers: workers, MaxQueued: 64, TenantQuota: 64})
	defer q.Close(context.Background())
	var mu sync.Mutex
	cur, peak := 0, 0
	for i := 0; i < 20; i++ {
		_, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) {
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
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		queued, running := q.Depth()
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

// TestRetentionEviction: finished jobs beyond RetainPerTenant are evicted
// oldest-first; newer results stay fetchable.
func TestRetentionEviction(t *testing.T) {
	q := New(Options{Workers: 1, RetainPerTenant: 2, MaxQueued: 64, TenantQuota: 64})
	defer q.Close(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("r%d", i))
		id, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) {
			return payload, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, id, StateDone)
		ids = append(ids, id)
	}
	for _, old := range ids[:3] {
		if _, err := q.Get(old); !errors.Is(err, ErrNotFound) {
			t.Fatalf("job %s survived eviction: %v", old, err)
		}
	}
	for _, recent := range ids[3:] {
		res, st, err := q.Result(recent)
		if err != nil || st.State != StateDone || len(res) == 0 {
			t.Fatalf("recent job %s: %v %+v", recent, err, st)
		}
	}
}

// TestCloseDrains: Close stops admission, fails pending jobs, and lets
// running jobs finish inside the deadline.
func TestCloseDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q := New(Options{Workers: 1, MaxQueued: 8})
	runID, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) {
		close(started)
		<-release
		return []byte("late but done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pendID, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) {
		return []byte("never runs"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- q.Close(ctx)
	}()
	// Admission is refused as soon as Close begins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) { return nil, nil }); errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started returning ErrClosed")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, st, err := q.Result(runID)
	if err != nil || st.State != StateDone || string(res) != "late but done" {
		t.Fatalf("running job after drain: %v %+v %q", err, st, res)
	}
	if st, err := q.Get(pendID); err != nil || st.State != StateFailed {
		t.Fatalf("pending job after drain: %v %+v", err, st)
	}
}

// TestCloseDeadline: a job that honors ctx is cancelled when the drain
// deadline passes, and Close reports the deadline error.
func TestCloseDeadline(t *testing.T) {
	started := make(chan struct{})
	q := New(Options{Workers: 1})
	if _, err := q.Submit("t", "compress", func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentSubmitters hammers Submit/Get/Result from many goroutines
// (meaningful under -race).
func TestConcurrentSubmitters(t *testing.T) {
	q := New(Options{Workers: 4, MaxQueued: 256, TenantQuota: 256})
	defer q.Close(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < 20; i++ {
				id, err := q.Submit(tenant, "compress", func(ctx context.Context) ([]byte, error) {
					return []byte{byte(i)}, nil
				})
				if err != nil {
					continue // admission refusals are expected under load
				}
				_, _ = q.Get(id)
				_, _, _ = q.Result(id)
			}
		}(g)
	}
	wg.Wait()
}

// TestSubmitMeta: metadata returned by a MetaFunc surfaces in the Done
// status (copied, not aliased) and failed jobs carry none.
func TestSubmitMeta(t *testing.T) {
	q := New(Options{Workers: 1})
	defer func() {
		if err := q.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	src := map[string]string{"codec": "sz3"}
	id, err := q.SubmitMeta("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return []byte("payload"), src, nil
	})
	if err != nil {
		t.Fatalf("SubmitMeta: %v", err)
	}
	st := waitState(t, q, id, StateDone)
	if st.Meta["codec"] != "sz3" {
		t.Fatalf("meta = %v, want codec=sz3", st.Meta)
	}
	st.Meta["codec"] = "mutated"
	again, err := q.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if again.Meta["codec"] != "sz3" {
		t.Fatal("status meta aliases job state")
	}

	fid, err := q.SubmitMeta("t1", "compress", func(ctx context.Context) ([]byte, map[string]string, error) {
		return nil, map[string]string{"codec": "szx"}, errors.New("boom")
	})
	if err != nil {
		t.Fatalf("SubmitMeta: %v", err)
	}
	if st := waitState(t, q, fid, StateFailed); st.Meta != nil {
		t.Fatalf("failed job carries meta %v", st.Meta)
	}

	if _, err := q.SubmitMeta("t1", "compress", nil); err == nil {
		t.Fatal("nil MetaFunc accepted")
	}
}
