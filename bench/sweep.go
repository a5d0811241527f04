package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sweepShares are the fractions of the measured closed-loop capacity the
// sweep offers.
var sweepShares = []float64{0.2, 0.4, 0.6}

// runSweep is the non-gated companion of fleet_mixed: it measures the
// fleet's closed-loop capacity on the workload's own mix, then offers the
// mix open loop at three fixed shares of it and reports latency at each and
// the highest rate that keeps latency_p95_ms within the limit without a
// growing backlog. fleetRate was chosen from its output.
func runSweep(e *env) error {
	st, err := fleetSetup(e)
	if err != nil {
		return err
	}
	err = sweepMeasure(e, st)
	if terr := st.teardown(); err == nil {
		err = terr
	}
	return err
}

func sweepMeasure(e *env, st *fleetState) error {
	// Capacity: nproc connections, each sending its next request as soon as
	// the previous one is answered, for a third of the window.
	var sent atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds / 3 * float64(time.Second)))
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := st.ops[int(sent.Add(1)-1)%len(st.ops)]
				if r := post(st.client, st.gate.url(op.path), op.body); r.err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	capacity := float64(sent.Load()) / time.Since(start).Seconds()
	fmt.Printf("closed-loop capacity on the fleet_mixed mix, %d connections: %.1f req/s (%d sent, %d failed)\n",
		e.nproc, capacity, sent.Load(), failed.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("%d requests failed while measuring capacity", failed.Load())
	}

	fmt.Printf("\n%10s %10s %10s %10s %10s %12s %8s\n", "share", "rate/s", "p50 ms", "p95 ms", "late p95", "within 200ms", "backlog")
	best := 0.0
	n := len(st.ops)
	for _, share := range sweepShares {
		rate := share * capacity
		cycles := int(e.seconds*rate/float64(n) + 0.5)
		if cycles < 1 {
			cycles = 1
		}
		replies, timings, _ := fleetWindow(e, st, rate, cycles)
		var lat, late, lateTail []float64
		within := 0
		for i, t := range timings {
			if replies[i].err != nil {
				return fmt.Errorf("%s at %.1f req/s: %w", st.ops[i%n], rate, replies[i].err)
			}
			lat = append(lat, 1e3*t.latency().Seconds())
			l := 1e3 * t.lateness().Seconds()
			late = append(late, l)
			if i >= len(timings)*3/4 {
				lateTail = append(lateTail, l)
			}
			if t.latency() <= latencyLimit {
				within++
			}
		}
		p95 := percentile(lat, 95)
		// A backlog grows when the last quarter of the requests goes out
		// later than the run as a whole and beyond the 5 ms health limit.
		growing := percentile(lateTail, 95) > 5 && median(lateTail) > 2*median(late)+1
		fmt.Printf("%9.0f%% %10.1f %10.2f %10.2f %10.2f %11.1f%% %8v\n", 100*share, rate, median(lat), p95,
			percentile(late, 95), 100*float64(within)/float64(len(lat)), growing)
		if p95 <= 1e3*latencyLimit.Seconds() && !growing {
			best = rate
		}
	}
	fmt.Printf("\nhighest offered rate with latency_p95_ms <= %v and no growing backlog: %.1f req/s\n", latencyLimit, best)
	fmt.Fprintf(os.Stderr, "fleet_mixed runs at the committed %.0f req/s (%.0f %% of this capacity)\n", fleetRate, 100*fleetRate/capacity)
	return nil
}
