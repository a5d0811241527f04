package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop scheduler; tests substitute a
// fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// timing is the life of one open-loop request. Latency counts from the
// instant the request was due, so the wait a stall imposes on the requests
// queued behind it is charged to them; lateness is how far behind its
// schedule the generator sent it.
type timing struct {
	due, sent, done time.Time
}

func (t timing) latency() time.Duration  { return t.done.Sub(t.due) }
func (t timing) lateness() time.Duration { return t.sent.Sub(t.due) }

// runOpenLoop issues requests 0..n-1 on a fixed schedule — request i is due
// at start + i/rate — from at most workers goroutines (one connection
// each). A worker takes the next request in order, sleeps until it is due,
// and calls do. When every worker is busy past a request's due time the
// request goes out late, and both its lateness and its latency show it.
func runOpenLoop(clk clock, start time.Time, rate float64, n, workers int, do func(i int)) []timing {
	out := make([]timing, n)
	interval := time.Duration(float64(time.Second) / rate)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				t := &out[i]
				t.due = start.Add(time.Duration(i) * interval)
				if wait := t.due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				t.sent = clk.Now()
				do(i)
				t.done = clk.Now()
			}
		}()
	}
	wg.Wait()
	return out
}
