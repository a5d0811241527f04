// Package gopoollib is a carollint golden fixture: outside main packages and
// internal/pipeline every go statement is a finding, bounded or not, unless
// it carries an allow directive with its reason.
package gopoollib

import "sync"

func notALoop(f func()) {
	go f() // want `go statement outside internal/pipeline`
}

// workerPool is bounded, but compute fans out through pipeline.FanOut.
func workerPool(workers int, f func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // want `go statement outside internal/pipeline`
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// spawner launches an unjoined goroutine per call: its own go statement is
// the finding, so helperFanOut needs no look inside it.
func spawner(f func()) {
	go f() // want `go statement outside internal/pipeline`
}

func helperFanOut(items []int, f func(int)) {
	for _, it := range items {
		spawner(func() { f(it) })
	}
}

// serve is a server lifecycle: one goroutine per server, allowed in place.
func serve(run func() error) chan error {
	done := make(chan error, 1)
	//carol:allow gopool fixture: one serving goroutine per server, joined by the caller
	go func() { done <- run() }()
	return done
}
