// Command gopool is a carollint golden fixture for the per-loop rule, which
// main packages and internal/pipeline keep: a go statement in a loop needs a
// worker-count bound or a channel operation in the loop.
package main

import "sync"

func unbounded(items []int, f func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) { // want `goroutine launched per loop iteration with no bound`
			defer wg.Done()
			f(it)
		}(it)
	}
	wg.Wait()
}

func workerPool(workers int, f func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // loop is bounded by the worker count: fine
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func semaphore(items []int, f func(int)) {
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) { // counting-semaphore bound: fine
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f(it)
		}(it)
	}
	wg.Wait()
}

func inputSized(n int, f func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { // want `goroutine launched per loop iteration with no bound`
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

func notALoop(f func()) {
	go f() // a single goroutine outside any loop: fine
}

// result stands in for the pipeline package's per-block outcome.
type result struct{ err error }

// orderedPipeline is the internal/pipeline runOrdered shape: a launcher
// loop that parks a future channel in a bounded buffer and acquires a
// counting semaphore before every go statement. Both channel sends in the
// loop body mark the fan-out bounded.
func orderedPipeline(n, workers int, launch func(i int) func() result, emit func(i int, r result)) {
	futures := make(chan chan result, 2*workers)
	sem := make(chan struct{}, workers)
	go func() {
		for i := 0; i < n; i++ {
			ch := make(chan result, 1)
			futures <- ch
			work := launch(i)
			sem <- struct{}{}
			go func(work func() result, ch chan<- result) { // semaphore-bounded: fine
				defer func() { <-sem }()
				ch <- work()
			}(work, ch)
		}
		close(futures)
	}()
	i := 0
	for ch := range futures {
		emit(i, <-ch)
		i++
	}
}

// futuresWithoutSemaphore still sends each block's future channel into a
// bounded buffer before spawning: goroutine creation is capped by the
// buffer, which the analyzer accepts as a channel-op bound.
func futuresWithoutSemaphore(n, workers int, work func(i int) result) []result {
	futures := make(chan chan result, workers)
	go func() {
		for i := 0; i < n; i++ {
			ch := make(chan result, 1)
			futures <- ch
			go func(i int, ch chan<- result) { // future-buffer bound: fine
				ch <- work(i)
			}(i, ch)
		}
		close(futures)
	}()
	out := make([]result, 0, n)
	for ch := range futures {
		out = append(out, <-ch)
	}
	return out
}

// perBlockSpawn is the pre-pipeline anti-pattern: one goroutine per block
// with collection deferred to a later loop, nothing in the spawn loop
// bounding creation.
func perBlockSpawn(blocks []int, work func(int) result) []result {
	out := make([]result, len(blocks))
	var wg sync.WaitGroup
	for i := range blocks {
		wg.Add(1)
		go func(i int) { // want `goroutine launched per loop iteration with no bound`
			defer wg.Done()
			out[i] = work(blocks[i])
		}(i)
	}
	wg.Wait()
	return out
}

// runOrdered is internal/pipeline's launcher shape: goroutines coordinate
// through channels.
func runOrdered(n int, f func(int)) {
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) { // channel-coordinated: fine
			f(i)
			results <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-results
	}
}

// Calling a bounded launcher in a loop: fine.
func launcherBounded(blocks []int, f func(int)) {
	for range blocks {
		runOrdered(4, f)
	}
}

func main() {}
