// Package allow is a carollint fixture full of violations that are all
// suppressed with carol:allow directives — the whole suite must report
// nothing here.
package allow

import "sync"

func trailing(a, b float64) bool {
	return a == b //carol:allow floateq fixture: trailing-directive placement
}

func lineAbove(a, b float32) bool {
	//carol:allow floateq fixture: directive-above placement
	return a != b
}

func multi(m map[string]float64) []float64 {
	var out []float64
	var s float64
	hits := make(map[bool]float64)
	for _, v := range m {
		out = append(out, v) //carol:allow maporder fixture: consumer sorts later
		hits[s == v] += v    //carol:allow maporder,floateq fixture: comma-separated list
	}
	_ = s
	return out
}

func fanOut(items []int, f func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		//carol:allow gopool fixture: item count is bounded by the caller
		go func(it int) {
			defer wg.Done()
			f(it)
		}(it)
	}
	wg.Wait()
}

func spawnHelper(f func()) { go f() }

func helperFanOut(items []int, f func(int)) {
	for _, it := range items {
		it := it
		spawnHelper(func() { f(it) }) //carol:allow gopool fixture: item count is bounded by the caller
	}
}

type pooled struct{ buf []byte }

var pool = sync.Pool{New: func() any { return new(pooled) }}

func allowPoolGet(data []byte) int {
	s := pool.Get().(*pooled) //carol:allow poolreset fixture: scratch is read-only here
	defer pool.Put(s)
	return len(s.buf) + len(data)
}

func allowPoolPut(data []byte) int {
	s := pool.Get().(*pooled)
	s.buf = data
	n := len(s.buf)
	pool.Put(s) //carol:allow poolreset fixture: caller owns the retained buffer
	return n
}
