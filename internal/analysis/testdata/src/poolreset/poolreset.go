// Package poolreset is a carollint golden fixture: sync.Pool is named only in
// internal/zpool, whose FreeList runs the owner's release on every Put;
// anywhere else every mention of the type is a finding.
package poolreset

import "sync"

type scratch struct {
	buf []byte
	n   int
}

var pool = sync.Pool{New: func() any { return new(scratch) }} // want `sync.Pool outside internal/zpool`

var fresh = new(sync.Pool) // want `sync.Pool outside internal/zpool`

type owner struct {
	scratch *sync.Pool // want `sync.Pool outside internal/zpool`
}

func drawFrom(p *sync.Pool) *scratch { // want `sync.Pool outside internal/zpool`
	return p.Get().(*scratch)
}

// retains parks a caller slice in a pooled object: the Get and Put name no
// type, so the pool's declaration above is the finding.
func retains(data []byte) int {
	s := pool.Get().(*scratch)
	s.buf = data
	pool.Put(s)
	return len(data)
}
