// Package zpool holds the codecs' pooled scratch: FreeList, the one bounded
// pool type, and on it the DEFLATE coder state for the lossy compressors'
// final lossless stage. flate.NewWriter allocates ~650 KiB of window and
// hash state and flate.NewReader ~50 KiB per call; in a block pipeline those
// dominated the allocation profile of SZ3 and SPERR. Both directions are
// drawn from free lists and Reset between uses, so steady-state callers pay
// only for their own output. FreeList and Sized are also what sperr, sz3 and
// carolserve build their per-call scratch from.
package zpool

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"carol/internal/safedec"
)

// sliceWriter appends to a byte slice through the io.Writer interface so a
// pooled flate.Writer can emit straight into caller-owned memory.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type deflater struct {
	zw *flate.Writer // built on first use
	sw sliceWriter
}

// deflaters drops the caller's output buffer from every deflater it takes
// back.
var deflaters = NewFreeList(4, func(d *deflater) bool {
	d.sw.b = nil
	return true
})

// AppendDeflate appends data compressed with DEFLATE (BestSpeed, matching
// the historical per-call flate.NewWriter configuration) to dst and returns
// the extended slice.
func AppendDeflate(dst, data []byte) ([]byte, error) {
	d := deflaters.Get()
	defer deflaters.Put(d)
	d.sw.b = dst
	if d.zw == nil {
		var err error
		if d.zw, err = flate.NewWriter(&d.sw, flate.BestSpeed); err != nil {
			return dst, err
		}
	} else {
		d.zw.Reset(&d.sw)
	}
	if _, err := d.zw.Write(data); err != nil {
		return dst, err
	}
	if err := d.zw.Close(); err != nil {
		return dst, err
	}
	return d.sw.b, nil
}

type inflater struct {
	zr io.ReadCloser // built on first use
	br bytes.Reader
}

// inflaters drops the caller's input from every inflater it takes back, or
// the list would keep that input alive, and visible to the next user.
var inflaters = NewFreeList(4, func(i *inflater) bool {
	i.br.Reset(nil)
	return true
})

// Inflate decompresses data, reading at most limit bytes of output. Callers
// enforcing a payload bound pass bound+1 and treat len(out) > bound as a
// decompression bomb, exactly as with io.LimitReader over a fresh
// flate.Reader.
func Inflate(data []byte, limit int64) ([]byte, error) {
	return AppendInflate(nil, data, limit)
}

// AppendInflate is Inflate into caller-owned memory: the output is appended
// to dst, which grows only when its capacity runs out, so a decoder that
// keeps its payload buffer between calls stops allocating here.
func AppendInflate(dst, data []byte, limit int64) ([]byte, error) {
	i := inflaters.Get()
	defer inflaters.Put(i)
	i.br.Reset(data)
	if i.zr == nil {
		i.zr = flate.NewReader(&i.br)
	} else if err := i.zr.(flate.Resetter).Reset(&i.br, nil); err != nil {
		return dst, err
	}
	for end := int64(len(dst)) + limit; int64(len(dst)) < end; {
		if dst == nil {
			dst = make([]byte, 0, 512) // io.ReadAll's first buffer
		} else if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):min(int64(cap(dst)), end)]
		n, err := i.zr.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// InflateTail inflates the DEFLATE tail of a codec stream whose header
// claims n samples, appending to dst (nil for a fresh buffer). A legitimate
// tail can never exceed a few words per grid point, so the output is capped
// at 16 bytes per sample plus 1 MiB of slack (and at lim.MaxAlloc, when
// tighter): a corrupted or hostile stream must not become a decompression
// bomb. Exceeding the cap is an error wrapping safedec.ErrLimit; a DEFLATE
// failure is returned as is, for the caller to wrap as a corrupt stream.
func InflateTail(dst, data []byte, n int64, lim safedec.Limits) ([]byte, error) {
	maxPayload := min(n*16+1<<20, lim.Norm().MaxAlloc)
	payload, err := AppendInflate(dst, data, maxPayload+1)
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	if int64(len(payload)-len(dst)) > maxPayload {
		return nil, fmt.Errorf("payload exceeds %d bytes: %w", maxPayload, safedec.ErrLimit)
	}
	return payload, nil
}

// FreeList is a bounded free list of scratch objects, and the one way this
// module pools memory. Unlike a sync.Pool a collection does not empty it — a
// server collects several times between two calls of a slow codec, and the
// scratch would be rebuilt from nothing on most of them. What it may pin is
// bounded instead: its capacity in objects, each of which passed the owner's
// release function on its way in.
type FreeList[T any] struct {
	free    chan *T
	release func(*T) bool
}

// NewFreeList returns a list that keeps up to n objects. Every Put runs
// release first: it drops the references the caller owns and reports
// whether the object is small enough to keep.
func NewFreeList[T any](n int, release func(*T) bool) *FreeList[T] {
	return &FreeList[T]{free: make(chan *T, n), release: release}
}

// Get returns a pooled *T, or a new zero one.
func (l *FreeList[T]) Get() *T {
	select {
	case x := <-l.free:
		return x
	default:
		return new(T)
	}
}

// Put releases x and returns it to the list, unless release refuses it or
// the list is full.
func (l *FreeList[T]) Put(x *T) {
	if !l.release(x) {
		return
	}
	select {
	case l.free <- x:
	default:
	}
}

// Sized returns s with length n, reusing its array when that is large
// enough. The contents are unspecified: the caller overwrites all of it.
func Sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
