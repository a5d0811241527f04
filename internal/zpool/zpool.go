// Package zpool pools DEFLATE coder state for the lossy compressors' final
// lossless stage. flate.NewWriter allocates ~650 KiB of window and hash
// state and flate.NewReader ~50 KiB per call; in a block pipeline those
// dominated the allocation profile of SZ3 and SPERR. Both directions are
// drawn from sync.Pools and Reset between uses, so steady-state callers pay
// only for their own output. FreeList and Sized are what sperr and sz3 build
// their per-call scratch from.
package zpool

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

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
	zw *flate.Writer
	sw sliceWriter
}

var defPool = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		// flate.BestSpeed is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	return &deflater{zw: zw}
}}

// AppendDeflate appends data compressed with DEFLATE (BestSpeed, matching
// the historical per-call flate.NewWriter configuration) to dst and returns
// the extended slice.
func AppendDeflate(dst, data []byte) ([]byte, error) {
	d := defPool.Get().(*deflater)
	defer defPool.Put(d)
	d.sw.b = dst
	d.zw.Reset(&d.sw)
	if _, err := d.zw.Write(data); err != nil {
		d.sw.b = nil
		return dst, err
	}
	if err := d.zw.Close(); err != nil {
		d.sw.b = nil
		return dst, err
	}
	out := d.sw.b
	d.sw.b = nil // do not retain caller memory in the pool
	return out, nil
}

type inflater struct {
	zr io.ReadCloser
	br bytes.Reader
}

var infPool = sync.Pool{New: func() any {
	i := &inflater{}
	i.zr = flate.NewReader(&i.br)
	return i
}}

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
	i := infPool.Get().(*inflater)
	defer func() {
		// Drop the reference to the caller's input before pooling, or the
		// pool keeps data alive (and visible to the next user) across calls.
		i.br.Reset(nil)
		infPool.Put(i)
	}()
	i.br.Reset(data)
	if err := i.zr.(flate.Resetter).Reset(&i.br, nil); err != nil {
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

// FreeList is a bounded free list of scratch objects. Unlike a sync.Pool a
// collection does not empty it — a server collects several times between two
// calls of a slow codec, and the scratch would be rebuilt from nothing on
// most of them. What it may pin is bounded instead: cap(list) objects, and
// the owner decides before Put whether one has grown too large to keep.
type FreeList[T any] chan *T

// Get returns a pooled *T, or a new zero one.
func (l FreeList[T]) Get() *T {
	select {
	case x := <-l:
		return x
	default:
		return new(T)
	}
}

// Put returns x to the list; a full list drops it.
func (l FreeList[T]) Put(x *T) {
	select {
	case l <- x:
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
