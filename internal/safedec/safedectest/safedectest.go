// Package safedectest holds the allocation-budget assertion every
// hostile-input test that expects safedec.ErrLimit makes: the decode must
// not only refuse the stream, it must refuse it before allocating from the
// claim. A guard moved below the allocation it exists for still returns
// ErrLimit — only the bytes allocated on the way tell the two apart.
package safedectest

import (
	"errors"
	"runtime"
	"testing"

	"carol/internal/safedec"
)

// slack is what a rejected decode may allocate beyond its limit: headers,
// tables, error strings and pooled scratch, never a claimed-size buffer.
const slack = 1 << 20

// Rejects runs decode once and fails t unless it returns an error wrapping
// safedec.ErrLimit after allocating at most limit+slack bytes, measured as
// the runtime.MemStats.TotalAlloc delta across the call. limit is the byte
// budget the test's Limits grant: MaxAlloc, 4·MaxElements for an element
// cap (a float32 field), 0 for a count cap.
func Rejects(t testing.TB, limit int64, decode func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, safedec.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit)+slack {
		t.Fatalf("rejected decode allocated %d B, want <= %d (limit %d + %d slack)",
			got, uint64(limit)+slack, limit, slack)
	}
}
