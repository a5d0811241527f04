package selector

import (
	"testing"

	"carol/internal/compressor"
)

// BenchmarkAutoSelect measures the selection cost at three depths: the
// bare decision core and the outcome-observation path (both must stay
// allocation-free), and the full Select with all five surrogate
// estimates.
func BenchmarkAutoSelect(b *testing.B) {
	sel, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	f := smoothGrid("bench", 64, 32, 16, 9)
	eb := compressor.AbsBound(f, 1e-3)
	dec, err := sel.Select(f, eb, 0)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("decide", func(b *testing.B) {
		scores := []float64{4.1, 8.9, 6.5, 12.2, 11.7}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sel.decide(scores, 7)
		}
	})

	b.Run("observe", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel.Observe(dec, 5.5)
		}
	})

	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sel.Select(f, eb, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecideZeroAlloc pins the allocation-free contract of decide and
// Observe independently of the bench gate.
func TestDecideZeroAlloc(t *testing.T) {
	sel, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{4.1, 8.9, 6.5, 12.2, 11.7}
	allocs := testing.AllocsPerRun(200, func() {
		_ = sel.decide(scores, 7)
	})
	if allocs != 0 {
		t.Fatalf("decide allocates %.1f per run, want 0", allocs)
	}
	f := smoothGrid("za", 48, 8, 1, 9)
	d, err := sel.Select(f, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() { sel.Observe(d, 5.5) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per run, want 0", allocs)
	}
}
