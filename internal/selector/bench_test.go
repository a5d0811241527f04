package selector

import (
	"testing"

	"carol/internal/compressor"
)

// BenchmarkAutoSelect measures the selection cost at three depths: the
// bare decision core (must stay allocation-free — it runs under the state
// lock), the outcome-observation path (also lock-holding, also
// allocation-free), and the full Select including feature extraction and
// all five SECRE surrogate estimates.
func BenchmarkAutoSelect(b *testing.B) {
	sel, err := New(Config{Seed: 1, Epsilon: 0.05})
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
		sel.mu.Lock()
		defer sel.mu.Unlock()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sel.decideLocked(scores, 7)
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

// TestDecideZeroAlloc pins the allocation-free contract of the lock-held
// hot path independently of the bench gate.
func TestDecideZeroAlloc(t *testing.T) {
	sel, err := New(Config{Seed: 1, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{4.1, 8.9, 6.5, 12.2, 11.7}
	sel.mu.Lock()
	allocs := testing.AllocsPerRun(200, func() {
		_, _ = sel.decideLocked(scores, 7)
	})
	sel.mu.Unlock()
	if allocs != 0 {
		t.Fatalf("decideLocked allocates %.1f per run, want 0", allocs)
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
