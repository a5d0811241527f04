package zoo

import (
	"fmt"
	"testing"

	"carol/internal/model"
)

// BenchmarkZooTrain measures one full zoo cycle per backend — k-fold CV
// plus the final full-data fit — on a few hundred samples.
func BenchmarkZooTrain(b *testing.B) {
	X, y := synthData(400, 11)
	for _, backend := range model.KnownBackends() {
		b.Run(backend, func(b *testing.B) {
			cfg := smallConfig(0)
			cfg.Backends = []string{backend}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Train(X, y, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Best() == nil {
					b.Fatal("no winner")
				}
			}
		})
	}
}

// BenchmarkZooPredict measures the serving-side batch prediction cost of
// each trained backend (512-row batch), the hot path a published artifact
// pays on every PredictErrorBounds call.
func BenchmarkZooPredict(b *testing.B) {
	X, y := synthData(400, 12)
	cfg := smallConfig(0)
	res, err := Train(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch, _ := synthData(512, 13)
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Err != nil {
			b.Fatalf("backend %s failed: %v", c.Backend, c.Err)
		}
		a, err := c.Artifact("szx", nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Backend, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				preds, err := a.Regressor.PredictBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(preds) != len(batch) {
					b.Fatal(fmt.Errorf("got %d preds", len(preds)))
				}
			}
		})
	}
}
