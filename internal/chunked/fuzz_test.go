package chunked

import (
	"testing"

	"carol/internal/fuzzseed"
	"carol/internal/pipeline"
	"carol/internal/safedec"
	"carol/internal/szx"
)

// chunkedFuzzSeeds builds the seed corpus for FuzzChunkedDecompress: a valid
// four-chunk legacy CCH1 container, as the deleted CCH1 writer laid it out,
// truncations, and hostile headers.
func chunkedFuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	fld := testField(t, 512, 1, 1)
	var chunks [][]byte
	for _, slab := range pipeline.SplitField(fld, 4) {
		s, err := szx.New().Compress(slab, 1e-2)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, s)
	}
	valid := container(512, 1, 1, 4, chunks...)
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:21],
		container(1<<30, 1<<30, 1<<30, 1, []byte{0}),
		container(4, 4, 4, 1<<17),
	}
}

// TestWriteFuzzCorpus regenerates or validates the checked-in seed corpus.
func TestWriteFuzzCorpus(t *testing.T) {
	fuzzseed.Check(t, ".", map[string][][]byte{"FuzzChunkedDecompress": chunkedFuzzSeeds(t)})
}

// FuzzChunkedDecompress drives arbitrary bytes through the shim's
// Decompress, which is pipeline's in-memory decoder; pipeline's FuzzFrames
// is the target scripts/fuzz.sh runs.
func FuzzChunkedDecompress(f *testing.F) {
	for _, s := range chunkedFuzzSeeds(f) {
		f.Add(s)
	}

	opts := Options{Limits: safedec.Limits{MaxElements: 1 << 18, MaxAlloc: 1 << 24, MaxCount: 64}}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(szx.New(), data, opts)
	})
}
