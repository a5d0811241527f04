package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/dataset"
	"carol/internal/field"
)

// Per codec, compress and decompress MB/s through the pipeline at one
// worker and at all workers: developer tools with no committed baseline —
// the gated numbers are bench/'s (bench/README.md).

func benchField(b *testing.B) *field.Field {
	b.Helper()
	f, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 64, Ny: 64, Nz: 64})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func workerCases() []struct {
	label   string
	workers int
} {
	all := runtime.GOMAXPROCS(0)
	return []struct {
		label   string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=all(%d)", all), all},
	}
}

func BenchmarkCodecCompress(b *testing.B) {
	f := benchField(b)
	eb := compressor.AbsBound(f, 1e-3)
	for _, name := range codecs.Names {
		inner, err := codecs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, wc := range workerCases() {
			c := New(inner, Options{Workers: wc.workers})
			b.Run(name+"/"+wc.label, func(b *testing.B) {
				b.SetBytes(int64(f.SizeBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.Compress(f, eb); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCodecDecompress(b *testing.B) {
	f := benchField(b)
	eb := compressor.AbsBound(f, 1e-3)
	for _, name := range codecs.Names {
		inner, err := codecs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := New(inner, Options{}).Compress(f, eb)
		if err != nil {
			b.Fatal(err)
		}
		for _, wc := range workerCases() {
			c := New(inner, Options{Workers: wc.workers})
			b.Run(name+"/"+wc.label, func(b *testing.B) {
				b.SetBytes(int64(f.SizeBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.Decompress(stream); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
