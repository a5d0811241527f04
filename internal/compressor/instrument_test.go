package compressor

import (
	"errors"
	"testing"

	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/safedec"
)

// fakeCodec round-trips a header-only stream and can be forced to fail.
type fakeCodec struct {
	fail bool
}

func (fakeCodec) Name() string { return "fake" }

func (c fakeCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if c.fail {
		return nil, errors.New("boom")
	}
	return AppendHeader(nil, Header{Magic: MagicSZx, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb}), nil
}

func (c fakeCodec) Decompress(stream []byte) (*field.Field, error) {
	if c.fail {
		return nil, errors.New("boom")
	}
	h, _, err := ParseHeader(stream, MagicSZx)
	if err != nil {
		return nil, err
	}
	return field.New("fake", h.Nx, h.Ny, h.Nz), nil
}

func (c fakeCodec) DecompressLimited(stream []byte, _ safedec.Limits) (*field.Field, error) {
	return c.Decompress(stream)
}

func TestInstrumentRecordsMetrics(t *testing.T) {
	f := field.New("t", 8, 1, 1)
	c := Instrument(fakeCodec{})
	if c.Name() != "fake" {
		t.Fatalf("Name = %q", c.Name())
	}

	sec := obs.Default.Histogram(obs.Label("codec_compress_seconds", "codec", "fake"), obs.LatencyBuckets())
	outBytes := obs.Default.Counter(obs.Label("codec_compress_out_bytes_total", "codec", "fake"))
	before, bytesBefore := sec.Count(), outBytes.Value()

	stream, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(stream); err != nil {
		t.Fatal(err)
	}
	if got := sec.Count(); got != before+1 {
		t.Fatalf("compress histogram count %d, want %d", got, before+1)
	}
	if got := outBytes.Value(); got != bytesBefore+int64(len(stream)) {
		t.Fatalf("out bytes %d, want %d", got, bytesBefore+int64(len(stream)))
	}
}

func TestInstrumentCountsErrors(t *testing.T) {
	f := field.New("t", 8, 1, 1)
	c := Instrument(fakeCodec{fail: true})
	errs := obs.Default.Counter(obs.Label("codec_errors_total", "codec", "fake", "op", "compress"))
	before := errs.Value()
	if _, err := c.Compress(f, 1e-3); err == nil {
		t.Fatal("expected error")
	}
	if got := errs.Value(); got != before+1 {
		t.Fatalf("error counter %d, want %d", got, before+1)
	}
}

func TestInstrumentIdempotent(t *testing.T) {
	c := Instrument(fakeCodec{})
	if Instrument(c) != c {
		t.Fatal("double instrumentation wrapped again")
	}
}
