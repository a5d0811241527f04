package compressor

import (
	"time"

	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/safedec"
)

// Instrument wraps c so every Compress/Decompress call records latency,
// throughput and error metrics into the obs.Default registry, labeled by
// codec name:
//
//	codec_compress_seconds{codec="sz3"}      latency histogram
//	codec_decompress_seconds{codec="sz3"}    latency histogram
//	codec_compress_in_bytes_total{...}       uncompressed bytes in
//	codec_compress_out_bytes_total{...}      compressed bytes out
//	codec_errors_total{codec,op}             failed calls
//	codec_decode_reject_total{codec,reason}  hostile-input rejections by
//	                                         safedec class (limit,
//	                                         truncated, corrupt)
//
// The wrapper is transparent (Name and results pass through unchanged)
// and idempotent: instrumenting an already-instrumented codec returns it
// as-is. Metric handles are resolved once at wrap time, so the per-call
// overhead is two clock reads and a few atomic adds — noise against even
// the fastest codec's block loop.
func Instrument(c Codec) Codec {
	if ic, ok := c.(*instrumentedCodec); ok {
		return ic
	}
	name := c.Name()
	return &instrumentedCodec{
		codec:             c,
		compressSeconds:   obs.Default.Histogram(obs.Label("codec_compress_seconds", "codec", name), obs.LatencyBuckets()),
		decompressSeconds: obs.Default.Histogram(obs.Label("codec_decompress_seconds", "codec", name), obs.LatencyBuckets()),
		inBytes:           obs.Default.Counter(obs.Label("codec_compress_in_bytes_total", "codec", name)),
		outBytes:          obs.Default.Counter(obs.Label("codec_compress_out_bytes_total", "codec", name)),
		compressErrors:    obs.Default.Counter(obs.Label("codec_errors_total", "codec", name, "op", "compress")),
		decompressErrors:  obs.Default.Counter(obs.Label("codec_errors_total", "codec", name, "op", "decompress")),
		decodeRejects: map[string]*obs.Counter{
			"limit":     obs.Default.Counter(obs.Label("codec_decode_reject_total", "codec", name, "reason", "limit")),
			"truncated": obs.Default.Counter(obs.Label("codec_decode_reject_total", "codec", name, "reason", "truncated")),
			"corrupt":   obs.Default.Counter(obs.Label("codec_decode_reject_total", "codec", name, "reason", "corrupt")),
		},
	}
}

type instrumentedCodec struct {
	codec             Codec
	compressSeconds   *obs.Histogram
	decompressSeconds *obs.Histogram
	inBytes           *obs.Counter
	outBytes          *obs.Counter
	compressErrors    *obs.Counter
	decompressErrors  *obs.Counter
	decodeRejects     map[string]*obs.Counter
}

// Name implements Codec.
func (ic *instrumentedCodec) Name() string { return ic.codec.Name() }

// Compress implements Codec, timing the underlying call.
func (ic *instrumentedCodec) Compress(f *field.Field, eb float64) ([]byte, error) {
	start := time.Now()
	stream, err := ic.codec.Compress(f, eb)
	ic.compressSeconds.ObserveSince(start)
	if err != nil {
		ic.compressErrors.Inc()
		return nil, err
	}
	ic.inBytes.Add(int64(f.SizeBytes()))
	ic.outBytes.Add(int64(len(stream)))
	return stream, nil
}

// Decompress implements Codec, timing the underlying call.
func (ic *instrumentedCodec) Decompress(stream []byte) (*field.Field, error) {
	start := time.Now()
	f, err := ic.codec.Decompress(stream)
	ic.decompressSeconds.ObserveSince(start)
	return ic.finishDecompress(f, err)
}

// DecompressLimited implements Codec, forwarding the caller's limits to the
// wrapped codec.
func (ic *instrumentedCodec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	start := time.Now()
	f, err := ic.codec.DecompressLimited(stream, lim)
	ic.decompressSeconds.ObserveSince(start)
	return ic.finishDecompress(f, err)
}

func (ic *instrumentedCodec) finishDecompress(f *field.Field, err error) (*field.Field, error) {
	if err != nil {
		ic.decompressErrors.Inc()
		if c, ok := ic.decodeRejects[safedec.Classify(err)]; ok {
			c.Inc()
		}
		return nil, err
	}
	return f, nil
}
