// Package codecs provides the registry tying compressor names to their
// implementations and SECRE surrogates, so frameworks and tools can be
// configured with plain strings ("szx", "zfp", "sz3", "sperr").
package codecs

import (
	"fmt"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/secre"
	"carol/internal/sperr"
	"carol/internal/sz3"
	"carol/internal/szp"
	"carol/internal/szx"
	"carol/internal/zfp"
)

// Names lists the compressors of the paper's evaluation, in its canonical
// order. The experiment harness iterates over exactly these four so its
// tables match the paper's.
var Names = []string{"szx", "zfp", "sz3", "sperr"}

// ExtendedNames additionally includes the extension codecs available via
// ByName (currently szp, the cuSZp-style delta compressor named in the
// paper's experimental setup).
var ExtendedNames = []string{"szx", "zfp", "sz3", "sperr", "szp"}

// HighThroughput reports whether name belongs to the paper's
// "high throughput" group (SZx, ZFP) as opposed to the
// "high compression ratio" group (SZ3, SPERR).
func HighThroughput(name string) bool { return name == "szx" || name == "zfp" }

// ByName returns the full compressor for name, wrapped with the
// compressor.Instrument observability layer so every Compress/Decompress
// issued through the registry shows up in obs.Default's per-codec latency
// and throughput metrics (DESIGN.md §10).
func ByName(name string) (compressor.Codec, error) {
	switch name {
	case "szx":
		return compressor.Instrument(szx.New()), nil
	case "zfp":
		return compressor.Instrument(zfp.New()), nil
	case "sz3":
		return compressor.Instrument(sz3.New()), nil
	case "sperr":
		return compressor.Instrument(sperr.New()), nil
	case "szp":
		return compressor.Instrument(szp.New()), nil
	default:
		return nil, fmt.Errorf("codecs: unknown compressor %q (have %v)", name, ExtendedNames)
	}
}

// SurrogateByName returns the SECRE surrogate estimator for name with
// default sampling options.
func SurrogateByName(name string) (compressor.Estimator, error) {
	return secre.New(name, secre.Options{})
}

// searchSurrogates are the surrogates a fixed-ratio search may root-find on:
// those that can say the ratios asked for. SZx keeps the extrema of up to
// 8191 blocks — every block of a 64^3 field, which makes its estimate the
// exact payload size there; at the default 16 blocks a search on it is
// worse than none. SZ3 sizes its codes by their entropy: SECRE's fixed
// width is flat above ratio 10.7, where the targets are. SPERR and SZP have
// none (DESIGN.md §21).
var searchSurrogates = map[string]*secre.Estimator{
	"szx": mustSurrogate("szx", secre.Options{MinSampledBlocks: 4096}),
	"zfp": mustSurrogate("zfp", secre.Options{}),
	"sz3": mustSurrogate("sz3", secre.Options{EntropySized: true}),
}

func mustSurrogate(name string, opts secre.Options) *secre.Estimator {
	est, err := secre.New(name, opts)
	if err != nil {
		panic(err) // unreachable: every name has a surrogate
	}
	return est
}

// SearchSurrogate binds the named codec's search surrogate to f and returns
// its per-bound estimate for fraz.Options.Surrogate, or nil where the
// search should stay on real probes: another codec, or a field the
// surrogate rejects (the search's first compression then reports why).
func SearchSurrogate(name string, f *field.Field) func(eb float64) (float64, error) {
	est := searchSurrogates[name]
	if est == nil {
		return nil
	}
	b, err := est.Prepare(f)
	if err != nil {
		return nil
	}
	return b.Ratio
}
