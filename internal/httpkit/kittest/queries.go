// Package kittest holds the one /v1/compress query table that
// httpkit.ParseCompress, carolserve, and carolgate (whole routing and slab
// fan-out) are all tested against: the four must agree on every row, so the
// serving tiers cannot drift apart on what a valid request is.
package kittest

// Dims is the shape every well-formed row declares, Samples its element
// count: 4 KiB of float32, large enough to cross a 1 KiB gate chunk
// threshold.
const (
	Dims    = "16x8x8"
	Samples = 16 * 8 * 8
)

// CompressQueries maps a /v1/compress query to the status every tier must
// answer it with, given a body of Dims float32 samples.
var CompressQueries = []struct {
	Query  string
	Status int
}{
	{"codec=szx&rel=1e-3&dims=" + Dims, 200},
	{"codec=sz3&abs=0.5&dims=" + Dims, 200},
	{"codec=zfp&rel=1e-2&abs=0.25&dims=" + Dims, 200}, // abs wins
	{"codec=szx&ratio=4&dims=" + Dims, 200},
	{"codec=szx&ratio=4&rel=1e-3&dims=" + Dims, 200}, // ratio wins
	{"codec=szx&rel=1e-3&stream=1&workers=2&dims=" + Dims, 200},
	{"mode=auto&rel=1e-3&dims=" + Dims, 200},
	{"mode=auto&abs=0.5&target=4&dims=" + Dims, 200},
	{"codec=szx&rel=1e-3&key=k1&tenant=t&dims=" + Dims, 200}, // routing params pass through

	// Mutual exclusion and missing parameters.
	{"rel=1e-3&dims=" + Dims, 400},
	{"codec=szx&dims=" + Dims, 400},
	{"mode=banana&codec=szx&rel=1e-3&dims=" + Dims, 400},
	{"mode=auto&codec=szx&rel=1e-3&dims=" + Dims, 400},
	{"mode=auto&ratio=4&dims=" + Dims, 400},
	{"codec=szx&rel=1e-3&target=4&dims=" + Dims, 400},
	{"codec=szx&rel=1e-3&stream=1&workers=0&dims=" + Dims, 400},
	{"codec=szx&rel=1e-3&stream=1&workers=many&dims=" + Dims, 400},

	// Non-finite, non-positive and unparsable values.
	{"codec=szx&rel=NaN&dims=" + Dims, 400},
	{"codec=szx&rel=Inf&dims=" + Dims, 400},
	{"codec=szx&rel=0&dims=" + Dims, 400},
	{"codec=szx&rel=-1e-3&dims=" + Dims, 400},
	{"codec=szx&rel=tiny&dims=" + Dims, 400},
	{"codec=szx&abs=NaN&dims=" + Dims, 400},
	{"codec=szx&abs=%2BInf&dims=" + Dims, 400},
	{"codec=szx&abs=-Inf&dims=" + Dims, 400},
	{"codec=szx&abs=1e999&dims=" + Dims, 400},
	{"codec=szx&ratio=NaN&dims=" + Dims, 400},
	{"codec=szx&ratio=Inf&dims=" + Dims, 400},
	{"codec=szx&ratio=-2&dims=" + Dims, 400},
	{"mode=auto&rel=1e-3&target=NaN&dims=" + Dims, 400},
	{"mode=auto&rel=1e-3&target=Inf&dims=" + Dims, 400},
	{"mode=auto&rel=1e-3&target=-2&dims=" + Dims, 400},
	{"codec=szx&rel=1e-3&abs=NaN&dims=" + Dims, 400}, // a losing bound source is still validated

	// Dims.
	{"codec=szx&rel=1e-3", 400},
	{"codec=szx&rel=1e-3&dims=0x4", 400},
	{"codec=szx&rel=1e-3&dims=axb", 400},
	{"codec=szx&rel=1e-3&dims=1x2x3x4", 400},
	{"codec=szx&rel=1e-3&dims=1048577x1x1", 413},
	{"codec=szx&rel=1e-3&dims=65536x65536x1", 413},
}
