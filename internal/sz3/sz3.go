// Package sz3 reimplements the SZ3 prediction-based error-bounded lossy
// compressor (Liang et al., IEEE TBD 2023) in pure Go. SZ3 is one of the two
// "high compression ratio" compressors of the CAROL evaluation.
//
// The pipeline follows SZ3's interpolation mode: a coarse anchor grid is
// stored losslessly, then successive refinement levels predict the remaining
// points with cubic spline interpolation along each dimension (using
// previously *reconstructed* values, which keeps every point's error within
// the bound), quantize the prediction residuals with a linear quantizer,
// entropy-code the quantization bins with canonical Huffman coding, and
// finally pass the stream through DEFLATE (the stand-in for SZ3's Zstd
// stage; see DESIGN.md; §20 for the run-based traversal).
package sz3

import (
	"encoding/binary"
	"fmt"
	"math"

	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/huffman"
	"carol/internal/safedec"
	"carol/internal/zpool"
)

// quantRadius is half the quantizer's code range; residuals quantizing
// outside ±quantRadius bins are stored as raw outliers (code 0).
const quantRadius = 32768

// Mode selects SZ3's predictor (SZ3 is a modular framework; the paper's
// evaluation uses the interpolation mode, the SZ family's classic predictor
// is Lorenzo).
type Mode byte

const (
	// ModeInterpolation is the multi-level cubic-interpolation predictor.
	ModeInterpolation Mode = 0
	// ModeLorenzo is the first-order Lorenzo predictor in a single raster
	// scan.
	ModeLorenzo Mode = 1
)

// Codec is the SZ3 compressor.
type Codec struct {
	mode Mode
}

// New returns an SZ3 codec in interpolation mode (the paper's setting).
func New() *Codec { return &Codec{mode: ModeInterpolation} }

// NewMode returns an SZ3 codec with an explicit predictor mode. Streams are
// self-describing: Decompress handles either mode regardless of the
// receiver's configuration.
func NewMode(m Mode) *Codec { return &Codec{mode: m} }

// Name implements compressor.Codec.
func (*Codec) Name() string { return "sz3" }

var _ compressor.Codec = (*Codec)(nil)

// scratch is everything one call writes besides its result, sized before
// the traversal (bar the outlier list) and never cleared: both predictors
// write a recon entry before any prediction reads it, and every code is
// written before it is entropy-coded.
type scratch struct {
	recon    []float64 // reconstructed samples, what the predictors read
	codes    []uint32  // one quantization bin per predicted point, in traversal order
	outliers []float32 // the samples stored raw (code 0), in traversal order
	payload  []byte
	dec      huffman.Decoder

	data   []float32 // encoder: the samples
	twoEB  float64
	ci, oi int // codes written or read; decoder: outliers asked for
}

// scratchPool may pin four sets, none of which ever served a field of more
// than maxPooledSamples samples (some 16 bytes of scratch per sample).
var scratchPool = make(zpool.FreeList[scratch], 4)

const maxPooledSamples = 1 << 18

// putScratch returns s to the pool unless a large field, or a hostile
// stream, has grown it.
func putScratch(s *scratch) {
	s.data = nil
	if cap(s.recon) <= maxPooledSamples && cap(s.codes) <= maxPooledSamples && cap(s.payload) <= 16*maxPooledSamples && cap(s.outliers) <= maxPooledSamples {
		scratchPool.Put(s)
	}
}

// begin arms s for a traversal of n samples, of which all but the anchors
// are predicted and own a code.
func (s *scratch) begin(n, nAnchors int, eb float64) {
	s.recon = zpool.Sized(s.recon, n)
	s.codes = zpool.Sized(s.codes, n-nAnchors)
	s.twoEB, s.ci, s.oi = 2*eb, 0, 0
}

// anchorStride returns the first level's stride; the losslessly stored
// anchors live on the grid of twice that.
func anchorStride(nx, ny, nz int) int {
	s := 1
	for 2*s < max(nx, ny, nz) {
		s *= 2
	}
	return s
}

// anchors is the number of losslessly stored samples. In interpolation mode
// they are the grid of spacing 2·anchorStride, which is never less than the
// largest dimension: the one sample at the origin. Lorenzo mode has none.
func (m Mode) anchors() int {
	if m == ModeLorenzo {
		return 0
	}
	return 1
}

// A run is count points of one interpolation phase, step apart in the flat
// array, that share one prediction case: their neighbours along the phase's
// axis sit at ±d and ±3d, and which of them are on the grid was decided
// before the loop.
type runKind int

const (
	runCubic  runKind = iota // all four: (-f(-3) + 9f(-1) + 9f(1) - f(3)) / 16
	runLinear                // f(-3) or f(3) is off the grid: (f(-1) + f(1)) / 2
	runCopy                  // f(1) is off it as well: f(-1)
)

// axisCases describes the targets s, 3s, 5s, … along a dimension of n
// points: how many there are (all), how many have their +s neighbour on the
// grid (lin) and how many their +3s neighbour (cub). The -s neighbour always
// exists and the -3s one for every target but the first, so target k is
// cubic for 1 <= k < cub, else linear for k < lin, else a copy.
func axisCases(n, s int) (cub, lin, all int) {
	under := func(limit int) int { return max(0, limit+s-1) / (2 * s) } // targets below limit
	return under(n - 3*s), under(n - s), under(n)
}

func kindOf(k, cub, lin int) runKind {
	switch {
	case k >= 1 && k < cub:
		return runCubic
	case k < lin:
		return runLinear
	}
	return runCopy
}

// levelRuns hands run every predicted point of the level with stride s in
// the canonical SZ3 order, which encoder and decoder must agree on exactly:
// the x, y, then z interpolation phases, each in z-major scan order. In phase
// X the case changes along the line, which is split into its first target,
// the cubic interior and the linear and copy tails; in Y and Z it is constant
// along x and chosen per row.
func levelRuns(nx, ny, nz, s int, run func(kind runKind, i, step, d, count int)) {
	s2 := 2 * s
	// Phase X: x ≡ s (mod 2s), y ≡ 0 (mod 2s), z ≡ 0 (mod 2s).
	cub, lin, all := axisCases(nx, s)
	for z := 0; z < nz && all > 0; z += s2 {
		for y := 0; y < ny; y += s2 {
			i := (z*ny+y)*nx + s
			run(kindOf(0, cub, lin), i, s2, s, 1)
			if cub > 1 {
				run(runCubic, i+s2, s2, s, cub-1)
			}
			if k := max(cub, 1); k < lin {
				run(runLinear, i+k*s2, s2, s, lin-k)
			}
			if k := max(lin, 1); k < all {
				run(runCopy, i+k*s2, s2, s, all-k)
			}
		}
	}
	row := (nx + s - 1) / s
	// Phase Y: y ≡ s (mod 2s), x ≡ 0 (mod s), z ≡ 0 (mod 2s).
	cub, lin, _ = axisCases(ny, s)
	for z := 0; z < nz; z += s2 {
		for k, y := 0, s; y < ny; k, y = k+1, y+s2 {
			run(kindOf(k, cub, lin), (z*ny+y)*nx, s, s*nx, row)
		}
	}
	// Phase Z: z ≡ s (mod 2s), x ≡ 0 (mod s), y ≡ 0 (mod s).
	cub, lin, _ = axisCases(nz, s)
	for k, z := 0, s; z < nz; k, z = k+1, z+s2 {
		kind := kindOf(k, cub, lin)
		for y := 0; y < ny; y += s {
			run(kind, (z*ny+y)*nx, s, s*nx*ny, row)
		}
	}
}

// bin maps a rounded residual to its quantization code; 0 says it lies
// outside ±quantRadius bins and the sample is stored raw.
func bin(q float64) uint32 {
	if math.Abs(q) < quantRadius {
		return uint32(int32(q) + quantRadius)
	}
	return 0
}

// outlier records sample i as stored raw and returns its reconstruction.
func (s *scratch) outlier(i int) float64 {
	s.outliers = append(s.outliers, s.data[i])
	return float64(s.data[i])
}

// encodeRun predicts, quantizes and reconstructs one run.
func (s *scratch) encodeRun(kind runKind, i, step, d, count int) {
	recon, data, twoEB := s.recon, s.data, s.twoEB
	codes := s.codes[s.ci : s.ci+count]
	s.ci += count
	switch kind {
	case runCubic:
		for j := range codes {
			pred := (-recon[i-3*d] + 9*recon[i-d] + 9*recon[i+d] - recon[i+3*d]) / 16
			q := math.Round((float64(data[i]) - pred) / twoEB)
			if codes[j] = bin(q); codes[j] != 0 {
				recon[i] = pred + q*twoEB
			} else {
				recon[i] = s.outlier(i)
			}
			i += step
		}
	case runLinear:
		for j := range codes {
			pred := (recon[i-d] + recon[i+d]) / 2
			q := math.Round((float64(data[i]) - pred) / twoEB)
			if codes[j] = bin(q); codes[j] != 0 {
				recon[i] = pred + q*twoEB
			} else {
				recon[i] = s.outlier(i)
			}
			i += step
		}
	default:
		for j := range codes {
			pred := recon[i-d]
			q := math.Round((float64(data[i]) - pred) / twoEB)
			if codes[j] = bin(q); codes[j] != 0 {
				recon[i] = pred + q*twoEB
			} else {
				recon[i] = s.outlier(i)
			}
			i += step
		}
	}
}

// nextOutlier is the reconstruction of a point coded 0. Running out is not
// an error here: the decoder compares oi with the list once, at the end.
func (s *scratch) nextOutlier() float64 {
	s.oi++
	if s.oi > len(s.outliers) {
		return 0
	}
	return float64(s.outliers[s.oi-1])
}

// decodeRun reconstructs one run from its codes.
func (s *scratch) decodeRun(kind runKind, i, step, d, count int) {
	recon, twoEB := s.recon, s.twoEB
	codes := s.codes[s.ci : s.ci+count]
	s.ci += count
	switch kind {
	case runCubic:
		for _, c := range codes {
			if c != 0 {
				pred := (-recon[i-3*d] + 9*recon[i-d] + 9*recon[i+d] - recon[i+3*d]) / 16
				recon[i] = pred + float64(int32(c)-quantRadius)*twoEB
			} else {
				recon[i] = s.nextOutlier()
			}
			i += step
		}
	case runLinear:
		for _, c := range codes {
			if c != 0 {
				pred := (recon[i-d] + recon[i+d]) / 2
				recon[i] = pred + float64(int32(c)-quantRadius)*twoEB
			} else {
				recon[i] = s.nextOutlier()
			}
			i += step
		}
	default:
		for _, c := range codes {
			if c != 0 {
				recon[i] = recon[i-d] + float64(int32(c)-quantRadius)*twoEB
			} else {
				recon[i] = s.nextOutlier()
			}
			i += step
		}
	}
}

// surrogateRun is encodeRun for LastLevelCodes: it predicts from the
// samples themselves and keeps nothing but the codes.
func (s *scratch) surrogateRun(kind runKind, i, step, d, count int) {
	data, twoEB := s.data, s.twoEB
	codes := s.codes[s.ci : s.ci+count]
	s.ci += count
	switch kind {
	case runCubic:
		for j := range codes {
			pred := (-float64(data[i-3*d]) + 9*float64(data[i-d]) + 9*float64(data[i+d]) - float64(data[i+3*d])) / 16
			codes[j] = bin(math.Round((float64(data[i]) - pred) / twoEB))
			i += step
		}
	case runLinear:
		for j := range codes {
			pred := (float64(data[i-d]) + float64(data[i+d])) / 2
			codes[j] = bin(math.Round((float64(data[i]) - pred) / twoEB))
			i += step
		}
	default:
		for j := range codes {
			codes[j] = bin(math.Round((float64(data[i]) - float64(data[i-d])) / twoEB))
			i += step
		}
	}
}

// lorenzoPredict computes the first-order Lorenzo prediction for the point
// at (x, y, z) from already-reconstructed raster-scan predecessors.
func lorenzoPredict(recon []float64, nx, ny int, x, y, z int) float64 {
	at := func(dx, dy, dz int) float64 {
		xx, yy, zz := x-dx, y-dy, z-dz
		if xx < 0 || yy < 0 || zz < 0 {
			return 0
		}
		return recon[(zz*ny+yy)*nx+xx]
	}
	return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) +
		at(1, 1, 1) - at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1)
}

// encodeLorenzo is the single raster scan of Lorenzo mode: no anchors (the
// first point predicts from 0), and point i owns code i.
func (s *scratch) encodeLorenzo(nx, ny, nz int) {
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				pred := lorenzoPredict(s.recon, nx, ny, x, y, z)
				q := math.Round((float64(s.data[i]) - pred) / s.twoEB)
				if s.codes[i] = bin(q); s.codes[i] != 0 {
					s.recon[i] = pred + q*s.twoEB
				} else {
					s.recon[i] = s.outlier(i)
				}
				i++
			}
		}
	}
}

func (s *scratch) decodeLorenzo(nx, ny, nz int) {
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if c := s.codes[i]; c != 0 {
					s.recon[i] = lorenzoPredict(s.recon, nx, ny, x, y, z) + float64(int32(c)-quantRadius)*s.twoEB
				} else {
					s.recon[i] = s.nextOutlier()
				}
				i++
			}
		}
	}
}

// encode runs the predictor and the quantizer over f, leaving the codes, the
// raw-stored samples and the decoder's reconstruction in s. The anchor of
// interpolation mode, f.Data[0], is the caller's to store.
func (s *scratch) encode(f *field.Field, eb float64, mode Mode) {
	s.data, s.outliers = f.Data, s.outliers[:0]
	s.begin(len(f.Data), mode.anchors(), eb)
	if mode == ModeLorenzo {
		s.encodeLorenzo(f.Nx, f.Ny, f.Nz)
		return
	}
	s.recon[0] = float64(f.Data[0])
	for st := anchorStride(f.Nx, f.Ny, f.Nz); st >= 1; st /= 2 {
		levelRuns(f.Nx, f.Ny, f.Nz, st, s.encodeRun)
	}
}

// decode reconstructs s.recon from s.codes (one per predicted point, which
// the caller has checked) and s.outliers, and reports whether the traversal
// asked for exactly the outliers there are.
func (s *scratch) decode(nx, ny, nz int, mode Mode, anchor float32) bool {
	if mode == ModeLorenzo {
		s.decodeLorenzo(nx, ny, nz)
	} else {
		s.recon[0] = float64(anchor)
		for st := anchorStride(nx, ny, nz); st >= 1; st /= 2 {
			levelRuns(nx, ny, nz, st, s.decodeRun)
		}
	}
	return s.oi == len(s.outliers)
}

// Compress implements compressor.Codec.
func (c *Codec) Compress(f *field.Field, eb float64) ([]byte, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return nil, err
	}
	s := scratchPool.Get()
	defer putScratch(s)
	s.encode(f, eb, c.mode)

	// Assemble payload: mode byte, anchor count+values, outlier
	// count+values, Huffman stream; then DEFLATE the lot.
	p := append(s.payload[:0], byte(c.mode))
	for _, list := range [2][]float32{f.Data[:c.mode.anchors()], s.outliers} {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(list)))
		for _, v := range list {
			p = binary.LittleEndian.AppendUint32(p, math.Float32bits(v))
		}
	}
	p = huffman.AppendEncode(p, s.codes)
	s.payload = p

	// DEFLATE at BestSpeed stores what it cannot shrink, a few bytes per
	// 64 KiB on top: one allocation holds the stream.
	out := compressor.AppendHeader(make([]byte, 0, 64+len(p)+len(p)>>10), compressor.Header{
		Magic: compressor.MagicSZ3, Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, EB: eb,
	})
	out, err := zpool.AppendDeflate(out, p)
	if err != nil {
		return nil, fmt.Errorf("sz3: flate: %w", err)
	}
	return out, nil
}

// Decompress implements compressor.Codec (default safedec limits).
func (c *Codec) Decompress(stream []byte) (*field.Field, error) {
	return c.DecompressLimited(stream, safedec.Default())
}

// DecompressLimited implements compressor.Codec. The stream must carry
// exactly what the dims call for — the one anchor (none in Lorenzo
// mode), a code per predicted point, an outlier per zero code — so no two
// payloads decode to the same field by way of ignored surplus.
func (*Codec) DecompressLimited(stream []byte, lim safedec.Limits) (*field.Field, error) {
	lim = lim.Norm()
	h, rest, err := compressor.ParseHeaderLimited(stream, compressor.MagicSZ3, lim)
	if err != nil {
		return nil, err
	}
	n := h.Nx * h.Ny * h.Nz
	s := scratchPool.Get()
	defer putScratch(s)
	payload, err := zpool.InflateTail(s.payload[:0], rest, int64(n), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 lossless tail: %w", compressor.ErrBadStream, err)
	}
	s.payload = payload
	sr := safedec.NewReader(payload)
	modeByte, err := sr.U8("sz3 mode")
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 missing mode byte: %w", compressor.ErrBadStream, err)
	}
	mode := Mode(modeByte)
	if mode != ModeInterpolation && mode != ModeLorenzo {
		return nil, fmt.Errorf("%w: sz3 unknown mode %d", compressor.ErrBadStream, mode)
	}
	// The anchor count is fixed by the mode; the outlier count is checked
	// against the field size and the bytes actually present BEFORE the list
	// is sized from it, so a hostile count cannot trigger a multi-GiB
	// allocation.
	nAnchors := mode.anchors()
	var anchor, nOut uint32
	var rawOutliers []byte
	cnt, err := sr.U32("sz3 anchor count")
	if err == nil && int64(cnt) != int64(nAnchors) {
		err = fmt.Errorf("%d anchors, want %d", cnt, nAnchors)
	}
	if err == nil && nAnchors == 1 {
		anchor, err = sr.U32("sz3 anchor")
	}
	if err == nil {
		nOut, err = sr.U32("sz3 outlier count")
	}
	if err == nil && int64(nOut) > int64(n) {
		err = fmt.Errorf("%d outliers in %d samples", nOut, n)
	}
	if err == nil {
		rawOutliers, err = sr.Take("sz3 outliers", int(nOut)*4)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 payload: %w", compressor.ErrBadStream, err)
	}
	s.outliers = zpool.Sized(s.outliers, len(rawOutliers)/4)
	for i := range s.outliers {
		s.outliers[i] = math.Float32frombits(binary.LittleEndian.Uint32(rawOutliers[4*i:]))
	}
	s.codes, err = s.dec.AppendDecodeLimited(s.codes[:0], sr.Rest(), lim)
	if err != nil {
		return nil, fmt.Errorf("%w: sz3 huffman: %w", compressor.ErrBadStream, err)
	}
	if len(s.codes) != n-nAnchors {
		return nil, fmt.Errorf("%w: sz3 %d codes for %d predicted points", compressor.ErrBadStream, len(s.codes), n-nAnchors)
	}
	s.begin(n, nAnchors, h.EB) // the codes are n-nAnchors long already and stay
	if !s.decode(h.Nx, h.Ny, h.Nz, mode, math.Float32frombits(anchor)) {
		return nil, fmt.Errorf("%w: sz3 %d outliers stored, %d coded", compressor.ErrBadStream, len(s.outliers), s.oi)
	}
	f := field.New("sz3", h.Nx, h.Ny, h.Nz)
	for i, v := range s.recon {
		f.Data[i] = float32(v)
	}
	return f, nil
}

// LastLevelCodes runs only the finest interpolation level (stride 1) on f,
// predicting each odd-coordinate point from the *original* even-coordinate
// values, and returns the quantization codes. This is the computation the
// SECRE SZ3 surrogate performs: the most expensive iteration of the
// interpolation cascade, with no reconstruction feedback, no Huffman stage
// and no Zstd stage.
func LastLevelCodes(f *field.Field, eb float64) []uint32 {
	coarse := ((f.Nx + 1) / 2) * ((f.Ny + 1) / 2) * ((f.Nz + 1) / 2)
	s := scratch{data: f.Data, codes: make([]uint32, len(f.Data)-coarse), twoEB: 2 * eb}
	levelRuns(f.Nx, f.Ny, f.Nz, 1, s.surrogateRun)
	return s.codes
}

// residualEvery is the sampling stride of SampledResiduals within a run.
const residualEvery = 8

// SampledResiduals returns data − prediction for every residualEvery-th
// point of every run, on every interpolation level, with the predictions
// taken from the *original* samples: what the quantizer sees at any bound,
// bar the reconstruction feedback, in the codec's own prediction cases and
// order. The SECRE entropy-sized SZ3 surrogate bins them per bound.
func SampledResiduals(f *field.Field) []float32 {
	data := f.Data
	out := make([]float32, 0, len(data)/residualEvery+1024)
	run := func(kind runKind, i, step, d, count int) {
		for j := 0; j < count; j += residualEvery {
			var pred float64
			switch kind {
			case runCubic:
				pred = (-float64(data[i-3*d]) + 9*float64(data[i-d]) + 9*float64(data[i+d]) - float64(data[i+3*d])) / 16
			case runLinear:
				pred = (float64(data[i-d]) + float64(data[i+d])) / 2
			default:
				pred = float64(data[i-d])
			}
			out = append(out, float32(float64(data[i])-pred))
			i += residualEvery * step
		}
	}
	for st := anchorStride(f.Nx, f.Ny, f.Nz); st >= 1; st /= 2 {
		levelRuns(f.Nx, f.Ny, f.Nz, st, run)
	}
	return out
}
