package carol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
)

// pwZeroFloor is the magnitude below which samples are treated as exact
// zeros: the log transform cannot represent 0 and scientific data treats
// such values as padding anyway.
const pwZeroFloor = 1e-30

// CompressPointwiseRel compresses with a POINT-WISE relative error bound:
// every reconstructed sample satisfies |v' - v| <= rel*|v|, zeros and signs
// restored exactly (the SZ family's PW_REL mode, realized via the standard
// logarithmic transform on top of any codec: compressing log|v| under an
// absolute bound of log(1+rel) bounds every sample's relative error). rel
// must lie in (0, 1).
//
// Layout: u32 sign/zero bitmap length, bitmap (2 bits per sample:
// zero flag, sign flag), then the named codec's stream over log|v|.
func CompressPointwiseRel(compressorName string, f *Field, rel float64) ([]byte, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	if !(rel > 0) || rel >= 1 {
		return nil, fmt.Errorf("pwrel: relative bound %g outside (0, 1)", rel)
	}
	if err := compressor.ValidateArgs(f, rel); err != nil {
		return nil, err
	}
	logs := field.New(f.Name+"/log", f.Nx, f.Ny, f.Nz)
	bitmap := make([]byte, (f.Len()*2+7)/8)
	setBit := func(i int) { bitmap[i/8] |= 1 << (i % 8) }
	for i, v := range f.Data {
		a := math.Abs(float64(v))
		if a < pwZeroFloor {
			setBit(2 * i) // zero flag
			logs.Data[i] = 0
			continue
		}
		if v < 0 {
			setBit(2*i + 1) // sign flag
		}
		logs.Data[i] = float32(math.Log(a))
	}
	// |log v' - log v| <= eb  =>  v'/v in [e^-eb, e^eb]; choose eb so that
	// e^eb - 1 <= rel (the tighter side).
	eb := math.Log1p(rel)
	// Guard against float32 storage of the log values eating the margin.
	eb *= 0.95
	inner, err := codec.Compress(logs, eb)
	if err != nil {
		return nil, fmt.Errorf("pwrel: inner compress: %w", err)
	}
	out := make([]byte, 4, 4+len(bitmap)+len(inner))
	binary.LittleEndian.PutUint32(out, uint32(len(bitmap)))
	out = append(out, bitmap...)
	return append(out, inner...), nil
}

// DecompressPointwiseRel reverses CompressPointwiseRel.
func DecompressPointwiseRel(compressorName string, stream []byte) (*Field, error) {
	codec, err := codecs.ByName(compressorName)
	if err != nil {
		return nil, err
	}
	if len(stream) < 4 {
		return nil, errors.New("pwrel: short stream")
	}
	bmLen := int(binary.LittleEndian.Uint32(stream))
	if bmLen < 0 || 4+bmLen > len(stream) {
		return nil, errors.New("pwrel: bitmap length out of range")
	}
	bitmap := stream[4 : 4+bmLen]
	logs, err := codec.Decompress(stream[4+bmLen:])
	if err != nil {
		return nil, fmt.Errorf("pwrel: inner decompress: %w", err)
	}
	if (logs.Len()*2+7)/8 != bmLen {
		return nil, errors.New("pwrel: bitmap does not match field size")
	}
	getBit := func(i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }
	f := field.New("pwrel", logs.Nx, logs.Ny, logs.Nz)
	for i, lv := range logs.Data {
		if getBit(2 * i) {
			f.Data[i] = 0
			continue
		}
		v := math.Exp(float64(lv))
		if getBit(2*i + 1) {
			v = -v
		}
		f.Data[i] = float32(v)
	}
	return f, nil
}
