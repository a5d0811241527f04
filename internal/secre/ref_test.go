package secre

import (
	"math"

	"carol/internal/field"
	"carol/internal/sperr"
	"carol/internal/sz3"
	"carol/internal/szp"
	"carol/internal/szx"
	"carol/internal/zfp"
)

// refEstimate is the per-(field, bound) estimator as it stood before the
// field-bound form: every sample taken and every block read again for each
// bound. Kept verbatim as the oracle Prepare-then-Ratio is compared against.
func refEstimate(name string, opts Options, f *field.Field, eb float64) float64 {
	o := opts.withDefaults()
	switch name {
	case "szx":
		return refSZx(o, f, eb)
	case "zfp":
		return refZFP(o, f, eb)
	case "sz3":
		return refSZ3(o, f, eb)
	case "szp":
		return refSZP(o, f, eb)
	default:
		return refSPERR(o, f, eb)
	}
}

func refSZP(o Options, f *field.Field, eb float64) float64 {
	totalBlocks := (f.Len() + szp.BlockSize - 1) / szp.BlockSize
	every := szxBlockEvery
	if totalBlocks/every < o.MinSampledBlocks {
		every = totalBlocks / o.MinSampledBlocks
		if every < 1 {
			every = 1
		}
	}
	var bits uint64
	sampled := 0
	prev := int64(0)
	for b := 0; b < totalBlocks; b += every {
		start := b * szp.BlockSize
		end := start + szp.BlockSize
		if end > f.Len() {
			end = f.Len()
		}
		var blockBits uint64
		blockBits, prev = szp.EstimateBlockBits(f.Data[start:end], eb, prev)
		bits += blockBits
		sampled++
	}
	estBits := float64(bits) / float64(sampled) * float64(totalBlocks)
	return ratioFromBits(f, estBits)
}

func refSZx(o Options, f *field.Field, eb float64) float64 {
	totalBlocks := (f.Len() + szx.BlockSize - 1) / szx.BlockSize
	every := szxBlockEvery
	if totalBlocks/every < o.MinSampledBlocks {
		every = totalBlocks / o.MinSampledBlocks
		if every < 1 {
			every = 1
		}
	}
	var bits uint64
	sampled := 0
	for b := 0; b < totalBlocks; b += every {
		start := b * szx.BlockSize
		end := start + szx.BlockSize
		if end > f.Len() {
			end = f.Len()
		}
		bits += szx.EstimateBlockBits(f.Data[start:end], eb)
		sampled++
	}
	estBits := float64(bits) / float64(sampled) * float64(totalBlocks)
	return ratioFromBits(f, estBits)
}

func refZFP(o Options, f *field.Field, eb float64) float64 {
	every := zfpBlockEvery
	for every > 1 {
		_, sampled, _ := zfp.EstimateSampledBits(f, eb, every)
		if sampled >= o.MinSampledBlocks {
			break
		}
		every /= 2
	}
	bits, sampled, total := zfp.EstimateSampledBits(f, eb, every)
	estBits := float64(bits) / float64(sampled) * float64(total)
	return ratioFromBits(f, estBits)
}

func refSZ3(o Options, f *field.Field, eb float64) float64 {
	s := f.SampleStride(o.SZ3Stride)
	codes := sz3.LastLevelCodes(s, eb)
	if len(codes) == 0 {
		return 1
	}
	const center = 32768
	maxDev := 0
	outliers := 0
	for _, c := range codes {
		if c == 0 {
			outliers++
			continue
		}
		d := int(c) - center
		if d < 0 {
			d = -d
		}
		if d > maxDev {
			maxDev = d
		}
	}
	width := 1.0
	if maxDev > 0 {
		width = math.Ceil(math.Log2(float64(2*maxDev+1))) + 1
	}
	bitsPerPoint := width*float64(len(codes)-outliers)/float64(len(codes)) +
		32*float64(outliers)/float64(len(codes))
	estBits := bitsPerPoint * float64(f.Len())
	return ratioFromBits(f, estBits)
}

func refSPERR(o Options, f *field.Field, eb float64) float64 {
	size, every := sperrChunkSize, sperrChunkEvery
	minDim := f.Nx
	if f.Ny > 1 && f.Ny < minDim {
		minDim = f.Ny
	}
	if f.Nz > 1 && f.Nz < minDim {
		minDim = f.Nz
	}
	if size*every > minDim {
		n := (minDim + size*every - 1) / (size * every)
		size = (minDim + every*n - 1) / (every * n)
		if size < 2 {
			size = 2
		}
	}
	s := f.SampleBlocks(field.BlockSpec{Size: size, Every: every})
	if s.Len() < 8 {
		s = f
	}
	bits := sperr.EstimateSampledBits(s, eb)
	estBits := float64(bits) / float64(s.Len()) * float64(f.Len())
	return ratioFromBits(f, estBits)
}
