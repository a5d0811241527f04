package zfp

import (
	"math"
	"testing"

	"carol/internal/field"
	"carol/internal/xrand"
)

// blockDims are fields whose edges are not multiples of 4 in one, two or all
// three dimensions, beside ones that are: the strided row copies and the
// clamped edge path both run, in 1D, 2D and 3D.
var blockDims = [][3]int{
	{1, 1, 1}, {4, 1, 1}, {5, 1, 1}, {18, 1, 1},
	{4, 4, 1}, {5, 1, 3}, {9, 6, 1}, {16, 13, 1},
	{4, 4, 4}, {7, 3, 2}, {8, 8, 5}, {13, 12, 9}, {66, 65, 4},
}

func blockField(nx, ny, nz int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	f := field.New("blocks", nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = float32(rng.Range(-3, 3) * math.Pow(2, float64(rng.Intn(20)-10)))
	}
	return f
}

// TestBlocksMatchReference: gather → block maximum → transform → inverse →
// scatter equals the per-sample routines of ref_test.go bit for bit, block
// by block, on every dims above.
func TestBlocksMatchReference(t *testing.T) {
	for i, d := range blockDims {
		f := blockField(d[0], d[1], d[2], uint64(i))
		sh := shapes[f.Dims()]
		got, want := field.New("got", d[0], d[1], d[2]), field.New("want", d[0], d[1], d[2])
		blk, ref := make([]float64, sh.size), make([]float64, sh.size)
		for bz := 0; bz < f.Nz; bz += sh.sz {
			for by := 0; by < f.Ny; by += sh.sy {
				for bx := 0; bx < f.Nx; bx += sh.sx {
					m := gatherBlock(f, sh, bx, by, bz, blk)
					refGatherBlock(f, sh, bx, by, bz, ref)
					for j := range ref {
						if math.Float64bits(blk[j]) != math.Float64bits(ref[j]) {
							t.Fatalf("dims %v block (%d,%d,%d): gathered[%d] = %v, reference %v", d, bx, by, bz, j, blk[j], ref[j])
						}
					}
					emax, ok := blockEmax(m)
					if refEmax, refOK := refBlockEmax(ref); emax != refEmax || ok != refOK {
						t.Fatalf("dims %v block (%d,%d,%d): emax %d %v, reference %d %v", d, bx, by, bz, emax, ok, refEmax, refOK)
					}
					if !ok {
						continue
					}

					// Forward: fixed point, lift, sequency order, negabinary.
					u, refU := make([]uint32, sh.size), make([]uint32, sh.size)
					transformToNB(blk, sh, emax, u)
					refInts := make([]int32, sh.size)
					scale := math.Ldexp(1, intBits-emax)
					for j, v := range ref {
						refInts[j] = int32(v * scale) // |v| <= 2^emax: the clamps never bind
					}
					refFwdXform(refInts, sh)
					for j, p := range sh.perm {
						refU[j] = int2nb(refInts[p])
					}
					for j := range refU {
						if u[j] != refU[j] {
							t.Fatalf("dims %v block (%d,%d,%d): coefficient %d = %#x, reference %#x", d, bx, by, bz, j, u[j], refU[j])
						}
					}

					// Inverse, from the coefficients with their low bits cut as
					// a coded block's are.
					for j := range u {
						u[j] &^= 0xFFF
					}
					nbToSamples(u, sh, emax, blk)
					for j, p := range sh.perm {
						refInts[p] = nb2int(u[j])
					}
					refInvXform(refInts, sh)
					for j, q := range refInts {
						ref[j] = float64(q) * math.Ldexp(1, emax-intBits)
					}
					scatterBlock(got, sh, bx, by, bz, blk)
					refScatterBlock(want, sh, bx, by, bz, ref)
				}
			}
		}
		for j := range want.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("dims %v: scattered sample %d = %v, reference %v", d, j, got.Data[j], want.Data[j])
			}
		}
	}
}

// TestXformMatchesReference: the constant-stride passes equal the reference
// lifting on random blocks of every dimensionality.
func TestXformMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 300; trial++ {
		sh := shapes[trial%3+1]
		var p [64]int32
		ref := make([]int32, sh.size)
		for i := range ref {
			ref[i] = int32(rng.Uint64()) >> 2
			p[i] = ref[i]
		}
		fwdXform(&p, sh.size)
		refFwdXform(ref, sh)
		for i := range ref {
			if p[i] != ref[i] {
				t.Fatalf("dims %d trial %d: forward[%d] = %d, reference %d", sh.dims, trial, i, p[i], ref[i])
			}
		}
		invXform(&p, sh.size)
		refInvXform(ref, sh)
		for i := range ref {
			if p[i] != ref[i] {
				t.Fatalf("dims %d trial %d: inverse[%d] = %d, reference %d", sh.dims, trial, i, p[i], ref[i])
			}
		}
	}
}
