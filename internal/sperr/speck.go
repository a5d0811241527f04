package sperr

import (
	"fmt"
	"math"
	"sync"

	"carol/internal/bitstream"
	"carol/internal/compressor"
	"carol/internal/zpool"
)

// maxSamples bounds the grids the coder takes: node ids and the decoder's
// signed coefficient indices are 32 bits wide.
const maxSamples = 1<<31 - 1

// box is an axis-aligned region of the coefficient grid. Boxes exist only
// while a nodeTable is built; the coder sees node ids.
type box struct{ x, y, z, w, h, d int32 }

// nodeTable is the set-partitioning tree of an nx×ny×nz grid, flattened. A
// region splits in half (the larger half first) along every axis it spans
// by two or more, children ordered z-major, until single coefficients are
// left — the partition ref_test.go's region.children defines. A node's id
// is its position in breadth-first order, the root 0, so siblings are
// neighbours and any list the coder keeps in that order reads its per-node
// values front to back. node[id] says what the node is: below nInt the
// number of an interior node, whose children are the ids
// first[k]..first[k+1]-1; from nInt up a leaf, node[id]-nInt being the
// coefficient's index in the grid. The table depends on the dims alone and
// is never written once built: both directions of the coder walk the same
// one, concurrently if they like (tableFor).
type nodeTable struct {
	nx, ny, nz int
	nInt       uint32
	node       []uint32
	first      []uint32
}

// halves splits the interval [lo, lo+n): ceil(n/2) samples, then the rest.
// A unit interval stays whole and its second half is empty.
func halves(lo, n int32) [2][2]int32 {
	h := (n + 1) / 2
	return [2][2]int32{{lo, h}, {lo + h, n - h}}
}

// interiorNodes counts the regions of the tree that hold more than one
// sample. The partition is separable: a region at depth k is a product of
// depth-k intervals of the three axes, and halving [0, n) k times leaves
// min(n, 2^k) intervals of which 2^(k+1)-n are single samples once any are.
func interiorNodes(nx, ny, nz int) int {
	total := 0
	for k := 0; ; k++ {
		regions, units := 1, 1
		for _, n := range [3]int{nx, ny, nz} {
			if n <= 1<<k {
				regions, units = regions*n, units*n
				continue
			}
			regions <<= k
			units *= max(0, 2<<k-n)
		}
		if regions == units {
			return total
		}
		total += regions - units
	}
}

// newNodeTable builds the tree of an nx×ny×nz grid. Every array is sized
// before the first node is written: interiorNodes gives the interior count,
// and the leaves are the samples.
func newNodeTable(nx, ny, nz int) *nodeTable {
	n := nx * ny * nz
	if n > maxSamples {
		panic(fmt.Sprintf("sperr: %dx%dx%d grid exceeds %d samples", nx, ny, nz, maxSamples))
	}
	nInt := interiorNodes(nx, ny, nz)
	t := &nodeTable{nx: nx, ny: ny, nz: nz, nInt: uint32(nInt),
		node: make([]uint32, nInt+n), first: make([]uint32, nInt+1)}
	boxes := make([]box, nInt) // region of each interior node
	if nInt > 0 {
		boxes[0] = box{0, 0, 0, int32(nx), int32(ny), int32(nz)}
	}
	next, nk := uint32(1), uint32(1) // node[0] = 0: interior node 0, or the only sample
	for i, b := range boxes {
		t.first[i] = nk
		for _, zs := range halves(b.z, b.d) {
			for _, ys := range halves(b.y, b.h) {
				for _, xs := range halves(b.x, b.w) {
					switch {
					case xs[1] == 0 || ys[1] == 0 || zs[1] == 0:
						continue
					case xs[1] == 1 && ys[1] == 1 && zs[1] == 1:
						t.node[nk] = t.nInt + uint32((int(zs[0])*ny+int(ys[0]))*nx+int(xs[0]))
					default:
						boxes[next] = box{xs[0], ys[0], zs[0], xs[1], ys[1], zs[1]}
						t.node[nk] = next
						next++
					}
					nk++
				}
			}
		}
	}
	t.first[nInt] = nk
	return t
}

// tableCache holds the trees of the grid shapes seen last, most recent
// first. A shape that falls out is built again when it comes back; one over
// maxPooledSamples is not kept at all.
var tableCache struct {
	sync.Mutex
	recent [4]*nodeTable
}

// tableFor returns the tree of an nx×ny×nz grid, shared and read-only.
func tableFor(nx, ny, nz int) *nodeTable {
	c := &tableCache
	c.Lock()
	for i, t := range c.recent {
		if t != nil && t.nx == nx && t.ny == ny && t.nz == nz {
			copy(c.recent[1:i+1], c.recent[:i])
			c.recent[0] = t
			c.Unlock()
			return t
		}
	}
	c.Unlock()
	t := newNodeTable(nx, ny, nz) // not under the lock: a large grid takes milliseconds
	if nx*ny*nz <= maxPooledSamples {
		c.Lock()
		copy(c.recent[1:], c.recent[:])
		c.recent[0] = t
		c.Unlock()
	}
	return t
}

// encodeSPECK writes the set-partitioning bit-plane code of coeffs (an
// nx×ny×nz grid, thresholds t0, t0/2, … over nPasses >= 1 planes) and, when
// recon is not nil, fills it with the reconstruction the decoder will arrive
// at, which the outlier pass needs and the surrogate does not.
//
// The coder works on integers. With T the last threshold, q = ⌊|c|/T⌋ is
// exact (T is a power of two and q < 2^49, since |c| < 2·t0), and the
// quantities the bit-plane coder asks about are bits of q: a set is
// significant at plane p, |c| >= T·2^s with s = nPasses-1-p, exactly when
// max q >> s != 0, and the refinement bit math.Mod(|c|, 2·T·2^s) >= T·2^s is
// bit s of q. The decoder's level after all planes is (q+½)·T: it starts at
// 1½ thresholds and moves by ±½ threshold per plane, every step exact. A
// leaf's entry of vals (indexed by node id) is q<<1 | sign, an interior
// node's the maximum over its subtree, so one load answers the significance
// test for either.
func (s *scratch) encodeSPECK(w *bitstream.Writer, recon, coeffs []float64, nx, ny, nz int, t0 float64, nPasses int) {
	t := tableFor(nx, ny, nz)
	tLast := math.Ldexp(t0, 1-nPasses)
	s.vals = zpool.Sized(s.vals, len(t.node))
	vals := s.vals
	nSig := 0
	// Backwards, so that a parent, which precedes its children, finds their
	// values in place.
	for id := len(vals) - 1; id >= 0; id-- {
		k := t.node[id]
		if k < t.nInt {
			var m uint64
			for _, v := range vals[t.first[k]:t.first[k+1]] {
				m = max(m, v)
			}
			vals[id] = m
			continue
		}
		c := coeffs[k-t.nInt]
		q := uint64(math.Abs(c) / tLast)
		vals[id] = q << 1
		if c < 0 {
			vals[id] |= 1
		}
		if q != 0 {
			nSig++
		}
		if recon != nil {
			level := 0.0
			if q != 0 {
				level = math.Copysign((float64(q)+0.5)*tLast, c)
			}
			recon[k-t.nInt] = level
		}
	}

	// queue holds the list of insignificant sets at its front and, during a
	// sorting pass, the sets split off in that pass behind it; a set still
	// insignificant is written back over the entries already read. lsp
	// collects the significant coefficients in the order they were found, so
	// the ones to refine at a plane are a prefix.
	s.queue = zpool.Sized(s.queue, len(vals))
	s.lsp = zpool.Sized(s.lsp, nSig)
	queue, lsp := s.queue, s.lsp
	queue[0] = 0
	qn, nl := 1, 0
	var acc uint64 // pending stream bits, the oldest on top
	var na uint
	for pass := 0; pass < nPasses; pass++ {
		shift := uint(nPasses - pass) // this plane's bit of q, above the sign
		refine := lsp[:nl]
		keep := 0
		for qi := 0; qi < qn; qi++ {
			if na > 62 {
				w.WriteBits(acc, na)
				acc, na = 0, 0
			}
			id := queue[qi]
			v := vals[id]
			switch {
			case v>>shift == 0:
				acc, na = acc<<1, na+1
				queue[keep] = id
				keep++
			case t.node[id] >= t.nInt:
				acc, na = acc<<2|2|v&1, na+2
				lsp[nl] = v
				nl++
			default:
				acc, na = acc<<1|1, na+1
				k := t.node[id]
				for c := t.first[k]; c < t.first[k+1]; c++ {
					queue[qn] = c
					qn++
				}
			}
		}
		qn = keep
		for _, v := range refine {
			if na == 64 {
				w.WriteBits(acc, 64)
				acc, na = 0, 0
			}
			acc, na = acc<<1|v>>shift&1, na+1
		}
	}
	w.WriteBits(acc, na)
}

// claim takes every bit of the reader's window.
func claim(r *bitstream.Reader) (win uint64, avail uint) {
	win, avail = r.Peek()
	r.Skip(avail)
	return win, avail
}

// decodeSPECK mirrors encodeSPECK, reconstructing an nx×ny×nz grid into
// recon from the bits r can reach. With partial set, running out of bits is
// how the decode ends — r is capped at a prefix of the stream and recon is
// the coarser reconstruction that prefix describes (SPERR's embedded-coding
// property); otherwise it is a truncated stream. The magnitude of each
// significant coefficient is kept as the integer q of encodeSPECK's comment,
// one more bit per plane, and turned into the level (q+½)·T once, at the
// threshold T of the last plane that touched it.
func (s *scratch) decodeSPECK(r *bitstream.Reader, recon []float64, nx, ny, nz int, t0 float64, nPasses int, partial bool) error {
	t := tableFor(nx, ny, nz)
	clear(recon)
	s.queue = zpool.Sized(s.queue, len(t.node))
	s.lsp = zpool.Sized(s.lsp, len(recon))
	s.lspIdx = zpool.Sized(s.lspIdx, len(recon))
	queue, lsp, lspIdx := s.queue, s.lsp, s.lspIdx
	queue[0] = 0
	qn, nl := 1, 0
	var win uint64 // claimed stream bits, the next one on top
	var avail uint
	// Where the decode stands: the plane, how many of the nBefore
	// coefficients found in earlier planes it has refined, and what the
	// stream ran out in the middle of.
	pass, nBefore, refined, short := 0, 0, 0, ""
decode:
	for ; ; pass++ {
		nBefore, refined = nl, 0
		keep := 0
		for qi := 0; qi < qn; qi++ {
			if avail == 0 {
				if win, avail = claim(r); avail == 0 {
					short = "significance"
					break decode
				}
			}
			bit := win >> 63
			win, avail = win<<1, avail-1
			id := queue[qi]
			k := t.node[id]
			switch {
			case bit == 0:
				queue[keep] = id
				keep++
			case k >= t.nInt:
				if avail == 0 {
					if win, avail = claim(r); avail == 0 {
						short = "sign"
						break decode
					}
				}
				lspIdx[nl] = k - t.nInt | uint32(win>>63)<<31
				win, avail = win<<1, avail-1
				lsp[nl] = 1
				nl++
			default:
				for c := t.first[k]; c < t.first[k+1]; c++ {
					queue[qn] = c
					qn++
				}
			}
		}
		qn = keep
		for refined < nBefore {
			if avail == 0 {
				if win, avail = claim(r); avail == 0 {
					short = "refinement"
					break decode
				}
			}
			run := lsp[refined:min(nBefore, refined+int(avail))]
			for i, q := range run {
				run[i] = q<<1 | win>>63
				win <<= 1
			}
			avail -= uint(len(run))
			refined += len(run)
		}
		if pass == nPasses-1 {
			break
		}
	}
	if short != "" && !partial {
		return fmt.Errorf("%w: speck %s: %w", compressor.ErrBadStream, short, bitstream.ErrShortStream)
	}
	// Coefficients [refined, nBefore) were last touched one plane up.
	tp := math.Ldexp(t0, -pass)
	for i, q := range lsp[:nl] {
		level := (float64(q) + 0.5) * tp
		if i >= refined && i < nBefore {
			level *= 2
		}
		if lspIdx[i]>>31 != 0 {
			level = -level
		}
		recon[lspIdx[i]&^(1<<31)] = level
	}
	return nil
}
