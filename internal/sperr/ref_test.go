package sperr

import (
	"fmt"
	"math"
	"sync"

	"carol/internal/bitstream"
	"carol/internal/compressor"
)

// The SPECK coder this package shipped up to PR 19, verbatim bar the names:
// regions carried by value through the lists, a max tree over every node
// (leaves included), the refinement bit from math.Mod, one stream bit per
// call. It is the oracle for FuzzSPECKMatchesReference and the coder tests —
// slow, and the definition of the format.

// region is an axis-aligned box of coefficients.
type region struct{ x, y, z, w, h, d int }

func (r region) leaf() bool { return r.w == 1 && r.h == 1 && r.d == 1 }

// children splits r in half along every dimension of size >= 2, in a
// deterministic order shared by encoder and decoder.
func (r region) children(out []region) []region {
	hw := (r.w + 1) / 2
	hh := (r.h + 1) / 2
	hd := (r.d + 1) / 2
	for dz := 0; dz < 2; dz++ {
		z0, d := r.z, hd
		if dz == 1 {
			if r.d < 2 {
				continue
			}
			z0, d = r.z+hd, r.d-hd
		} else if r.d < 2 {
			d = r.d
		}
		for dy := 0; dy < 2; dy++ {
			y0, h := r.y, hh
			if dy == 1 {
				if r.h < 2 {
					continue
				}
				y0, h = r.y+hh, r.h-hh
			} else if r.h < 2 {
				h = r.h
			}
			for dx := 0; dx < 2; dx++ {
				x0, w := r.x, hw
				if dx == 1 {
					if r.w < 2 {
						continue
					}
					x0, w = r.x+hw, r.w-hw
				} else if r.w < 2 {
					w = r.w
				}
				out = append(out, region{x0, y0, z0, w, h, d})
			}
		}
	}
	return out
}

// qreg pairs a region with its node index in the encoder's max tree, so
// significance lookups during coding are a single slice load.
type qreg struct {
	r    region
	node int32
}

// refEncoder holds the reusable SPECK encoder state: the max tree (stored as
// flat arrays over a breadth-first node enumeration rather than the former
// map[region]float64, which dominated the compressor's allocation profile)
// and the coder's working lists. Values are pooled; a zero refEncoder is
// ready to use.
type refEncoder struct {
	regs     []region  // BFS region of each node (build-time scratch)
	max      []float64 // max |coefficient| of each node's region
	firstKid []int32   // index of first child; children are contiguous
	nKids    []uint8
	queue    []qreg
	lis      []qreg
	lsp      []refLSPEntry
}

var refEncPool = sync.Pool{New: func() any { return &refEncoder{} }}

// buildTree enumerates every region reachable from the root via children()
// breadth-first and computes each one's max |coefficient| bottom-up. The
// node numbering is deterministic (children() order), so the coder can
// carry node indices alongside the regions it splits.
func (e *refEncoder) buildTree(coeffs []float64, nx, ny, nz int) {
	e.regs = append(e.regs[:0], region{0, 0, 0, nx, ny, nz})
	e.firstKid = e.firstKid[:0]
	e.nKids = e.nKids[:0]
	var kids [8]region
	for i := 0; i < len(e.regs); i++ {
		r := e.regs[i]
		if r.leaf() {
			e.firstKid = append(e.firstKid, -1)
			e.nKids = append(e.nKids, 0)
			continue
		}
		cs := r.children(kids[:0])
		e.firstKid = append(e.firstKid, int32(len(e.regs)))
		e.nKids = append(e.nKids, uint8(len(cs)))
		e.regs = append(e.regs, cs...)
	}
	n := len(e.regs)
	if cap(e.max) < n {
		e.max = make([]float64, n)
	} else {
		e.max = e.max[:n]
	}
	// Children always follow their parent in BFS order, so one reverse scan
	// sees every child before its parent.
	for i := n - 1; i >= 0; i-- {
		r := e.regs[i]
		if r.leaf() {
			e.max[i] = math.Abs(coeffs[(r.z*ny+r.y)*nx+r.x])
			continue
		}
		var m float64
		k0 := e.firstKid[i]
		for j := k0; j < k0+int32(e.nKids[i]); j++ {
			if e.max[j] > m {
				m = e.max[j]
			}
		}
		e.max[i] = m
	}
}

// refLSPEntry is a coefficient that has become significant.
type refLSPEntry struct {
	idx  int
	pass int
}

// refEncodeSPECK writes the set-partitioning bit-plane code for coeffs and
// fills recon (len(coeffs), zeroed by the caller) with the per-coefficient
// quantized magnitudes the decoder will arrive at (needed for the outlier
// pass). All coder scratch is pooled; the emitted bits are identical to the
// historical map-based implementation.
func refEncodeSPECK(w *bitstream.Writer, recon, coeffs []float64, nx, ny, nz int, t0 float64, nPasses int) {
	e := refEncPool.Get().(*refEncoder)
	defer refEncPool.Put(e)
	e.buildTree(coeffs, nx, ny, nz)
	e.lis = append(e.lis[:0], qreg{region{0, 0, 0, nx, ny, nz}, 0})
	lsp := e.lsp[:0]
	T := t0
	var kids [8]region
	for pass := 0; pass < nPasses; pass++ {
		// Sorting pass: last pass's insignificant list is this pass's queue;
		// the other buffer collects the still-insignificant sets.
		e.queue, e.lis = e.lis, e.queue[:0]
		queue, lis := e.queue, e.lis
		for qi := 0; qi < len(queue); qi++ {
			qr := queue[qi]
			if e.max[qr.node] >= T {
				w.WriteBit(1)
				if qr.r.leaf() {
					idx := (qr.r.z*ny+qr.r.y)*nx + qr.r.x
					v := coeffs[idx]
					if v < 0 {
						w.WriteBit(1)
					} else {
						w.WriteBit(0)
					}
					lsp = append(lsp, refLSPEntry{idx, pass})
					mag := 1.5 * T
					if v < 0 {
						mag = -mag
					}
					recon[idx] = mag
				} else {
					k0 := e.firstKid[qr.node]
					for ci, c := range qr.r.children(kids[:0]) {
						queue = append(queue, qreg{c, k0 + int32(ci)})
					}
				}
			} else {
				w.WriteBit(0)
				lis = append(lis, qr)
			}
		}
		e.queue, e.lis = queue, lis
		// Refinement pass for previously significant coefficients.
		for _, en := range lsp {
			if en.pass == pass {
				continue
			}
			mag := math.Abs(coeffs[en.idx])
			// Bit of |coef| at the current plane.
			b := uint(0)
			if math.Mod(mag, 2*T) >= T {
				b = 1
			}
			w.WriteBit(b)
			step := T / 2
			if b == 0 {
				step = -step
			}
			if recon[en.idx] < 0 {
				recon[en.idx] -= step
			} else {
				recon[en.idx] += step
			}
		}
		T /= 2
	}
	e.lsp = lsp
}

// refDecoder holds the reusable SPECK decoder working lists. Values are
// pooled; a zero refDecoder is ready to use.
type refDecoder struct {
	queue []region
	lis   []region
	lsp   []refLSPEntry
}

var refDecPool = sync.Pool{New: func() any { return &refDecoder{} }}

// refDecodeSPECK mirrors refEncodeSPECK, reconstructing into recon (length
// nx*ny*nz, zeroed by the caller). budget < 0 decodes the whole stream; a
// non-negative budget stops after that many bits, leaving the partial
// (embedded-prefix) reconstruction — SPERR's progressive-decode property.
func refDecodeSPECK(r *bitstream.Reader, recon []float64, nx, ny, nz int, t0 float64, nPasses int, budget int64) error {
	d := refDecPool.Get().(*refDecoder)
	defer refDecPool.Put(d)
	d.lis = append(d.lis[:0], region{0, 0, 0, nx, ny, nz})
	lsp := d.lsp[:0]
	defer func() { d.lsp = lsp }()
	T := t0
	var kids [8]region
	var consumed int64
	budgetHit := false
	grab := func() (uint, error) {
		if budget >= 0 && consumed >= budget {
			budgetHit = true
			return 0, bitstream.ErrShortStream
		}
		b, err := r.ReadBit()
		if err == nil {
			consumed++
		}
		return b, err
	}
	for pass := 0; pass < nPasses; pass++ {
		d.queue, d.lis = d.lis, d.queue[:0]
		queue, lis := d.queue, d.lis
		for qi := 0; qi < len(queue); qi++ {
			rg := queue[qi]
			bit, err := grab()
			if err != nil {
				d.queue, d.lis = queue, lis
				if budgetHit {
					return nil
				}
				return fmt.Errorf("%w: speck significance: %w", compressor.ErrBadStream, err)
			}
			if bit == 1 {
				if rg.leaf() {
					s, err := grab()
					if err != nil {
						d.queue, d.lis = queue, lis
						if budgetHit {
							return nil
						}
						return fmt.Errorf("%w: speck sign: %w", compressor.ErrBadStream, err)
					}
					idx := (rg.z*ny+rg.y)*nx + rg.x
					mag := 1.5 * T
					if s == 1 {
						mag = -mag
					}
					recon[idx] = mag
					lsp = append(lsp, refLSPEntry{idx, pass})
				} else {
					queue = append(queue, rg.children(kids[:0])...)
				}
			} else {
				lis = append(lis, rg)
			}
		}
		d.queue, d.lis = queue, lis
		for _, e := range lsp {
			if e.pass == pass {
				continue
			}
			b, err := grab()
			if err != nil {
				if budgetHit {
					return nil
				}
				return fmt.Errorf("%w: speck refinement: %w", compressor.ErrBadStream, err)
			}
			step := T / 2
			if b == 0 {
				step = -step
			}
			if recon[e.idx] < 0 {
				recon[e.idx] -= step
			} else {
				recon[e.idx] += step
			}
		}
		T /= 2
	}
	return nil
}
