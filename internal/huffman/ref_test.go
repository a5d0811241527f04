package huffman

import (
	"fmt"
	"slices"

	"carol/internal/bitstream"
	"carol/internal/safedec"
)

// refAppendDecodeLimited is AppendDecodeLimited as this package shipped it
// up to PR 17, verbatim bar the name and its bit reader, now a local as in
// AppendDecodeLimited: the payload is decoded by the
// canonical walk alone, one ReadBit per stream bit, first match by
// increasing length. It is the oracle for FuzzHuffmanTable — in particular
// for what a malformed (over-subscribed) table decodes to.
func (d *Decoder) refAppendDecodeLimited(dst []uint32, stream []byte, lim safedec.Limits) ([]uint32, error) {
	lim = lim.Norm()
	if len(stream) < 8 {
		return dst, fmt.Errorf("%w: missing bit length: %w", ErrCorrupt, safedec.ErrTruncated)
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(stream[i])
	}
	r := bitstream.NewReader(stream[8:], bits)
	nAlpha, err := r.ReadBits(32)
	if err != nil {
		return dst, fmt.Errorf("%w: header", ErrCorrupt)
	}
	nSyms, err := r.ReadBits(32)
	if err != nil {
		return dst, fmt.Errorf("%w: header", ErrCorrupt)
	}
	if nAlpha == 0 {
		if nSyms != 0 {
			return dst, ErrCorrupt
		}
		if dst == nil {
			dst = []uint32{}
		}
		return dst, nil
	}
	// Each table entry consumes 38 bits and each payload symbol at least
	// one; reject counts the stream cannot possibly back before allocating.
	if nAlpha*38 > r.Remaining() || nSyms > r.Remaining() {
		return dst, fmt.Errorf("%w: implausible symbol counts", ErrCorrupt)
	}
	if err := lim.Alloc("huffman symbols", 4*int64(nSyms)); err != nil {
		return dst, fmt.Errorf("huffman: %w", err)
	}
	d.entries = d.entries[:0]
	for i := uint64(0); i < nAlpha; i++ {
		s, err := r.ReadBits(32)
		if err != nil {
			return dst, fmt.Errorf("%w: table", ErrCorrupt)
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return dst, fmt.Errorf("%w: table", ErrCorrupt)
		}
		if l == 0 || l > maxCodeLen {
			return dst, fmt.Errorf("%w: bad code length %d", ErrCorrupt, l)
		}
		d.entries = append(d.entries, tableEntry{sym: uint32(s), len: uint8(l)})
	}
	// Reject duplicate table symbols: the encoder never emits them, and a
	// canonical table with duplicates has no consistent code assignment.
	d.bySym = append(d.bySym[:0], d.entries...)
	slices.SortFunc(d.bySym, func(a, b tableEntry) int {
		if a.sym < b.sym {
			return -1
		}
		if a.sym > b.sym {
			return 1
		}
		return 0
	})
	for i := 1; i < len(d.bySym); i++ {
		if d.bySym[i].sym == d.bySym[i-1].sym {
			return dst, fmt.Errorf("%w: duplicate table symbol %d", ErrCorrupt, d.bySym[i].sym)
		}
	}
	d.buildTable()

	// Cap the initial allocation: a corrupt header may claim billions of
	// symbols; the slice grows naturally if the payload really is that big.
	capHint := nSyms
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	start := len(dst)
	dst = slices.Grow(dst, int(capHint))
	for uint64(len(dst)-start) < nSyms {
		var code uint64
		var l uint
		found := false
		for l < maxCodeLen {
			b, err := r.ReadBit()
			if err != nil {
				return dst[:start], fmt.Errorf("%w: payload", ErrCorrupt)
			}
			code = code<<1 | uint64(b)
			l++
			if cnt := d.count[l]; cnt > 0 && code >= d.first[l] && code-d.first[l] < uint64(cnt) {
				dst = append(dst, d.entries[d.base[l]+uint32(code-d.first[l])].sym)
				found = true
				break
			}
		}
		if !found {
			return dst[:start], fmt.Errorf("%w: no code matched", ErrCorrupt)
		}
	}
	return dst, nil
}
