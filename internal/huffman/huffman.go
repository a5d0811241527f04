// Package huffman implements the canonical Huffman entropy stage used by the
// SZ3 compressor reimplementation. Symbols are non-negative quantization
// codes (uint32); the encoder emits a self-describing stream containing the
// code-length table followed by the packed code words.
//
// The coder state (frequency tables, tree arena, canonical-code tables) is
// held in reusable Encoder/Decoder values so block pipelines can amortize
// the scratch across calls; the package-level Encode/Decode functions draw
// from a sync.Pool and are what single-shot callers use. Streams are
// byte-identical to the historical map-based implementation: the merge tree
// is built under a strict total order on (frequency, symbol), so the emitted
// code-length table — and therefore every canonical code word — is fully
// determined by the input histogram.
package huffman

import (
	"fmt"
	mbits "math/bits"
	"slices"
	"sync"

	"carol/internal/bitstream"
	"carol/internal/safedec"
)

// maxCodeLen caps code lengths so the decoder tables stay small. With
// length-limited rebalancing this supports arbitrarily skewed inputs.
const maxCodeLen = 32

// denseLimit bounds the symbol value up to which the encoder uses dense
// (array-indexed) frequency and code tables. SZ3 quantization codes top out
// at 2*quantRadius (65536), far below this; larger symbol values fall back
// to a map-based histogram so a stray huge symbol cannot force a huge
// allocation.
const denseLimit = 1 << 18

// ErrCorrupt is returned when a stream cannot be decoded. It belongs to the
// safedec taxonomy: errors.Is(ErrCorrupt, safedec.ErrCorrupt) is true.
var ErrCorrupt error = corruptError{}

type corruptError struct{}

func (corruptError) Error() string { return "huffman: corrupt stream" }

func (corruptError) Is(target error) bool { return target == safedec.ErrCorrupt }

// enode is one node of the merge tree, held in the Encoder's arena. The
// first k arena entries are the leaves, in ascending symbol order.
type enode struct {
	freq        uint64
	sym         uint32 // leaf symbol, or min symbol of the subtree
	left, right int32  // arena indices; -1 for leaves
}

// Encoder is a reusable canonical Huffman encoder. The zero value is ready
// to use; Encode may be called repeatedly and reuses all internal scratch.
// An Encoder is not safe for concurrent use — pool instances instead (the
// package-level Encode does exactly that).
type Encoder struct {
	// Dense per-symbol tables, sized maxSym+1 when maxSym < denseLimit and
	// sparsely cleared after every call so steady-state reuse allocates
	// nothing.
	freq []uint64
	lut  []uint64 // code<<6 | length, valid only for this call's symbols

	// Sparse fallback for symbol values >= denseLimit.
	freqMap map[uint32]uint64
	lutMap  map[uint32]uint64

	// dense records which histogram/lookup path the current call uses.
	dense bool

	syms  []uint32 // distinct symbols, ascending
	freqs []uint64 // aligned to syms
	lens  []uint8  // aligned to syms
	codes []uint64 // aligned to syms
	order []int32  // syms indices sorted by (length, symbol)

	nodes []enode
	heap  []int32
	stack []int32 // iterative tree walk: packed (node<<8 | depth)

	w bitstream.Writer
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Reset releases the Encoder's retained scratch so the memory can be
// reclaimed. It is never required for correctness — Encode cleans its state
// after every call — but lets long-lived holders drop a large working set.
func (e *Encoder) Reset() { *e = Encoder{} }

// Encode compresses the symbol sequence. The output stream embeds the code
// table, so Decode needs no side information.
func (e *Encoder) Encode(symbols []uint32) []byte {
	return e.AppendEncode(nil, symbols)
}

// AppendEncode appends the encoded stream for symbols to dst and returns
// the extended slice. With a pre-sized dst this performs no allocations
// beyond dst's own growth.
func (e *Encoder) AppendEncode(dst []byte, symbols []uint32) []byte {
	e.histogram(symbols)
	e.buildLengths()
	e.assignCodes()

	e.w.Reset()
	w := &e.w
	// Header: #symbols in alphabet, #symbols in payload.
	w.WriteBits(uint64(len(e.syms)), 32)
	w.WriteBits(uint64(len(symbols)), 32)
	for i, s := range e.syms {
		w.WriteBits(uint64(s), 32)
		w.WriteBits(uint64(e.lens[i]), 6)
	}
	// Publish the per-symbol (code, length) lookup, then stream the payload.
	for i, s := range e.syms {
		packed := e.codes[i]<<6 | uint64(e.lens[i])
		if e.dense {
			e.lut[s] = packed
		} else {
			e.lutMap[s] = packed
		}
	}
	if e.dense {
		for _, s := range symbols {
			packed := e.lut[s]
			w.WriteBits(packed>>6, uint(packed&63))
		}
	} else {
		for _, s := range symbols {
			packed := e.lutMap[s]
			w.WriteBits(packed>>6, uint(packed&63))
		}
	}

	// Prefix the bit length so Decode can cap its reader.
	bits := w.BitLen()
	var pre [8]byte
	for i := 0; i < 8; i++ {
		pre[i] = byte(bits >> (56 - 8*i))
	}
	dst = append(dst, pre[:]...)
	dst = w.AppendTo(dst)
	e.clean()
	return dst
}

// histogram fills syms (distinct, ascending) and freqs from symbols.
func (e *Encoder) histogram(symbols []uint32) {
	e.syms = e.syms[:0]
	var maxSym uint32
	for _, s := range symbols {
		if s > maxSym {
			maxSym = s
		}
	}
	if len(symbols) > 0 && maxSym < denseLimit {
		e.dense = true
		need := int(maxSym) + 1
		if len(e.freq) < need {
			e.freq = make([]uint64, need)
			e.lut = make([]uint64, need)
		}
		for _, s := range symbols {
			if e.freq[s] == 0 {
				e.syms = append(e.syms, s)
			}
			e.freq[s]++
		}
		slices.Sort(e.syms)
		e.freqs = e.freqs[:0]
		for _, s := range e.syms {
			e.freqs = append(e.freqs, e.freq[s])
		}
		return
	}
	// Sparse fallback (huge symbol values, or empty input).
	e.dense = false
	if e.freqMap == nil {
		e.freqMap = make(map[uint32]uint64)
		e.lutMap = make(map[uint32]uint64)
	}
	for _, s := range symbols {
		if e.freqMap[s] == 0 {
			e.syms = append(e.syms, s)
		}
		e.freqMap[s]++
	}
	slices.Sort(e.syms)
	e.freqs = e.freqs[:0]
	for _, s := range e.syms {
		e.freqs = append(e.freqs, e.freqMap[s])
	}
}

// clean sparsely clears the per-call state so the next Encode starts from
// zeroed tables without touching memory this call never wrote.
func (e *Encoder) clean() {
	if e.dense {
		for _, s := range e.syms {
			e.freq[s] = 0
			e.lut[s] = 0
		}
	} else if e.freqMap != nil {
		clear(e.freqMap)
		clear(e.lutMap)
	}
	e.syms = e.syms[:0]
}

// buildLengths computes length-limited Huffman code lengths for the current
// histogram into e.lens, reproducing the classic two-queue-free heap merge:
// leaves seeded in ascending symbol order, ties broken by symbol, internal
// nodes carrying the minimum symbol of their subtree. The order is strict
// and total, so the resulting lengths are implementation-independent.
func (e *Encoder) buildLengths() {
	k := len(e.syms)
	e.lens = e.lens[:0]
	for i := 0; i < k; i++ {
		e.lens = append(e.lens, 0)
	}
	switch k {
	case 0:
		return
	case 1:
		e.lens[0] = 1
		return
	}
	e.nodes = e.nodes[:0]
	for i := 0; i < k; i++ {
		e.nodes = append(e.nodes, enode{freq: e.freqs[i], sym: e.syms[i], left: -1, right: -1})
	}
	e.heap = e.heap[:0]
	for i := 0; i < k; i++ {
		e.heap = append(e.heap, int32(i))
	}
	e.heapInit()
	for len(e.heap) > 1 {
		a := e.heapPop()
		b := e.heapPop()
		na, nb := e.nodes[a], e.nodes[b]
		sym := na.sym
		if nb.sym < sym {
			sym = nb.sym
		}
		e.nodes = append(e.nodes, enode{freq: na.freq + nb.freq, sym: sym, left: a, right: b})
		e.heapPush(int32(len(e.nodes) - 1))
	}
	// Iterative depth-first walk, left before right, assigning leaf depths.
	// Leaves are arena entries [0, k): the leaf index is the syms index.
	e.stack = e.stack[:0]
	e.stack = append(e.stack, e.heap[0]<<8)
	for len(e.stack) > 0 {
		top := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		idx, depth := top>>8, uint8(top&0xff)
		n := e.nodes[idx]
		if n.left < 0 {
			e.lens[idx] = depth
			continue
		}
		// Push right first so left pops (and is visited) first; visit order
		// does not affect lengths but keeps traversal costs predictable.
		e.stack = append(e.stack, n.right<<8|int32(depth)+1)
		e.stack = append(e.stack, n.left<<8|int32(depth)+1)
	}
	e.limitLengths()
}

// heapLess orders arena nodes by (frequency, symbol) — the same strict total
// order the original pointer-heap used.
func (e *Encoder) heapLess(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	return na.sym < nb.sym
}

func (e *Encoder) heapInit() {
	n := len(e.heap)
	for i := n/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Encoder) heapPush(x int32) {
	e.heap = append(e.heap, x)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Encoder) heapPop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return top
}

func (e *Encoder) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.heapLess(e.heap[r], e.heap[l]) {
			m = r
		}
		if !e.heapLess(e.heap[m], e.heap[i]) {
			return
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// limitLengths clamps code lengths to maxCodeLen while keeping the Kraft
// inequality satisfied (a simplified Package-Merge style adjustment),
// demoting in ascending symbol order exactly as the historical
// implementation did.
func (e *Encoder) limitLengths() {
	over := false
	for _, l := range e.lens {
		if l > maxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	for i, l := range e.lens {
		if l > maxCodeLen {
			e.lens[i] = maxCodeLen
		}
	}
	// kraft sum in units of 2^-maxCodeLen
	var kraft uint64
	for _, l := range e.lens {
		kraft += 1 << (maxCodeLen - l)
	}
	limit := uint64(1) << maxCodeLen
	// Demote shortest codes until the sum fits.
	for kraft > limit {
		for i, l := range e.lens {
			if l < maxCodeLen {
				e.lens[i] = l + 1
				kraft -= 1 << (maxCodeLen - l - 1)
				if kraft <= limit {
					break
				}
			}
		}
	}
}

// assignCodes computes canonical code words for the current lengths:
// symbols sorted by (length, symbol) receive consecutive codes.
func (e *Encoder) assignCodes() {
	k := len(e.syms)
	e.order = e.order[:0]
	for i := 0; i < k; i++ {
		e.order = append(e.order, int32(i))
	}
	slices.SortFunc(e.order, func(ia, ib int32) int {
		if e.lens[ia] != e.lens[ib] {
			return int(e.lens[ia]) - int(e.lens[ib])
		}
		if e.syms[ia] < e.syms[ib] {
			return -1
		}
		return 1
	})
	e.codes = e.codes[:0]
	for i := 0; i < k; i++ {
		e.codes = append(e.codes, 0)
	}
	var code uint64
	var prevLen uint8
	for _, idx := range e.order {
		l := e.lens[idx]
		code <<= uint(l - prevLen)
		e.codes[idx] = code
		code++
		prevLen = l
	}
}

// encodedSizeBits computes the payload size (excluding the table) for the
// current histogram without emitting a stream.
func (e *Encoder) encodedSizeBits(symbols []uint32) uint64 {
	e.histogram(symbols)
	e.buildLengths()
	var bits uint64
	for i := range e.syms {
		bits += e.freqs[i] * uint64(e.lens[i])
	}
	e.clean()
	return bits
}

var encPool = sync.Pool{New: func() any { return NewEncoder() }}

// Encode compresses the symbol sequence using a pooled Encoder. The output
// stream embeds the code table, so Decode needs no side information.
func Encode(symbols []uint32) []byte {
	e := encPool.Get().(*Encoder)
	defer encPool.Put(e)
	return e.Encode(symbols)
}

// AppendEncode is Encode appending to dst, using a pooled Encoder.
func AppendEncode(dst []byte, symbols []uint32) []byte {
	e := encPool.Get().(*Encoder)
	defer encPool.Put(e)
	return e.AppendEncode(dst, symbols)
}

// EncodedSizeBits estimates the encoded payload size (excluding the table)
// for the given symbols without building the full stream. The SECRE SZ3
// surrogate uses the *absence* of this stage; the full compressor uses
// Encode itself. Exposed for analysis and tests.
func EncodedSizeBits(symbols []uint32) uint64 {
	e := encPool.Get().(*Encoder)
	defer encPool.Put(e)
	return e.encodedSizeBits(symbols)
}

// tableEntry is one (symbol, code length) pair of a decoded stream table.
type tableEntry struct {
	sym uint32
	len uint8
}

// Decoder is a reusable canonical Huffman decoder. The zero value is ready
// to use; Decode may be called repeatedly and reuses the canonical tables.
// A Decoder is not safe for concurrent use — pool instances instead (the
// package-level Decode does exactly that).
type Decoder struct {
	entries []tableEntry // sorted by (length, symbol): canonical order
	bySym   []tableEntry // scratch for duplicate detection
	count   [maxCodeLen + 1]uint32
	first   [maxCodeLen + 1]uint64
	base    [maxCodeLen + 1]uint32

	// prefix[p] is the symbol and code length the walk finds when the next
	// prefixBits bits of the stream are p; len 0 when no code that short
	// matches.
	prefix     []tableEntry
	prefixBits uint

	r bitstream.Reader
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// Reset releases the Decoder's retained scratch.
func (d *Decoder) Reset() { *d = Decoder{} }

// Decode reverses Encode under the default safedec limits.
func (d *Decoder) Decode(stream []byte) ([]uint32, error) {
	return d.DecodeLimited(stream, safedec.Default())
}

// DecodeLimited reverses Encode, refusing (with an error wrapping
// safedec.ErrLimit) streams whose claimed symbol count would allocate more
// than lim.MaxAlloc bytes of output. The returned slice is freshly
// allocated — only the decoder's internal tables are reused.
func (d *Decoder) DecodeLimited(stream []byte, lim safedec.Limits) ([]uint32, error) {
	return d.AppendDecodeLimited(nil, stream, lim)
}

// AppendDecodeLimited is DecodeLimited appending decoded symbols to dst,
// so a steady-state caller that recycles its output buffer performs no
// per-call allocation at all. On error the returned slice is dst unchanged.
func (d *Decoder) AppendDecodeLimited(dst []uint32, stream []byte, lim safedec.Limits) ([]uint32, error) {
	lim = lim.Norm()
	if len(stream) < 8 {
		return dst, fmt.Errorf("%w: missing bit length: %w", ErrCorrupt, safedec.ErrTruncated)
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(stream[i])
	}
	d.r.Reset(stream[8:], bits)
	r := &d.r
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
	d.buildPrefixTable(nSyms)
	shift := 64 - d.prefixBits
	for left := nSyms; left > 0; {
		// As many symbols as the window holds whole prefixes for.
		win, avail := r.Peek()
		used := uint(0)
		for used+d.prefixBits <= avail && left > 0 {
			e := d.prefix[win>>shift]
			if e.len == 0 {
				break
			}
			dst = append(dst, e.sym)
			win <<= e.len
			used += uint(e.len)
			left--
		}
		if used > 0 {
			r.Skip(used)
			continue
		}
		// A code longer than the prefix, or the last bits of the stream:
		// one symbol by the walk itself.
		e := d.walk(win, min(avail, maxCodeLen))
		if e.len == 0 {
			if avail < maxCodeLen {
				return dst[:start], fmt.Errorf("%w: payload", ErrCorrupt)
			}
			return dst[:start], fmt.Errorf("%w: no code matched", ErrCorrupt)
		}
		r.Skip(uint(e.len))
		dst = append(dst, e.sym)
		left--
	}
	return dst, nil
}

// walk is the canonical decode of one symbol from the n (<= maxCodeLen) bits
// at the top of win: the code grows a bit at a time and the first length at
// which it falls inside that length's code range wins. A zero len says no
// code of n bits or fewer matched. For a well-formed table at most one
// length can match; for an over-subscribed one the order of the walk is the
// definition of what the stream means.
func (d *Decoder) walk(win uint64, n uint) tableEntry {
	for l := uint(1); l <= n; l++ {
		code := win >> (64 - l)
		if cnt := d.count[l]; cnt > 0 && code >= d.first[l] && code-d.first[l] < uint64(cnt) {
			return tableEntry{sym: d.entries[d.base[l]+uint32(code-d.first[l])].sym, len: uint8(l)}
		}
	}
	return tableEntry{}
}

// maxPrefixBits bounds the prefix table at 2^11 entries (16 KiB): beyond
// that it falls out of L1 and costs more to fill than it saves.
const maxPrefixBits = 11

// buildPrefixTable fills d.prefix with the walk's answer for every
// prefixBits-bit prefix, so the payload loop decodes a symbol with one
// lookup. It is built by running walk itself over each prefix rather than
// by laying code ranges out, which makes it agree with the walk by
// construction — malformed tables included. The table is no wider than the
// longest code (a lookup then never misses) or than the payload warrants.
func (d *Decoder) buildPrefixTable(nSyms uint64) {
	bits := min(maxPrefixBits, uint(d.entries[len(d.entries)-1].len), uint(mbits.Len64(nSyms)))
	bits = max(bits, 1)
	d.prefixBits = bits
	d.prefix = slices.Grow(d.prefix[:0], 1<<bits)[:1<<bits]
	for p := range d.prefix {
		d.prefix[p] = d.walk(uint64(p)<<(64-bits), bits)
	}
}

// buildTable derives the canonical decode tables from d.entries: entries
// sorted by (length, symbol) receive consecutive codes, so a read code c of
// length l maps to entry base[l] + (c - first[l]) whenever that offset is
// within count[l].
func (d *Decoder) buildTable() {
	slices.SortFunc(d.entries, func(a, b tableEntry) int {
		if a.len != b.len {
			return int(a.len) - int(b.len)
		}
		if a.sym < b.sym {
			return -1
		}
		if a.sym > b.sym {
			return 1
		}
		return 0
	})
	for i := range d.count {
		d.count[i] = 0
	}
	var code uint64
	var prevLen uint8
	for i, e := range d.entries {
		code <<= uint(e.len - prevLen)
		if d.count[e.len] == 0 {
			d.first[e.len] = code
			d.base[e.len] = uint32(i)
		}
		d.count[e.len]++
		code++
		prevLen = e.len
	}
}

var decPool = sync.Pool{New: func() any { return NewDecoder() }}

// Decode reverses Encode under the default safedec limits, using a pooled
// Decoder.
func Decode(stream []byte) ([]uint32, error) {
	return DecodeLimited(stream, safedec.Default())
}

// DecodeLimited reverses Encode under lim, using a pooled Decoder.
func DecodeLimited(stream []byte, lim safedec.Limits) ([]uint32, error) {
	d := decPool.Get().(*Decoder)
	defer func() {
		// The decode armed d.r on the caller's stream; drop that reference
		// before the Decoder goes back to the pool, or the pool pins the
		// caller's buffer alive indefinitely.
		d.r.Release()
		decPool.Put(d)
	}()
	return d.DecodeLimited(stream, lim)
}
