// Package archive implements a multi-field snapshot container: several
// named fields, each compressed with its own codec and error bound, in one
// self-describing byte stream. This is the on-disk artifact a fixed-ratio
// workflow produces — the whole simulation snapshot under one storage
// budget (use case 1 of the CAROL paper).
//
// Layout: magic, field count, then per field a metadata record (name,
// codec name, compressed length, original dims) followed by the codec
// stream. All integers are little-endian; lengths are varint-coded.
package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/pipeline"
	"carol/internal/safedec"
)

var magic = [4]byte{'C', 'A', 'R', '1'}

// maxFields bounds the field count a header may claim.
const maxFields = 1 << 20

// maxNameLen bounds field and codec name lengths.
const maxNameLen = 4096

// Entry is one archived field.
type Entry struct {
	// Name is the field's identifier within the archive.
	Name string
	// Codec is the compressor name the stream was produced with.
	Codec string
	// Stream is the compressed payload.
	Stream []byte
}

// Writer accumulates entries and serializes the archive.
type Writer struct {
	entries []Entry
	names   map[string]bool
}

// NewWriter returns an empty archive writer.
func NewWriter() *Writer {
	return &Writer{names: make(map[string]bool)}
}

// Add compresses f with the named codec at absolute bound eb and appends it.
func (w *Writer) Add(name, codecName string, f *field.Field, eb float64) error {
	codec, err := codecs.ByName(codecName)
	if err != nil {
		return err
	}
	stream, err := codec.Compress(f, eb)
	if err != nil {
		return fmt.Errorf("archive: compress %q: %w", name, err)
	}
	return w.AddRaw(Entry{Name: name, Codec: codecName, Stream: stream})
}

// AddPipeline compresses f block-parallel with the named codec at absolute
// bound eb and appends the resulting CPL1 pipeline container as the entry
// stream. The pipeline decoder FieldLimited uses reads containers and plain
// streams alike, so pipeline and plain entries mix freely within one archive.
func (w *Writer) AddPipeline(name, codecName string, f *field.Field, eb float64, workers int) error {
	codec, err := codecs.ByName(codecName)
	if err != nil {
		return err
	}
	p := pipeline.New(codec, pipeline.Options{Workers: workers})
	stream, err := p.Compress(f, eb)
	if err != nil {
		return fmt.Errorf("archive: compress %q: %w", name, err)
	}
	return w.AddRaw(Entry{Name: name, Codec: codecName, Stream: stream})
}

// AddRaw appends an already-compressed entry.
func (w *Writer) AddRaw(e Entry) error {
	if e.Name == "" || len(e.Name) > maxNameLen {
		return errors.New("archive: invalid entry name")
	}
	if w.names[e.Name] {
		return fmt.Errorf("archive: duplicate entry %q", e.Name)
	}
	if _, err := codecs.ByName(e.Codec); err != nil {
		return err
	}
	if len(e.Stream) == 0 {
		return fmt.Errorf("archive: empty stream for %q", e.Name)
	}
	w.names[e.Name] = true
	w.entries = append(w.entries, e)
	return nil
}

// Len returns the number of entries added.
func (w *Writer) Len() int { return len(w.entries) }

// Size returns the serialized archive size in bytes.
func (w *Writer) Size() int {
	n := 4 + binary.MaxVarintLen64
	for _, e := range w.entries {
		n += len(e.Name) + len(e.Codec) + len(e.Stream) + 3*binary.MaxVarintLen64
	}
	return n
}

// WriteTo serializes the archive.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var v [binary.MaxVarintLen64]byte
	putUv := func(x uint64) {
		n := binary.PutUvarint(v[:], x)
		buf.Write(v[:n])
	}
	putUv(uint64(len(w.entries)))
	for _, e := range w.entries {
		putUv(uint64(len(e.Name)))
		buf.WriteString(e.Name)
		putUv(uint64(len(e.Codec)))
		buf.WriteString(e.Codec)
		putUv(uint64(len(e.Stream)))
		buf.Write(e.Stream)
	}
	return buf.WriteTo(out)
}

// Archive is a parsed container.
type Archive struct {
	entries []Entry
	index   map[string]int
}

// Read parses an archive under the default safedec limits.
func Read(r io.Reader) (*Archive, error) {
	return ReadLimited(r, safedec.Default())
}

// ReadLimited parses an archive, refusing (with an error wrapping
// safedec.ErrLimit) containers whose claimed entry counts or stream lengths
// exceed lim.
func ReadLimited(r io.Reader, lim safedec.Limits) (*Archive, error) {
	lim = lim.Norm()
	br := bufioReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("archive: magic: %w: %w", safedec.ErrTruncated, err)
	}
	if m != magic {
		return nil, fmt.Errorf("archive: bad magic: %w", safedec.ErrCorrupt)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("archive: count: %w: %w", safedec.ErrCorrupt, err)
	}
	if count > maxFields {
		return nil, fmt.Errorf("archive: implausible field count %d: %w", count, safedec.ErrCorrupt)
	}
	if err := lim.Count("archive entries", int64(count)); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{index: make(map[string]int, min(count, 1024))}
	for i := uint64(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("archive: entry %d name: %w", i, err)
		}
		codec, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("archive: entry %d codec: %w", i, err)
		}
		sLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("archive: entry %d stream length: %w", i, err)
		}
		if err := lim.Alloc("archive stream", int64(sLen)); err != nil {
			return nil, fmt.Errorf("archive: entry %d: %w", i, err)
		}
		stream, err := safedec.ReadN(br, int64(sLen))
		if err != nil {
			return nil, fmt.Errorf("archive: entry %d stream: %w", i, err)
		}
		if _, dup := a.index[name]; dup {
			return nil, fmt.Errorf("archive: duplicate entry %q: %w", name, safedec.ErrCorrupt)
		}
		a.index[name] = len(a.entries)
		a.entries = append(a.entries, Entry{Name: name, Codec: codec, Stream: stream})
	}
	return a, nil
}

func readString(br byteReader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: %w", safedec.ErrTruncated, err)
	}
	if n > maxNameLen {
		return "", fmt.Errorf("string too long: %w", safedec.ErrCorrupt)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Names lists the entries in archive order.
func (a *Archive) Names() []string {
	out := make([]string, len(a.entries))
	for i, e := range a.entries {
		out[i] = e.Name
	}
	return out
}

// Entry returns the raw entry by name.
func (a *Archive) Entry(name string) (Entry, bool) {
	i, ok := a.index[name]
	if !ok {
		return Entry{}, false
	}
	return a.entries[i], true
}

// Field decompresses one entry under the default safedec limits.
func (a *Archive) Field(name string) (*field.Field, error) {
	return a.FieldLimited(name, safedec.Default())
}

// FieldLimited decompresses one entry, enforcing lim on the codec decode.
func (a *Archive) FieldLimited(name string, lim safedec.Limits) (*field.Field, error) {
	e, ok := a.Entry(name)
	if !ok {
		return nil, fmt.Errorf("archive: no entry %q", name)
	}
	codec, err := codecs.ByName(e.Codec)
	if err != nil {
		return nil, err
	}
	// The pipeline reads a plain codec stream and an AddPipeline container
	// alike.
	f, err := pipeline.New(codec, pipeline.Options{}).DecompressLimited(e.Stream, lim)
	if err != nil {
		return nil, fmt.Errorf("archive: decompress %q: %w", name, err)
	}
	f.Name = e.Name
	return f, nil
}

// TotalCompressed returns the sum of entry stream sizes.
func (a *Archive) TotalCompressed() int {
	n := 0
	for _, e := range a.entries {
		n += len(e.Stream)
	}
	return n
}

// Ratio reports the overall compression ratio given the entries' original
// sizes (decompressing headers only would suffice, but decoding the header
// requires codec knowledge, so we parse each stream's common header).
func (a *Archive) Ratio() (float64, error) {
	var raw int64
	for _, e := range a.entries {
		h, err := headerOf(e)
		if err != nil {
			return 0, err
		}
		raw += int64(h.Nx) * int64(h.Ny) * int64(h.Nz) * 4
	}
	if a.TotalCompressed() == 0 {
		return 0, errors.New("archive: empty")
	}
	return float64(raw) / float64(a.TotalCompressed()), nil
}

// headerOf reads an entry's field dims from its stream's header.
func headerOf(e Entry) (compressor.Header, error) {
	// Pipeline containers carry the field dims in their own header; the
	// codec headers live per block inside the frames.
	if pipeline.IsContainer(e.Stream) {
		h, _, err := pipeline.Frames(e.Stream, safedec.Default())
		if err != nil {
			return compressor.Header{}, fmt.Errorf("archive: %w", err)
		}
		return compressor.Header{Nx: h.Nx, Ny: h.Ny, Nz: h.Nz}, nil
	}
	magic, err := codecs.Magic(e.Codec)
	if err != nil {
		return compressor.Header{}, fmt.Errorf("archive: %w", err)
	}
	h, _, err := compressor.ParseHeader(e.Stream, magic)
	return h, err
}

// bufioReader adapts any reader into a ByteReader without double-buffering
// bytes.Reader and friends.
type byteReader interface {
	io.Reader
	io.ByteReader
}

func bufioReader(r io.Reader) byteReader {
	if br, ok := r.(byteReader); ok {
		return br
	}
	return &simpleByteReader{r: r}
}

type simpleByteReader struct {
	r io.Reader
}

func (s *simpleByteReader) Read(p []byte) (int, error) { return s.r.Read(p) }

func (s *simpleByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(s.r, b[:])
	return b[0], err
}
