// Package model defines CAROL's trained-model artifact: a deterministic,
// versioned, self-describing binary serialization of everything a serving
// process needs to answer ratio→error-bound queries without retraining —
// the codec the model was trained for, the regressor backend tag, the
// feature schema, an always-empty surrogate-calibration section, the
// flattened regressor itself, and free-form training metadata, all
// integrity-checked with a trailing CRC.
//
// The format is the bridge between the train-offline and serve-online
// halves of the repository: cmd/caroltrain writes artifacts into an
// internal/registry directory, and carolserve warm-loads them at boot, on
// SIGHUP, and on -registry-watch convergence (DESIGN.md §12, §17).
//
// Format version 2 generalizes the artifact beyond random forests: a
// backend tag (rf | boost) follows the codec name and selects the
// regressor payload layout. Version-1 streams (RF-only, no tag) remain
// readable; Encode always writes version 2.
//
// Contracts:
//
//   - Determinism: Encode of the same Artifact value is byte-identical
//     across runs and hosts (metadata is written in sorted key order, all
//     floats as IEEE-754 bit patterns, no timestamps or randomness).
//   - Round trip: Read(Encode(a)) yields a regressor that predicts
//     bit-identically to the original, and re-encoding it reproduces the
//     same bytes.
//   - Hostility: Read/ReadLimited never panic and never allocate
//     unbounded memory from claimed sizes; every failure is classified
//     under the safedec taxonomy (ErrTruncated / ErrCorrupt / ErrLimit).
//
// Note the Workers knob of the embedded regressor configs is deliberately
// not serialized: it is a machine-local parallelism setting, not part of
// the model (a decoded regressor starts at Workers=0, "use every core").
package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"carol/internal/features"
	"carol/internal/safedec"
)

// Magic identifies a CAROL model artifact; the trailing 1 is the major
// format generation (bump on incompatible layout changes, alongside
// FormatVersion).
const Magic = "CAROLMF1"

// FormatVersion is the current artifact format version. Version 2 added
// the backend tag and the boost payload layout; version 1 (RF-only) is
// still read.
const FormatVersion = 2

// Format hard caps, independent of caller Limits: violating these is
// structural corruption (ErrCorrupt), not a resource-policy rejection.
const (
	maxStringLen   = 1 << 12 // codec names, schema entries, meta keys/values
	maxSchema      = 256     // feature-schema entries
	maxMetaPairs   = 1 << 10 // metadata key/value pairs
	maxTotalNodes  = 1<<31 - 1
	maxBoostStages = 1 << 12 // boosting rounds
)

// nodeEncSize is the fixed per-node payload: i32 feature + u32 left +
// u32 right + f64 thresh + f64 value + f64 gain.
const nodeEncSize = 4 + 4 + 4 + 8 + 8 + 8

// Artifact is one trained, publishable CAROL model.
type Artifact struct {
	// Codec names the compressor the model was trained for ("szx", ...).
	Codec string
	// Backend tags the regressor family ("rf" | "boost"). Empty is
	// normalized to "rf" so pre-zoo construction sites keep working.
	Backend string
	// Schema names the model inputs in order; serving refuses artifacts
	// whose schema does not match CanonicalSchema().
	Schema []string
	// Regressor is the trained model; its concrete type must be the one
	// the Backend tag's table row expects.
	Regressor Regressor
	// Meta carries free-form training provenance (sample counts, CV
	// scoreboards, timestamps). Keys and values are bounded strings; Meta
	// is written in sorted key order so encoding stays deterministic.
	Meta map[string]string
}

// CanonicalSchema returns the input schema every model trained by this
// repository uses: the five FXRZ features plus the log10 target ratio
// (trainset.Row order).
func CanonicalSchema() []string {
	return append(features.Names(), "log10_ratio")
}

// schemaMatches reports whether two schemas are identical.
func schemaMatches(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BackendTag returns the artifact's backend with the empty-means-rf
// normalization applied.
func (a *Artifact) BackendTag() string {
	if a.Backend == "" {
		return BackendRF
	}
	return a.Backend
}

// Dims returns the regressor's input dimensionality (0 if no regressor is
// attached).
func (a *Artifact) Dims() int {
	if a.Regressor == nil {
		return 0
	}
	return a.Regressor.Dims()
}

// Stats summarizes the regressor's shape for dashboards and /v1/models
// (for boost, Trees is the stage count).
type Stats struct {
	Backend  string
	Trees    int
	Nodes    int
	MaxDepth int
}

// Stats computes the backend-appropriate shape summary.
func (a *Artifact) Stats() Stats {
	s := Stats{Backend: a.BackendTag()}
	if b, err := lookup(s.Backend); err == nil {
		b.stats(a.Regressor, &s)
	}
	return s
}

// Validate checks the artifact is internally consistent and encodable: the
// attached regressor must be the type the backend tag names.
func (a *Artifact) Validate() error {
	if a.Codec == "" || len(a.Codec) > maxStringLen {
		return fmt.Errorf("model: bad codec name %q", a.Codec)
	}
	if len(a.Schema) == 0 || len(a.Schema) > maxSchema {
		return fmt.Errorf("model: schema has %d entries", len(a.Schema))
	}
	for i, s := range a.Schema {
		if s == "" || len(s) > maxStringLen {
			return fmt.Errorf("model: bad schema entry %d", i)
		}
	}
	b, err := lookup(a.BackendTag())
	if err != nil {
		return err
	}
	if a.Regressor == nil {
		return fmt.Errorf("model: %s artifact without regressor", b.tag)
	}
	if err := b.check(a.Regressor); err != nil {
		return err
	}
	if dims := a.Dims(); dims != len(a.Schema) {
		return fmt.Errorf("model: regressor has %d input dims but schema has %d entries",
			dims, len(a.Schema))
	}
	if len(a.Meta) > maxMetaPairs {
		return fmt.Errorf("model: %d metadata pairs (max %d)", len(a.Meta), maxMetaPairs)
	}
	for k, v := range a.Meta {
		if k == "" || len(k) > maxStringLen || len(v) > maxStringLen {
			return fmt.Errorf("model: bad metadata pair %q", k)
		}
	}
	return nil
}

// writer accumulates the encoding; all integers little-endian.
type writer struct{ buf []byte }

func (w *writer) u8(v byte)     { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Encode serializes the artifact (always as format version 2). The output
// is deterministic: encoding the same artifact twice yields identical
// bytes.
func (a *Artifact) Encode() ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	w := &writer{buf: make([]byte, 0, 1<<12)}
	w.buf = append(w.buf, Magic...)
	w.u32(FormatVersion)
	w.str(a.Codec)
	w.str(a.BackendTag())
	w.uvarint(uint64(len(a.Schema)))
	for _, s := range a.Schema {
		w.str(s)
	}
	// The calibration section is always empty: a 0 point count.
	w.uvarint(0)
	b, _ := lookup(a.BackendTag()) // Validate above vouched for the tag
	b.write(w, a.Regressor)
	// Metadata in sorted key order: map iteration order must not leak
	// into the bytes (the determinism contract carollint enforces).
	keys := make([]string, 0, len(a.Meta))
	for k := range a.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(a.Meta[k])
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

// Read parses an artifact with the permissive default limits.
func Read(data []byte) (*Artifact, error) {
	return ReadLimited(data, safedec.Limits{})
}

// corrupt wraps a structural-validity failure.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: model: %s", safedec.ErrCorrupt, fmt.Sprintf(format, args...))
}

// readString reads a uvarint-prefixed string with the format's hard cap
// and a truncation check before the copy.
func readString(r *safedec.Reader, what string) (string, error) {
	n, err := r.Uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", corrupt("%s length %d exceeds %d", what, n, maxStringLen)
	}
	b, err := r.Take(what, int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadLimited parses an artifact, bounding every size the stream claims
// with lim (safedec validate-before-allocate discipline) and verifying
// the trailing CRC. Both format versions are accepted: version 1 streams
// are RF-only with no backend tag; version 2 streams carry the tag and
// dispatch the regressor payload on it. Errors are classified:
// ErrTruncated when the input ends early, ErrCorrupt for structural
// violations (bad magic, version, checksum, malformed regressor),
// ErrLimit when parsing would exceed lim.
func ReadLimited(data []byte, lim safedec.Limits) (*Artifact, error) {
	r := safedec.NewReader(data)
	magic, err := r.Take("magic", len(Magic))
	if err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, corrupt("bad magic %q", magic)
	}
	version, err := r.U32("format version")
	if err != nil {
		return nil, err
	}
	if version < 1 || version > FormatVersion {
		return nil, corrupt("unsupported format version %d (have %d)", version, FormatVersion)
	}
	a := &Artifact{}
	if a.Codec, err = readString(r, "codec name"); err != nil {
		return nil, err
	}
	if a.Codec == "" {
		return nil, corrupt("empty codec name")
	}
	if version >= 2 {
		if a.Backend, err = readString(r, "backend tag"); err != nil {
			return nil, err
		}
	} else {
		a.Backend = BackendRF
	}
	backend, err := lookup(a.Backend)
	if err != nil {
		return nil, corrupt("unknown backend tag %q", a.Backend)
	}
	nSchema, err := r.Uvarint("schema count")
	if err != nil {
		return nil, err
	}
	if nSchema == 0 || nSchema > maxSchema {
		return nil, corrupt("schema count %d outside [1, %d]", nSchema, maxSchema)
	}
	a.Schema = make([]string, nSchema)
	for i := range a.Schema {
		if a.Schema[i], err = readString(r, "schema entry"); err != nil {
			return nil, err
		}
		if a.Schema[i] == "" {
			return nil, corrupt("empty schema entry %d", i)
		}
	}
	// Nothing reads the calibration section any more; a stream written when
	// it was filled has its table skipped, unread, under the section's guards.
	nCalib, err := r.Uvarint("calibration count")
	if err != nil {
		return nil, err
	}
	if nCalib > 0 {
		if err := lim.Count("calibration point", int64(nCalib)); err != nil {
			return nil, err
		}
		over, err := r.U8("calibration flag")
		if err != nil {
			return nil, err
		}
		if over > 1 {
			return nil, corrupt("calibration flag %d", over)
		}
		// 16 bytes per point, compared without overflowing.
		if nCalib > uint64(r.Remaining())/16 {
			return nil, fmt.Errorf("%w: model: calibration table needs %d×16 bytes, have %d",
				safedec.ErrTruncated, nCalib, r.Remaining())
		}
		if _, err := r.Take("calibration table", int(nCalib)*16); err != nil {
			return nil, err
		}
	}
	if a.Regressor, err = backend.read(r, lim, len(a.Schema)); err != nil {
		return nil, err
	}
	nMeta, err := r.Uvarint("metadata count")
	if err != nil {
		return nil, err
	}
	if nMeta > maxMetaPairs {
		return nil, corrupt("metadata count %d exceeds %d", nMeta, maxMetaPairs)
	}
	if nMeta > 0 {
		a.Meta = make(map[string]string, nMeta)
		for i := uint64(0); i < nMeta; i++ {
			k, err := readString(r, "metadata key")
			if err != nil {
				return nil, err
			}
			if k == "" {
				return nil, corrupt("empty metadata key")
			}
			if _, dup := a.Meta[k]; dup {
				return nil, corrupt("duplicate metadata key %q", k)
			}
			v, err := readString(r, "metadata value")
			if err != nil {
				return nil, err
			}
			a.Meta[k] = v
		}
	}
	sum, err := r.U32("checksum")
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, corrupt("%d trailing bytes after checksum", r.Remaining())
	}
	if want := crc32.ChecksumIEEE(data[:len(data)-4]); sum != want {
		return nil, corrupt("checksum mismatch: stream says %08x, payload hashes to %08x", sum, want)
	}
	return a, nil
}
