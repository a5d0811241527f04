package trainset

// The harvest journal: a bounded, crash-safe, append-only on-disk log of
// served-traffic training observations, one file per codec
// (<dir>/<codec>.journal). carolserve appends one record per compression
// whose actual ratio it measured; carolretrain reads the journals back as
// training/holdout data (DESIGN.md §17).
//
// Layout: an 8-byte magic, then length-framed records —
//
//	u32 payload length | payload | u32 crc32(payload)
//
// with a fixed 56-byte payload of eight little-endian float64 bit
// patterns: the five features, the measured compression ratio, and the
// relative error bound that produced it (wire slot 8 is reserved/zero).
// Appends are not fsynced: crash safety is torn-tail *tolerance*, not
// durability — a parse stops cleanly at the first short or CRC-failing
// record, so a crash mid-append costs at most the records since the last
// compaction, never the file.
//
// Concurrency contract: exactly one writer (the serving process) owns a
// journal file via OpenJournal, which truncates any torn tail in place.
// Readers (retrain) must use ReadJournal, which stops at the first bad
// record WITHOUT truncating — truncating from a second process would race
// the live writer's appends.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"carol/internal/features"
)

// JournalMagic identifies a harvest journal file; the trailing 1 is the
// format generation.
const JournalMagic = "CAROLJN1"

const (
	journalPayloadLen = 8 * 8                     // eight f64 slots
	journalRecordLen  = 4 + journalPayloadLen + 4 // len + payload + crc
	// journalSlack is how many records past the retention cap the file may
	// grow before it is compacted (rewritten with only the newest cap
	// records). Amortizes compaction to once per slack appends.
	journalSlack = 1024
	// DefaultJournalCap bounds a journal to this many records when the
	// caller passes no explicit capacity.
	DefaultJournalCap = 100_000
)

// Record is one harvested observation: the features of a served field,
// the compression ratio actually achieved, and the value-range-relative
// error bound that produced it.
type Record struct {
	Features features.Vector
	Ratio    float64
	RelEB    float64
}

// Sample converts the record to its training-set form.
func (r Record) Sample() Sample {
	return Sample{Features: r.Features, Ratio: r.Ratio, RelEB: r.RelEB}
}

func (r Record) valid() bool { return r.Sample().check() == nil }

func (r Record) encode(dst []byte) []byte {
	var payload [journalPayloadLen]byte
	slots := append(r.Features.Slice(), r.Ratio, r.RelEB, 0)
	for i, v := range slots {
		binary.LittleEndian.PutUint64(payload[i*8:], math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, journalPayloadLen)
	dst = append(dst, payload[:]...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload[:]))
}

// parseJournal walks data (already past the magic) and returns every
// well-formed record plus the byte offset where the good prefix ends.
// Parsing stops — without error — at the first torn, CRC-failing, or
// semantically invalid record: everything after a corruption point is
// unrecoverable framing-wise.
func parseJournal(data []byte, base int) ([]Record, int) {
	var out []Record
	good := base
	for {
		rest := data[good-base:]
		if len(rest) < journalRecordLen {
			return out, good
		}
		if binary.LittleEndian.Uint32(rest) != journalPayloadLen {
			return out, good
		}
		payload := rest[4 : 4+journalPayloadLen]
		if binary.LittleEndian.Uint32(rest[4+journalPayloadLen:]) != crc32.ChecksumIEEE(payload) {
			return out, good
		}
		var slots [8]float64
		for i := range slots {
			slots[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		rec := Record{
			Features: features.Vector{Mean: slots[0], Range: slots[1], MND: slots[2], MLD: slots[3], MSD: slots[4]},
			Ratio:    slots[5],
			RelEB:    slots[6],
		}
		if !rec.valid() {
			return out, good
		}
		out = append(out, rec)
		good += journalRecordLen
	}
}

// Journal is the writer handle over one codec's harvest file. Safe for
// concurrent Append from multiple goroutines; see the package-level
// concurrency contract for the single-process ownership rule.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	capacity int
	records  []Record // newest-last in-memory mirror, len <= capacity
	onDisk   int      // records currently in the file
}

// OpenJournal opens (creating if needed) the journal at path for
// appending, recovering from any torn tail by truncating the file to its
// last well-formed record. capacity <= 0 uses DefaultJournalCap. The
// newest capacity records are mirrored in memory.
func OpenJournal(path string, capacity int) (*Journal, error) {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	j := &Journal{path: path, capacity: capacity}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("trainset: create journal: %w", err)
		}
		if _, err := f.Write([]byte(JournalMagic)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("trainset: write journal magic: %w", err)
		}
		j.f = f
		return j, nil
	case err != nil:
		return nil, fmt.Errorf("trainset: open journal: %w", err)
	}
	if len(data) < len(JournalMagic) || string(data[:len(JournalMagic)]) != JournalMagic {
		return nil, fmt.Errorf("trainset: %s is not a harvest journal", path)
	}
	records, good := parseJournal(data[len(JournalMagic):], len(JournalMagic))
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trainset: open journal: %w", err)
	}
	if good < len(data) {
		// Torn or corrupt tail from a previous crash: drop it. Only the
		// owning writer may do this.
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("trainset: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("trainset: seek journal: %w", err)
	}
	j.f = f
	j.onDisk = len(records)
	if len(records) > capacity {
		records = records[len(records)-capacity:]
	}
	j.records = append([]Record(nil), records...)
	return j, nil
}

// Append writes one record. The in-memory mirror keeps only the newest
// capacity records; once the file itself has outgrown capacity by the
// compaction slack it is rewritten (tmp + fsync + rename) with just the
// mirror's contents.
func (j *Journal) Append(rec Record) error {
	if !rec.valid() {
		return errors.New("trainset: invalid journal record")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("trainset: journal closed")
	}
	if _, err := j.f.Write(rec.encode(make([]byte, 0, journalRecordLen))); err != nil {
		return fmt.Errorf("trainset: journal append: %w", err)
	}
	j.onDisk++
	j.records = append(j.records, rec)
	if len(j.records) > j.capacity {
		j.records = j.records[1:]
		if cap(j.records) > 2*j.capacity {
			j.records = append(make([]Record, 0, j.capacity), j.records...)
		}
	}
	if j.onDisk > j.capacity+journalSlack {
		return j.compactLocked()
	}
	return nil
}

// compactLocked rewrites the file with only the mirrored (newest) records.
func (j *Journal) compactLocked() error {
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("trainset: journal compact: %w", err)
	}
	buf := make([]byte, 0, len(JournalMagic)+len(j.records)*journalRecordLen)
	buf = append(buf, JournalMagic...)
	for _, rec := range j.records {
		buf = rec.encode(buf)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("trainset: journal compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("trainset: journal compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("trainset: journal compact close: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("trainset: journal compact rename: %w", err)
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trainset: journal reopen: %w", err)
	}
	_ = old.Close()
	j.f = nf
	j.onDisk = len(j.records)
	return nil
}

// Len returns the number of records in the in-memory mirror.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ReadJournal reads the journal at path without taking ownership: it
// stops at the first bad record and never truncates (the live writer may
// be mid-append there). A missing file returns (nil, nil) — no traffic
// harvested yet is not an error. capacity <= 0 returns every record;
// otherwise only the newest capacity records.
func ReadJournal(path string, capacity int) ([]Record, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trainset: read journal: %w", err)
	}
	if len(data) < len(JournalMagic) || string(data[:len(JournalMagic)]) != JournalMagic {
		return nil, fmt.Errorf("trainset: %s is not a harvest journal", path)
	}
	records, _ := parseJournal(data[len(JournalMagic):], len(JournalMagic))
	if capacity > 0 && len(records) > capacity {
		records = records[len(records)-capacity:]
	}
	return records, nil
}

// journalCodecRE bounds codec names used as journal file stems: the same
// grammar the registry uses for model names, keeping harvest paths safe.
var journalCodecRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// JournalPath returns the journal file for one codec under dir.
func JournalPath(dir, codec string) string {
	return filepath.Join(dir, codec+".journal")
}

// ListJournals returns the codec names with a journal file under dir,
// sorted. A missing directory returns (nil, nil).
func ListJournals(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trainset: list journals: %w", err)
	}
	var out []string
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".journal")
		if ok && !e.IsDir() && journalCodecRE.MatchString(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Harvester fans Append calls out to one Journal per codec under a
// directory, opening files lazily. Safe for concurrent use.
type Harvester struct {
	mu       sync.Mutex
	dir      string
	capacity int
	journals map[string]*Journal
}

// NewHarvester returns a harvester writing under dir (created if absent)
// with the given per-journal retention cap (<= 0 = DefaultJournalCap).
func NewHarvester(dir string, capacity int) *Harvester {
	return &Harvester{dir: dir, capacity: capacity, journals: make(map[string]*Journal)}
}

// Record appends one observation to the codec's journal.
func (h *Harvester) Record(codec string, rec Record) error {
	if !journalCodecRE.MatchString(codec) {
		return fmt.Errorf("trainset: bad codec name %q for harvest journal", codec)
	}
	h.mu.Lock()
	j, ok := h.journals[codec]
	if !ok {
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			h.mu.Unlock()
			return fmt.Errorf("trainset: harvest dir: %w", err)
		}
		var err error
		if j, err = OpenJournal(JournalPath(h.dir, codec), h.capacity); err != nil {
			h.mu.Unlock()
			return err
		}
		h.journals[codec] = j
	}
	h.mu.Unlock()
	return j.Append(rec)
}

// Close syncs and closes every open journal, returning the first error.
func (h *Harvester) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for _, j := range h.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	h.journals = make(map[string]*Journal)
	return first
}
