package trainset

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"carol/internal/features"
)

func rec(i int) Record {
	return Record{
		Features: features.Vector{Mean: float64(i), Range: 1 + float64(i), MND: 0.1, MLD: 0.2, MSD: 0.3},
		Ratio:    10 + float64(i),
		RelEB:    1e-3,
	}
}

func TestJournalAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "szx.journal")
	j, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 10 {
		t.Fatalf("mirror len %d", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d records", len(got))
	}
	for i, r := range got {
		want := rec(i)
		if math.Float64bits(r.Features.Mean) != math.Float64bits(want.Features.Mean) ||
			math.Float64bits(r.Ratio) != math.Float64bits(want.Ratio) ||
			math.Float64bits(r.RelEB) != math.Float64bits(want.RelEB) {
			t.Fatalf("record %d round trip: %+v != %+v", i, r, want)
		}
	}
	// Newest-N read.
	newest, err := ReadJournal(path, 3)
	if err != nil || len(newest) != 3 {
		t.Fatalf("capped read: %d, %v", len(newest), err)
	}
	if newest[2].Features.Mean != rec(9).Features.Mean {
		t.Fatal("capped read did not keep newest records")
	}
}

func TestJournalReopenContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "szx.journal")
	j, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 5 {
		t.Fatalf("reopened mirror len %d", j.Len())
	}
	for i := 5; i < 8; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path, 0)
	if err != nil || len(got) != 8 {
		t.Fatalf("after reopen: %d records, %v", len(got), err)
	}
}

// TestJournalTornTail simulates a crash mid-append: the writer recovers by
// truncating, the reader just stops — and neither sees the torn record.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "szx.journal")
	j, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	// Reader: stops at the tear, file untouched.
	got, err := ReadJournal(path, 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("reader on torn tail: %d records, %v", len(got), err)
	}
	if st, _ := os.Stat(path); st.Size() != int64(len(torn)) {
		t.Fatal("reader modified the journal file")
	}
	// Writer: truncates the tear and appends cleanly after it.
	j, err = OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("writer recovered %d records", j.Len())
	}
	if err := j.Append(rec(99)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(path, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("after recovery: %d records, %v", len(got), err)
	}
	if got[3].Ratio != rec(99).Ratio {
		t.Fatal("post-recovery append lost")
	}
}

// TestJournalCorruptMidFile flips a byte inside an early record: parsing
// must stop there (framing after a corrupt record is unrecoverable) and
// the writer must truncate everything from the corruption point.
func TestJournalCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "szx.journal")
	j, err := OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(JournalMagic)+2*journalRecordLen+10] ^= 0xFF // inside record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("corrupt mid-file: %d records, %v", len(got), err)
	}
	j, err = OpenJournal(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("writer kept %d records past corruption", j.Len())
	}
}

func TestJournalRetentionCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "szx.journal")
	const capacity = 50
	j, err := OpenJournal(path, capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Push well past capacity + slack to force at least one compaction.
	total := capacity + journalSlack + 200
	for i := 0; i < total; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != capacity {
		t.Fatalf("mirror len %d, want %d", j.Len(), capacity)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if maxSize := int64(len(JournalMagic) + (capacity+journalSlack+1)*journalRecordLen); st.Size() > maxSize {
		t.Fatalf("journal file %d bytes, compaction cap %d", st.Size(), maxSize)
	}
	got, err := ReadJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The newest record must be the last appended; the oldest surviving
	// record must be newer than everything evicted.
	if got[len(got)-1].Ratio != rec(total-1).Ratio {
		t.Fatal("newest record lost in compaction")
	}
	if got[0].Features.Mean < float64(total-capacity-journalSlack-1) {
		t.Fatalf("compaction kept too-old record mean=%g", got[0].Features.Mean)
	}
}

func TestJournalRejectsInvalid(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "x.journal"), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Ratio: -1, RelEB: 1e-3}); err == nil {
		t.Fatal("negative ratio accepted")
	}
	if err := j.Append(Record{Ratio: 10, RelEB: math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestReadJournalMissingAndForeign(t *testing.T) {
	dir := t.TempDir()
	got, err := ReadJournal(filepath.Join(dir, "nope.journal"), 0)
	if err != nil || got != nil {
		t.Fatalf("missing journal: %v, %v", got, err)
	}
	foreign := filepath.Join(dir, "bad.journal")
	if err := os.WriteFile(foreign, []byte("NOTAJRNL123"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(foreign, 0); err == nil {
		t.Fatal("foreign file accepted")
	}
	if _, err := OpenJournal(foreign, 10); err == nil {
		t.Fatal("writer accepted foreign file")
	}
}

func TestHarvester(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "harvest")
	h := NewHarvester(dir, 100)
	if err := h.Record("szx", rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.Record("sz3", rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := h.Record("szx", rec(3)); err != nil {
		t.Fatal(err)
	}
	if err := h.Record("../evil", rec(4)); err == nil {
		t.Fatal("path-traversal codec name accepted")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	codecs, err := ListJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(codecs) != 2 || codecs[0] != "sz3" || codecs[1] != "szx" {
		t.Fatalf("journals %v", codecs)
	}
	got, err := ReadJournal(JournalPath(dir, "szx"), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("szx journal: %d, %v", len(got), err)
	}
	if none, err := ListJournals(filepath.Join(dir, "missing")); err != nil || none != nil {
		t.Fatalf("missing dir: %v, %v", none, err)
	}
}

// TestSetCapacityEviction is the regression test for the bounded Set:
// dedup drops exact repeats, eviction is strictly oldest-first, and the
// unbounded zero value keeps its append-log behaviour.
func TestSetCapacityEviction(t *testing.T) {
	mk := func(i int) Sample {
		return Sample{Features: features.Vector{Mean: float64(i)}, Ratio: 10, RelEB: 1e-3}
	}
	var s Set
	s.SetCapacity(3)
	for i := 0; i < 3; i++ {
		if err := s.Add(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate: dropped, no eviction.
	if err := s.Add(mk(1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Samples()[0].Features.Mean != 0 {
		t.Fatalf("duplicate add changed set: len=%d", s.Len())
	}
	// Overflow: evicts sample 0, keeps 1,2,3 in order.
	if err := s.Add(mk(3)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	for i, want := range []float64{1, 2, 3} {
		if got := s.Samples()[i].Features.Mean; got != want {
			t.Fatalf("slot %d = %g, want %g (eviction order broken)", i, got, want)
		}
	}
	// An evicted sample may be re-added (it is no longer "seen").
	if err := s.Add(mk(0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Samples()[2].Features.Mean; got != 0 {
		t.Fatalf("re-add of evicted sample landed at %g", got)
	}
	// Heavy churn keeps memory bounded near capacity.
	for i := 0; i < 10_000; i++ {
		if err := s.Add(mk(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 || cap(s.Samples()) > 6 {
		t.Fatalf("churn: len=%d cap=%d", s.Len(), cap(s.Samples()))
	}
	// SetCapacity on a populated set dedups then trims oldest-first.
	var p Set
	for _, i := range []int{5, 6, 5, 7, 8} {
		if err := p.Add(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.SetCapacity(2)
	if p.Len() != 2 ||
		p.Samples()[0].Features.Mean != 7 ||
		p.Samples()[1].Features.Mean != 8 {
		t.Fatalf("SetCapacity trim: %+v", p.Samples())
	}
	// Merge routes through dedup/eviction on bounded sets.
	var q Set
	for _, i := range []int{8, 9} {
		if err := q.Add(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Merge(&q)
	if p.Len() != 2 ||
		p.Samples()[0].Features.Mean != 8 ||
		p.Samples()[1].Features.Mean != 9 {
		t.Fatalf("bounded merge: %+v", p.Samples())
	}
	// Unbounding restores plain append (duplicates allowed again).
	p.SetCapacity(0)
	for i := 0; i < 3; i++ {
		if err := p.Add(mk(42)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 5 {
		t.Fatalf("unbounded len %d", p.Len())
	}
}
