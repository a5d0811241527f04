package registry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"carol/internal/model"
	"carol/internal/rf"
	"carol/internal/safedec"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

// testArtifactBytes builds a small valid artifact; seed varies the forest
// so distinct versions have distinct bytes.
func testArtifactBytes(t testing.TB, seed uint64) []byte {
	t.Helper()
	rng := xrand.New(seed)
	const rows = 80
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, trainset.InputDim)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = -2 + row[0]
	}
	cfg := rf.DefaultConfig()
	cfg.NEstimators = 3
	cfg.MaxDepth = 4
	cfg.Seed = seed
	forest, err := rf.Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := &model.Artifact{Codec: "szx", Schema: model.CanonicalSchema(), Regressor: forest}
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func openTemp(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPublishAndLoad(t *testing.T) {
	r := openTemp(t)
	buf1 := testArtifactBytes(t, 1)
	v1, err := r.Publish("szx", buf1)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if v1.Number != 1 || v1.Size != int64(len(buf1)) {
		t.Fatalf("v1 = %+v", v1)
	}
	v2, err := r.Publish("szx", testArtifactBytes(t, 2))
	if err != nil {
		t.Fatalf("publish 2: %v", err)
	}
	if v2.Number != 2 {
		t.Fatalf("v2.Number = %d", v2.Number)
	}
	latest, err := r.Latest("szx")
	if err != nil || latest.Number != 2 {
		t.Fatalf("Latest = %+v, %v", latest, err)
	}
	got, err := r.Get("szx", 1)
	if err != nil || got.SHA256 != v1.SHA256 {
		t.Fatalf("Get(1) = %+v, %v", got, err)
	}
	a, err := r.Load(v1, safedec.Limits{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if a.Codec != "szx" {
		t.Fatalf("loaded codec %q", a.Codec)
	}
	versions, err := r.Versions("szx")
	if err != nil || len(versions) != 2 {
		t.Fatalf("Versions = %v, %v", versions, err)
	}
	names, err := r.List()
	if err != nil || len(names) != 1 || names[0] != "szx" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// No temp litter after successful publishes.
	ents, err := os.ReadDir(filepath.Join(r.Root(), "szx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestPublishRejectsGarbage(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Publish("szx", []byte("not a model")); err == nil {
		t.Fatal("garbage published")
	}
	if _, err := r.Publish("../evil", testArtifactBytes(t, 1)); err == nil {
		t.Fatal("path-traversal name accepted")
	}
	if _, err := r.Publish("UPPER", testArtifactBytes(t, 1)); err == nil {
		t.Fatal("uppercase name accepted")
	}
	// A rejected publish leaves no model behind.
	if names, _ := r.List(); len(names) != 0 {
		t.Fatalf("List after rejected publishes = %v", names)
	}
}

func TestNotFound(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Latest("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Latest(ghost) = %v", err)
	}
	if _, err := r.Versions("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Versions(ghost) = %v", err)
	}
	v, err := r.Publish("m1", testArtifactBytes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("m1", 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(m1, 7) = %v", err)
	}
	_ = v
}

func TestLoadDetectsCorruption(t *testing.T) {
	r := openTemp(t)
	v, err := r.Publish("m1", testArtifactBytes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(v.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte on disk; the manifest digest must catch it even though
	// the length is unchanged.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(v.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(v, safedec.Limits{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted load = %v, want checksum mismatch", err)
	}
	// Truncation trips the size check.
	if err := os.WriteFile(v.Path, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(v, safedec.Limits{}); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncated load = %v, want size mismatch", err)
	}
}

func TestLoadHonorsLimits(t *testing.T) {
	r := openTemp(t)
	v, err := r.Publish("m1", testArtifactBytes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(v, safedec.Limits{MaxAlloc: 16}); !errors.Is(err, safedec.ErrLimit) {
		t.Fatalf("tiny-limit load = %v, want ErrLimit", err)
	}
}

func TestGC(t *testing.T) {
	r := openTemp(t)
	for seed := uint64(1); seed <= 5; seed++ {
		if _, err := r.Publish("m1", testArtifactBytes(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := r.GC("m1", 2)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if len(removed) != 3 || removed[0] != 1 || removed[2] != 3 {
		t.Fatalf("removed = %v", removed)
	}
	versions, err := r.Versions("m1")
	if err != nil || len(versions) != 2 || versions[0].Number != 4 {
		t.Fatalf("Versions after GC = %v, %v", versions, err)
	}
	// The deleted files are gone; the kept ones still load.
	if _, err := os.Stat(filepath.Join(r.Root(), "m1", "v000001.model")); !os.IsNotExist(err) {
		t.Fatalf("v1 still present: %v", err)
	}
	latest, err := r.Latest("m1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load(latest, safedec.Limits{}); err != nil {
		t.Fatalf("load after GC: %v", err)
	}
	// GC is idempotent and never deletes below keep.
	if removed, err := r.GC("m1", 2); err != nil || removed != nil {
		t.Fatalf("second GC = %v, %v", removed, err)
	}
	if _, err := r.GC("m1", 0); err == nil {
		t.Fatal("GC keep=0 accepted")
	}
	// Publishing after GC continues the version sequence.
	v, err := r.Publish("m1", testArtifactBytes(t, 9))
	if err != nil || v.Number != 6 {
		t.Fatalf("publish after GC = %+v, %v", v, err)
	}
}

func TestManifestRejectsTampering(t *testing.T) {
	r := openTemp(t)
	v, err := r.Publish("m1", testArtifactBytes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(r.Root(), "m1", "MANIFEST")
	cases := []string{
		"1 deadbeef 10\n",          // short sha
		"x aaaa 10\n",              // bad version
		"1 " + v.SHA256 + " -1\n",  // negative size
		"1 " + v.SHA256 + "\n",     // missing field
		"1 " + v.SHA256 + " 1 1\n", // extra field
	}
	for _, c := range cases {
		if err := os.WriteFile(manifest, []byte(c), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Versions("m1"); err == nil {
			t.Fatalf("manifest %q accepted", c)
		}
	}
	// Duplicate version lines are rejected too.
	line := "1 " + v.SHA256 + " 10\n"
	if err := os.WriteFile(manifest, []byte(line+line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Versions("m1"); err == nil {
		t.Fatal("duplicate manifest versions accepted")
	}
}

func TestConcurrentPublishCollision(t *testing.T) {
	// Simulate the losing half of a concurrent publish: the version file
	// already exists when Publish goes to create it exclusively.
	r := openTemp(t)
	if _, err := r.Publish("m1", testArtifactBytes(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Forge a pre-existing next-version file.
	if err := os.WriteFile(filepath.Join(r.Root(), "m1", "v000002.model"), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("m1", testArtifactBytes(t, 2)); err == nil {
		t.Fatal("publish overwrote a pre-existing version file")
	}
}

// TestGCUnderConcurrentPublish hammers one registry handle with parallel
// publishers and GC sweeps. The in-process mutator mutex must keep every
// manifest row backed by a live, hash-clean file — without it, a publish
// that read the manifest before a racing GC rewrote it resurrects rows
// whose files GC just deleted. Run under -race this also proves the
// mutators share no unsynchronized state.
func TestGCUnderConcurrentPublish(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Publish("m1", testArtifactBytes(t, 1)); err != nil {
		t.Fatal(err)
	}
	const publishers = 2
	const perPublisher = 8
	bufs := make([][]byte, publishers)
	for i := range bufs {
		bufs[i] = testArtifactBytes(t, uint64(100+i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, publishers+1)
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(buf []byte) {
			defer wg.Done()
			for j := 0; j < perPublisher; j++ {
				if _, err := r.Publish("m1", buf); err != nil {
					errs <- err
					return
				}
			}
		}(bufs[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3*perPublisher; j++ {
			if _, err := r.GC("m1", 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	versions, err := r.Versions("m1")
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving manifest row must be backed by a loadable,
	// hash-verified file, and the newest version must reflect all
	// publishes despite the GC churn.
	for _, v := range versions {
		if _, err := r.Load(v, safedec.Limits{}); err != nil {
			t.Fatalf("version %d in manifest but not loadable: %v", v.Number, err)
		}
	}
	latest, err := r.Latest("m1")
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + publishers*perPublisher; latest.Number != want {
		t.Fatalf("latest version %d, want %d", latest.Number, want)
	}
	if _, err := r.GC("m1", 1); err != nil {
		t.Fatal(err)
	}
	if versions, err = r.Versions("m1"); err != nil || len(versions) != 1 {
		t.Fatalf("final GC left %d versions (err %v), want 1", len(versions), err)
	}
}
