package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carol/internal/features"
	"carol/internal/registry"
	"carol/internal/trainset"
	"carol/internal/xrand"
)

func fillJournal(t *testing.T, dir, codec string, n int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := trainset.OpenJournal(trainset.JournalPath(dir, codec), trainset.DefaultJournalCap)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	for i := 0; i < n; i++ {
		v := features.Vector{
			Mean:  rng.Float64(),
			Range: 1 + rng.Float64(),
			MND:   rng.Float64(),
			MLD:   rng.Float64(),
			MSD:   rng.Float64(),
		}
		ratio := 5 + rng.Float64()*40
		releb := math.Pow(10, -3+0.7*math.Log10(ratio)+0.02*rng.Norm())
		if err := j.Append(trainset.Record{Features: v, Ratio: ratio, RelEB: releb}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOneShotBootstrap runs the CLI end to end against a real journal and
// an empty registry: one cycle, bootstrap publish, operator report.
func TestOneShotBootstrap(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	fillJournal(t, harvest, "szx", 120)
	var out strings.Builder
	err := run([]string{
		"-codec", "szx", "-model-dir", regDir, "-harvest-dir", harvest,
		"-kfolds", "3", "-backends", "rf,boost",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bootstrap: published szx v1") {
		t.Fatalf("output:\n%s", out.String())
	}
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Latest("szx"); err != nil {
		t.Fatalf("nothing published: %v", err)
	}
}

// TestOneShotTooFew: an underfilled journal must not create a model.
func TestOneShotTooFew(t *testing.T) {
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	fillJournal(t, harvest, "szx", 3)
	var out strings.Builder
	if err := run([]string{"-codec", "szx", "-model-dir", regDir, "-harvest-dir", harvest}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "too-few-samples: nothing published") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-codec", "szx"}, &strings.Builder{}); err == nil {
		t.Fatal("missing dirs accepted")
	}
	for _, bad := range []string{"svm", "rf,rf", ",", "knn"} {
		if err := run([]string{"-codec", "szx", "-model-dir", "m", "-harvest-dir", "h", "-backends", bad}, &strings.Builder{}); err == nil {
			t.Fatalf("-backends %q accepted", bad)
		}
	}
	// The retired knn tag is refused before the journal is read: a journal
	// full enough to retrain on yields no report and no model.
	dir := t.TempDir()
	harvest, regDir := filepath.Join(dir, "harvest"), filepath.Join(dir, "models")
	fillJournal(t, harvest, "szx", 120)
	var out strings.Builder
	err := run([]string{"-codec", "szx", "-model-dir", regDir, "-harvest-dir", harvest, "-backends", "rf,knn"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"knn"`) {
		t.Fatalf("-backends rf,knn: error %v, want the unknown knn tag", err)
	}
	if out.Len() != 0 {
		t.Fatalf("-backends rf,knn reported a cycle:\n%s", out.String())
	}
	if _, err := os.Stat(regDir); !os.IsNotExist(err) {
		t.Fatalf("registry created for a refused backend list: %v", err)
	}
}
