package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"carol/internal/core"
	"carol/internal/dataset"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/safedec"
	"carol/internal/trainset"
)

// tinyArgs returns a flag set that trains in well under a second.
func tinyArgs(dir string, extra ...string) []string {
	args := []string{
		"-codec", "szx",
		"-model-dir", dir,
		"-datasets", "miranda:velocityx",
		"-dims", "16x16x8",
		"-bounds", "6",
		"-bo-iters", "2",
		"-forest-cap", "8",
		"-kfolds", "2",
		"-workers", "1",
		"-seed", "7",
	}
	return append(args, extra...)
}

func TestRunPublishesLoadableVersions(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(tinyArgs(dir), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"generated 1 fields in", "collected", "forest:", "published szx v1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// Second run publishes version 2 alongside version 1.
	if err := run(tinyArgs(dir), &out); err != nil {
		t.Fatalf("second run: %v", err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := reg.Versions("szx")
	if err != nil || len(versions) != 2 {
		t.Fatalf("Versions = %v, %v", versions, err)
	}
	latest, err := reg.Latest("szx")
	if err != nil || latest.Number != 2 {
		t.Fatalf("Latest = %+v, %v", latest, err)
	}
	art, err := reg.Load(latest, safedec.Default())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := art.ServingCheck(); err != nil {
		t.Fatalf("published artifact not servable: %v", err)
	}
	if art.Meta["seed"] != "7" || art.Meta["datasets"] != "miranda:velocityx" {
		t.Fatalf("meta = %v", art.Meta)
	}
}

// TestRunMatchesInProcessTraining asserts the published artifact predicts
// bit-identically to an identically configured in-process framework — the
// acceptance criterion that serving from the registry changes nothing.
func TestRunMatchesInProcessTraining(t *testing.T) {
	dir := t.TempDir()
	if err := run(tinyArgs(dir), &bytes.Buffer{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, err := reg.Latest("szx")
	if err != nil {
		t.Fatal(err)
	}
	art, err := reg.Load(latest, safedec.Default())
	if err != nil {
		t.Fatal(err)
	}

	f, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 16, Ny: 16, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		ErrorBounds:  trainset.GeometricBounds(1e-4, 1e-1, 6),
		BOIterations: 2,
		ForestCap:    8,
		KFolds:       2,
		Workers:      1,
		Seed:         7,
	}
	fw, err := core.New("szx", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Collect([]*field.Field{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}

	probe, err := dataset.Generate("miranda", "density", dataset.Options{Nx: 16, Ny: 16, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	ratios := []float64{2, 8, 32, 128}
	want, err := fw.PredictErrorBounds(probe, ratios)
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.PredictErrorBounds(probe, ratios, features.ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, ratio := range ratios {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ratio %g: artifact predicts %x, framework predicts %x",
				ratio, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestParseFlagErrors(t *testing.T) {
	cases := [][]string{
		{},                       // missing everything
		{"-codec", "szx"},        // missing -model-dir
		{"-model-dir", "/tmp/x"}, // missing -codec
		{"-codec", "szx", "-model-dir", "/tmp/x", "-bounds", "1"}, // bounds too small
	}
	for _, c := range cases {
		if _, err := parseFlags(c); err == nil {
			t.Fatalf("parseFlags(%v) accepted", c)
		}
	}
}

// TestParseFlagRanges: a numeric flag below its range is refused before any
// work, instead of silently becoming the framework's default; the values
// the benchmark and the smoke scripts pass stay valid.
func TestParseFlagRanges(t *testing.T) {
	for _, c := range []struct {
		flag, val string
		ok        bool
	}{
		{"-bo-iters", "0", false},
		{"-bo-iters", "-2", false},
		{"-bo-iters", "1", true},
		{"-kfolds", "0", false},
		{"-kfolds", "1", false},
		{"-kfolds", "2", true},
		{"-forest-cap", "-3", false},
		{"-forest-cap", "0", true},
		{"-forest-cap", "4", true},
		{"-workers", "-4", false},
		{"-workers", "0", true},
		{"-workers", "1", true},
		{"-bounds", "1", false},
		{"-bounds", "4", true},
		{"-gc", "-3", false},
		{"-gc", "0", true},
	} {
		_, err := parseFlags([]string{"-codec", "szx", "-model-dir", "m", c.flag, c.val})
		if (err == nil) != c.ok {
			t.Errorf("%s %s: error %v, want ok=%v", c.flag, c.val, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), c.flag+" "+c.val) {
			t.Errorf("%s %s: error %q does not name the flag and value", c.flag, c.val, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(tinyArgs(dir, "-datasets", "nosuch"), &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run(tinyArgs(dir, "-name", "Bad Name"), &out); err == nil {
		t.Fatal("invalid registry name accepted")
	}
	if err := run(tinyArgs(dir, "-codec", "nosuchcodec"), &out); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestGenerateFieldsNamesFirstBadEntry: generation fans out, but the
// spec is checked in order, so the error names the first bad entry and
// good specs come back in spec order whatever the worker count.
func TestGenerateFieldsNamesFirstBadEntry(t *testing.T) {
	for _, c := range []struct{ spec, bad string }{
		{"miranda,nosuch,alsobad", "nosuch"},
		{"miranda:velocityx,miranda:nosuch,nosuch", "miranda:nosuch"},
		{"nyx:nosuch,nosuch", "nyx:nosuch"},
	} {
		for _, workers := range []int{1, 0} {
			_, err := generateFields(c.spec, "8x8x4", workers)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry %q", c.bad)) {
				t.Errorf("-datasets %s, workers %d: error %v, want one naming %q", c.spec, workers, err, c.bad)
			}
		}
	}
	var want []string
	for _, workers := range []int{1, 0, 3} {
		fields, err := generateFields("hurricane:TC, miranda ,nyx:temperature", "8x8x4", workers)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range fields {
			got = append(got, f.Name)
		}
		if want == nil {
			want = got
		}
		if len(got) != 9 || got[0] != "hurricane/TC" || got[8] != "nyx/temperature" || !slices.Equal(got, want) {
			t.Fatalf("workers %d generated %v", workers, got)
		}
	}
}

func TestRunGC(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := run(tinyArgs(dir), &out); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := run(tinyArgs(dir, "-gc", "2"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gc removed versions [1 2]") {
		t.Fatalf("gc output:\n%s", out.String())
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := reg.Versions("szx")
	if err != nil || len(versions) != 2 || versions[0].Number != 3 {
		t.Fatalf("Versions after gc = %v, %v", versions, err)
	}
}

// TestRunZooBackends drives the multi-backend path: the published
// artifact must carry the zoo scoreboard and a backend tag matching the
// recorded winner.
func TestRunZooBackends(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(tinyArgs(dir, "-backends", "rf,boost"), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"zoo: rf cv mse", "zoo: boost cv mse", "zoo: winner"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, err := reg.Latest("szx")
	if err != nil {
		t.Fatal(err)
	}
	art, err := reg.Load(latest, safedec.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := art.ServingCheck(); err != nil {
		t.Fatalf("zoo artifact not servable: %v", err)
	}
	winner := art.Meta["zoo_best_backend"]
	if winner == "" || art.BackendTag() != winner {
		t.Fatalf("backend %q, scoreboard winner %q (meta %v)", art.BackendTag(), winner, art.Meta)
	}
	for _, b := range []string{"rf", "boost"} {
		if _, ok := art.Meta["zoo_cv_mse_"+b]; !ok {
			t.Fatalf("scoreboard missing %s: %v", b, art.Meta)
		}
	}
	// A bad -backends list, the retired knn tag included, is a flag error:
	// rejected before collection, so nothing of the pipeline has printed yet.
	for _, bad := range []string{"nope", "rf,nope", "rf,rf", ",", "knn", "rf,knn"} {
		out.Reset()
		if err := run(tinyArgs(dir, "-backends", bad), &out); err == nil {
			t.Fatalf("-backends %q accepted", bad)
		}
		if out.Len() != 0 {
			t.Fatalf("-backends %q rejected only after work was done:\n%s", bad, out.String())
		}
	}
}

// TestRunBestCVMSEPositive: the forest search's best CV MSE, printed and
// published as best_cv_mse, is an error, finite and above 0, like the
// zoo's zoo_cv_mse_* keys; it used to be the search's negative score.
func TestRunBestCVMSEPositive(t *testing.T) {
	for _, backends := range []string{"rf", "rf,boost"} {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run(tinyArgs(dir, "-backends", backends), &out); err != nil {
			t.Fatalf("-backends %s: %v\n%s", backends, err, out.String())
		}
		v, err := strconv.ParseFloat(loadLatest(t, dir, "szx").Meta["best_cv_mse"], 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			t.Fatalf("-backends %s: best_cv_mse %v (%v), want finite > 0", backends, v, err)
		}
		if want := fmt.Sprintf("best CV MSE %.6g ", v); !strings.Contains(out.String(), want) {
			t.Fatalf("-backends %s: output missing %q:\n%s", backends, want, out.String())
		}
	}
}

// loadLatest reads the newest version of name published under dir.
func loadLatest(t *testing.T, dir, name string) *model.Artifact {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, err := reg.Latest(name)
	if err != nil {
		t.Fatal(err)
	}
	art, err := reg.Load(latest, safedec.Default())
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// encodeWithout encodes a with its trained_at stamp dropped.
func encodeWithout(t *testing.T, a *model.Artifact) []byte {
	t.Helper()
	delete(a.Meta, "trained_at")
	buf, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestZooDeterminism: a multi-backend run publishes the same artifact,
// scoreboard included, at -workers 1 and 4.
func TestZooDeterminism(t *testing.T) {
	var want []byte
	for _, workers := range []string{"1", "4"} {
		dir := t.TempDir()
		args := append(tinyArgs(dir, "-backends", "boost,rf"), "-workers", workers)
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		got := encodeWithout(t, loadLatest(t, dir, "szx"))
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("-workers %s published a different artifact", workers)
		}
	}
}

// TestZooSubsetBackends: -backends boost runs no forest search and
// publishes exactly the regressor core.Config{Model: "boost"} fits, with
// no BO or zoo keys in its metadata.
func TestZooSubsetBackends(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(tinyArgs(dir, "-backends", "boost"), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "BO evaluated") || strings.Contains(out.String(), "zoo:") {
		t.Fatalf("-backends boost searched or compared:\n%s", out.String())
	}
	art := loadLatest(t, dir, "szx")
	for k := range art.Meta {
		if k == "bo_iterations" || k == "best_cv_mse" || strings.HasPrefix(k, "zoo_") {
			t.Fatalf("metadata carries %s: %v", k, art.Meta)
		}
	}
	f, err := dataset.Generate("miranda", "velocityx", dataset.Options{Nx: 16, Ny: 16, Nz: 8})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New("szx", core.Config{
		ErrorBounds: trainset.GeometricBounds(1e-4, 1e-1, 6),
		KFolds:      2,
		Model:       "boost",
		Workers:     1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Collect([]*field.Field{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Train(); err != nil {
		t.Fatal(err)
	}
	want, err := fw.Artifact(art.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeWithout(t, art), encodeWithout(t, want)) {
		t.Fatal("published boost artifact differs from core's")
	}
}
