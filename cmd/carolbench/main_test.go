package main

import (
	"strings"
	"testing"

	"carol/internal/experiments"
)

// TestParseFlagRanges: a negative -workers, and a -workers that the chosen
// experiment would ignore, are refused before any experiment runs.
func TestParseFlagRanges(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string // "" = accepted
	}{
		{[]string{"-workers", "-2"}, "-workers -2 < 0"},
		{[]string{"-workers", "-1", "-experiment", "thr"}, "-workers -1 < 0"},
		{[]string{"-workers", "3", "-experiment", "table2"}, "-experiment table2 does not use it"},
		{[]string{"-workers", "0", "-experiment", "fig7"}, "-experiment fig7 does not use it"},
		{[]string{"-scale", "huge"}, "unknown scale"},
		{[]string{"-workers", "3"}, ""},
		{[]string{"-workers", "2", "-experiment", "thr"}, ""},
		{[]string{"-experiment", "table2", "-scale", "paper"}, ""},
		{[]string{"-list"}, ""},
		{nil, ""},
	} {
		_, err := parseFlags(c.args)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.err)
		}
	}
	o, err := parseFlags([]string{"-experiment", "fig5a", "-scale", "paper"})
	if err != nil || o.exp != "fig5a" || o.scale != experiments.ScalePaper || o.workers != 0 {
		t.Fatalf("parsed %+v, %v", o, err)
	}
}

// TestRunRefusesBeforeWork: a refused flag set exits 2 without running an
// experiment.
func TestRunRefusesBeforeWork(t *testing.T) {
	for _, args := range [][]string{{"-workers", "-2"}, {"-workers", "3", "-experiment", "table2"}} {
		if code := run(args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
