package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseScale(t *testing.T) {
	for _, s := range []string{"", "quick"} {
		if got, err := ParseScale(s); err != nil || got != ScaleQuick {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if got, err := ParseScale("paper"); err != nil || got != ScalePaper {
		t.Fatalf("ParseScale(paper) = %v, %v", got, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestRegistryAndFind(t *testing.T) {
	reg := Registry()
	if len(reg) != 20 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	ids := map[string]bool{}
	for _, r := range reg {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("bad runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
		if _, err := Find(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Every artifact of the paper's evaluation must be present.
	for _, want := range []string{"table2", "table3", "table4", "table5",
		"fig2", "fig3", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

// smoke runs one experiment at quick scale and checks it printed
// substantive output including the given markers.
func smoke(t *testing.T, id string, markers ...string) {
	t.Helper()
	r, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Run(&buf, ScaleQuick); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 100 {
		t.Fatalf("%s: suspiciously short output:\n%s", id, out)
	}
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Fatalf("%s: output missing %q:\n%s", id, m, out)
		}
	}
}

func TestRunTable2(t *testing.T) { smoke(t, "table2", "miranda", "hurricane", "paper dims") }

func TestRunFig2(t *testing.T) { smoke(t, "fig2", "[szx]", "[sperr]", "f_SECRE(e)", "f_search(e)") }

func TestRunFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "fig3", "calibration", "α")
}

func TestRunFig5a(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "fig5a", "grid search", "BO (checkpointed)")
}

func TestRunFig5b(t *testing.T) { smoke(t, "fig5b", "miranda", "mrs") }

func TestRunFig6(t *testing.T) { smoke(t, "fig6", "serial-full", "parallel (CAROL)", "compress sperr") }

func TestRunFig9(t *testing.T) { smoke(t, "fig9", "speedup", "hurricane") }

func TestRunTable4(t *testing.T) { smoke(t, "table4", "speedup", "sperr full") }

func TestRunTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "table5", "[sz3]", "[sperr]", "average")
}

func TestRunFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "fig10", "calibrated", "[sz3]")
}

func TestRunTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "table3", "BD", "V-X", "average")
}

func TestRunFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "fig7", "requested f", "f_CAROL")
}

func TestRunFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "fig8", "setup speedup", "CAROL collect")
}

func TestRunExt1(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "ext1", "rf", "boost")
}

func TestRunExt2(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "ext2", "FRaZ", "CAROL", "[szx]", "[zfp]", "+surrogate:")
}

func TestRunExt3(t *testing.T) { smoke(t, "ext3", "surrogate", "rel_eb") }

func TestRunExt4(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "ext4", "round", "α on unseen regime")
}

func TestRunExt5(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment")
	}
	smoke(t, "ext5", "log-ratio", "mnd")
}

func TestRunExt6(t *testing.T) { smoke(t, "ext6", "prefix", "PSNR") }

func TestGenFieldSizes(t *testing.T) {
	p := paramsFor(ScaleQuick)
	f, err := p.genField("nyx", "temperature", 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Nx != p.dims3D.Nx {
		t.Fatalf("field nx %d", f.Nx)
	}
	tf, err := p.genTimingField("nyx", "temperature", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Len() <= f.Len() {
		t.Fatal("timing field not larger")
	}
	// CESM must come out 2D regardless of sizing.
	c, err := p.genField("cesm", "TS", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nz != 1 {
		t.Fatal("cesm not 2D")
	}
}

func TestMsFormatting(t *testing.T) {
	cases := []struct {
		us   int64
		want string
	}{
		{500, "0.50ms"}, {25_000, "25ms"}, {2_500_000, "2.5s"},
	}
	for _, c := range cases {
		if got := ms(durationMicros(c.us)); got != c.want {
			t.Errorf("ms(%dus) = %q, want %q", c.us, got, c.want)
		}
	}
}
