package kittest

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// LabelsBounded is both tiers' label-cardinality test: pass must send the
// tier's request table with fresh random values for every query value,
// name, id and unknown path. It runs twice, and the number of /metrics
// series must be the same after both: a series the second pass adds was
// minted from request input. pass should request /metrics itself, so the
// scrape's own series exists from the first pass on.
func LabelsBounded(t testing.TB, h http.Handler, pass func()) {
	t.Helper()
	pass()
	before := metricSeries(t, h)
	pass()
	after := metricSeries(t, h)
	if len(after) == len(before) {
		return
	}
	var minted []string
	for s := range after {
		if !before[s] {
			minted = append(minted, s)
		}
	}
	sort.Strings(minted)
	t.Fatalf("fresh request values took /metrics from %d to %d series; new: %s",
		len(before), len(after), strings.Join(minted, ", "))
}

// metricSeries scrapes h's /metrics: every sample line without its value.
func metricSeries(t testing.TB, h http.Handler) map[string]bool {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	series := make(map[string]bool)
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			series[line[:i]] = true
		}
	}
	return series
}
