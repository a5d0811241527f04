package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// loadRuns reads the untraced results of one JSON-lines file (as written by
// -out and repeat.sh), grouped by workload.
func loadRuns(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(runs []*result, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// worseBy is how much worse change is than base, as a share of base, in the
// metric's own direction: positive means worse.
func worseBy(m metricSpec, base, change float64) float64 {
	if base == 0 { //carol:allow floateq guards the division; a zero base has no relative change
		return 0
	}
	d := (change - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every run of change reads better than every
// run of base.
func allBetter(m metricSpec, base, change []float64) bool {
	if len(base) == 0 || len(change) == 0 {
		return false
	}
	bs, cs := sorted(base), sorted(change)
	if m.Better == "higher" {
		return cs[0] > bs[len(bs)-1]
	}
	return cs[len(cs)-1] < bs[0]
}

// verdict labels one (metric, workload) pair by the rule of the
// choosing-metrics guide: regressed when the change's median is worse than
// the base's by more than the bound; unresolved when it is not, but the
// run-to-run spread of either side is wider than the bound, unless every
// run of the change beats every run of the base; ok otherwise.
func verdict(m metricSpec, base, change []float64) string {
	if worseBy(m, median(base), median(change)) > m.Bound {
		return "regressed"
	}
	if (spread(base) > m.Bound || spread(change) > m.Bound) && !allBetter(m, base, change) {
		return "unresolved"
	}
	return "ok"
}

// runCompare prints, for every workload and end-to-end metric, the median
// and quartiles of one or two result sets. With two sets it labels each
// pair; with one it reports the spread against the bound, which is how the
// bounds in BENCHMARK.json were chosen. It exits 1 if any pair regressed or
// is unresolved (or, with one set, if any spread exceeds its bound).
func runCompare(spec *benchSpec, args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.jsonl [change.jsonl]")
		return 2
	}
	sets := make([]map[string][]*result, len(args))
	for i, path := range args {
		runs, err := loadRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = runs
	}
	bad := 0
	for _, w := range workloadNames() {
		base := sets[0][w]
		if len(base) == 0 {
			continue
		}
		fmt.Printf("\n%s  (%d runs", w, len(base))
		if len(sets) == 2 {
			fmt.Printf(" vs %d runs", len(sets[1][w]))
		}
		fmt.Println(")")
		for _, m := range spec.EndToEnd {
			bv := values(base, m.Name)
			q1, q2, q3 := quartiles(bv)
			line := fmt.Sprintf("  %-24s %-8s base %11.5g [%11.5g %11.5g] spread %5.1f%%",
				m.Name, m.Unit, q2, q1, q3, 100*spread(bv))
			label := "ok"
			if len(sets) == 2 {
				cv := values(sets[1][w], m.Name)
				c1, c2, c3 := quartiles(cv)
				line += fmt.Sprintf("  change %11.5g [%11.5g %11.5g] spread %5.1f%%  worse by %+6.1f%%",
					c2, c1, c3, 100*spread(cv), 100*worseBy(m, q2, c2))
				label = verdict(m, bv, cv)
			} else if m.Name != "setup_s" && spread(bv) > m.Bound {
				label = "spread>bound"
			}
			if label != "ok" {
				bad++
			}
			fmt.Printf("%s  bound %4.1f%%  %s\n", line, 100*m.Bound, label)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d (metric, workload) pairs are not ok\n", bad)
		return 1
	}
	fmt.Println("\nevery (metric, workload) pair is ok")
	return 0
}
