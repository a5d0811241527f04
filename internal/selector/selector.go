// Package selector implements mode=auto codec selection — the
// serving-side realization of Tao et al.'s "Automatic Online Selection
// between SZ and ZFP" generalized to every codec in the registry
// (DESIGN.md §16).
//
// A Selector scores every candidate codec with its ranking surrogate
// (codecs.RankingSurrogate: the search surrogate where the codec has one,
// else its default SECRE surrogate) at the request's exact field and
// bound, and picks the cheapest candidate predicted to meet the caller's
// ratio target, or the best predicted ratio when no target is given.
//
// Contracts the serving layer relies on:
//
//   - Stateless: a decision is a pure function of (field, bound, target).
//     Observe feeds metrics only, so neither the order of requests nor
//     their outcomes moves a later pick, and a fresh process answers as a
//     long-running one does.
//   - Race safety: Select and Observe may be called concurrently; they
//     share no mutable state beyond atomic counters and metrics.
//   - Total selection: Select never returns a codec outside the
//     configured set; if every surrogate fails it falls back to the
//     cheapest candidate rather than failing the request.
package selector

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/secre"
)

// missBuckets bound selector_prediction_miss, |predicted/achieved - 1| of
// the chosen codec's prediction: the buckets of fraz_ratio_miss, so the
// two misses read on one scale.
var missBuckets = []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1}

// Config tunes a Selector. The zero value selects among every registered
// codec.
type Config struct {
	// Codecs is the candidate set, in cost order of preference for ties.
	// Default codecs.ExtendedNames. Every name must have a surrogate.
	Codecs []string
	// Seed is ignored: selection draws no random numbers. It is kept only
	// because the benchmark harness still sets it (ROADMAP item 3).
	Seed uint64
	// Estimators overrides the surrogate for the named codecs (tests
	// inject fixed-ratio estimators here). Codecs not in the map use
	// codecs.RankingSurrogate.
	Estimators map[string]compressor.Estimator
	// Registry receives the selector metrics. Default obs.Default.
	Registry *obs.Registry
}

// Selector is the stateless codec chooser. Create with New.
type Selector struct {
	names []string
	costs []int
	ests  []compressor.Estimator

	decisions atomic.Int64
	rejected  atomic.Int64

	// Metric handles, resolved once at construction from the fixed codec
	// set (bounded label cardinality by construction).
	recorders     []*secre.OutcomeRecorder
	decTotal      []*obs.Counter
	missHist      []*obs.Histogram
	rejectTotal   *obs.Counter
	selectSeconds *obs.Histogram
}

// New builds a Selector over cfg's candidate set.
func New(cfg Config) (*Selector, error) {
	if len(cfg.Codecs) == 0 {
		cfg.Codecs = codecs.ExtendedNames
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	s := &Selector{
		names:         append([]string(nil), cfg.Codecs...),
		rejectTotal:   cfg.Registry.Counter("selector_outcome_rejects_total"),
		selectSeconds: cfg.Registry.Histogram("selector_select_seconds", obs.LatencyBuckets()),
	}
	seen := make(map[string]bool, len(s.names))
	for _, name := range s.names {
		if seen[name] {
			return nil, fmt.Errorf("selector: duplicate codec %q", name)
		}
		seen[name] = true
		s.costs = append(s.costs, codecs.Cost(name))
		est := cfg.Estimators[name]
		if est == nil {
			var err error
			if est, err = codecs.RankingSurrogate(name); err != nil {
				return nil, fmt.Errorf("selector: %w", err)
			}
		}
		s.ests = append(s.ests, est)
		s.recorders = append(s.recorders, secre.NewOutcomeRecorder(name))
		s.decTotal = append(s.decTotal, cfg.Registry.Counter(obs.Label("selector_decisions_total", "codec", name)))
		s.missHist = append(s.missHist, cfg.Registry.Histogram(obs.Label("selector_prediction_miss", "codec", name), missBuckets))
	}
	return s, nil
}

// Decision is one selection outcome. Pass it to Observe with the achieved
// ratio to record how far the prediction was off.
type Decision struct {
	// Codec is the chosen candidate — always a member of the configured
	// set.
	Codec string

	predicted float64 // the chosen codec's estimate; 0 for a cost fallback
	index     int     // chosen candidate index
}

// PredictedRatio returns the chosen codec's prediction (0 when its
// surrogate failed and the choice was a cost fallback).
func (d Decision) PredictedRatio() float64 { return d.predicted }

// Select picks a codec for compressing f under absolute error bound eb.
// targetRatio > 0 asks for the cheapest candidate predicted to reach at
// least that ratio; targetRatio == 0 asks for the best predicted ratio.
// The returned Decision always names a configured codec.
func (s *Selector) Select(f *field.Field, eb, targetRatio float64) (Decision, error) {
	start := time.Now()
	defer s.selectSeconds.ObserveSince(start)
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return Decision{}, err
	}
	if targetRatio < 0 || math.IsNaN(targetRatio) || math.IsInf(targetRatio, 0) {
		return Decision{}, fmt.Errorf("selector: invalid target ratio %g", targetRatio)
	}
	// A surrogate that fails or returns no usable ratio scores NaN: that
	// candidate sits this request out.
	scores := make([]float64, len(s.ests))
	for i, est := range s.ests {
		r, err := est.EstimateRatio(f, eb)
		if err != nil || !(r > 0) || math.IsInf(r, 0) {
			r = math.NaN()
		}
		scores[i] = r
	}
	choice := s.decide(scores, targetRatio)
	s.decisions.Add(1)
	s.decTotal[choice].Inc()
	d := Decision{Codec: s.names[choice], index: choice}
	if !math.IsNaN(scores[choice]) {
		d.predicted = scores[choice]
	}
	return d, nil
}

// decide is the allocation-free decision core: given the scores (NaN =
// unusable candidate) and the ratio target, pick an index. With a target,
// the cheapest candidate whose score meets it (ties: higher score); with
// no target or no candidate meeting it, the highest score (ties: cheaper).
// All surrogates failing falls back to the cheapest candidate.
func (s *Selector) decide(scores []float64, target float64) int {
	best, cheapEligible := -1, -1
	for i, sc := range scores {
		if math.IsNaN(sc) {
			continue
		}
		if best < 0 || sc > scores[best] ||
			(sc == scores[best] && s.costs[i] < s.costs[best]) { //carol:allow floateq deterministic cost tie-break on equal scores
			best = i
		}
		if target > 0 && sc >= target &&
			(cheapEligible < 0 || s.costs[i] < s.costs[cheapEligible] ||
				(s.costs[i] == s.costs[cheapEligible] && sc > scores[cheapEligible])) {
			cheapEligible = i
		}
	}
	switch {
	case cheapEligible >= 0:
		return cheapEligible
	case best >= 0:
		return best
	}
	// Every surrogate failed: serve with the cheapest candidate rather than
	// failing the request.
	cheapest := 0
	for i := 1; i < len(s.costs); i++ {
		if s.costs[i] < s.costs[cheapest] {
			cheapest = i
		}
	}
	return cheapest
}

// Observe records what the caller achieved compressing with d.Codec: the
// pair feeds the shared secre estimate-vs-actual metrics and the codec's
// prediction-miss histogram. It changes no later decision. Non-finite or
// non-positive outcomes (and decisions whose surrogate failed) are
// rejected with a counter.
func (s *Selector) Observe(d Decision, actual float64) {
	pred := d.predicted
	if d.index < 0 || d.index >= len(s.names) ||
		!(actual > 0) || math.IsInf(actual, 0) || !(pred > 0) || math.IsInf(pred, 0) {
		s.rejectTotal.Inc()
		s.rejected.Add(1)
		return
	}
	s.recorders[d.index].Record(pred, actual)
	s.missHist[d.index].Observe(math.Abs(pred/actual - 1))
}

// Stats is the /v1/selector debug snapshot.
type Stats struct {
	Codecs []string `json:"codecs"`
	// Decisions counts Select calls that returned a codec.
	Decisions int64 `json:"decisions"`
	// RejectedOutcomes counts Observe calls dropped for non-finite or
	// unusable inputs.
	RejectedOutcomes int64 `json:"rejected_outcomes"`
}

// Stats snapshots the selector's counters for the debug endpoint.
func (s *Selector) Stats() Stats {
	return Stats{
		Codecs:           append([]string(nil), s.names...),
		Decisions:        s.decisions.Load(),
		RejectedOutcomes: s.rejected.Load(),
	}
}
