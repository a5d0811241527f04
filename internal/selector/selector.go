// Package selector implements online adaptive codec selection — the
// serving-side realization of Tao et al.'s "Automatic Online Selection
// between SZ and ZFP" generalized to every codec in the registry
// (ROADMAP item 3, DESIGN.md §16).
//
// A Selector scores every candidate codec with its SECRE surrogate
// (internal/secre), corrects each estimate with an online per-codec,
// per-field-shape bias learned from observed estimate-vs-actual pairs,
// and picks the cheapest candidate predicted to meet the caller's ratio
// target (or the best-compressing candidate when no target is given).
// An epsilon-greedy bandit layer keeps exploring the non-greedy arms so
// the bias estimates stay fresh; the reward closing the loop is exactly
// the estimate-vs-actual relative error that secre.RecordOutcome
// surfaces — a codec whose surrogate systematically overpromises on a
// tenant's field shapes sees its corrected score shrink and loses
// selection probability online.
//
// Contracts the serving layer relies on:
//
//   - Bounded state: one arm per (codec, shape bucket); the codec set is
//     fixed at construction and the bucket set is a compile-time constant,
//     so memory never grows with traffic.
//   - Race safety: Select and Observe may be called concurrently; the
//     surrogate estimates run outside the lock, only the decide/update
//     steps serialize.
//   - Determinism: all randomness comes from an explicit xrand seed, so a
//     fixed seed and a fixed request sequence reproduce the exact same
//     decisions (the smoke fleet and the regression tests pin outcomes).
//   - Total selection: Select never returns a codec outside the
//     configured set; if every surrogate fails it falls back to the
//     cheapest candidate rather than failing the request.
package selector

import (
	"fmt"
	"math"
	"sync"
	"time"

	"carol/internal/codecs"
	"carol/internal/compressor"
	"carol/internal/features"
	"carol/internal/field"
	"carol/internal/obs"
	"carol/internal/secre"
	"carol/internal/xrand"
)

// Shape buckets: dimensionality × roughness. Per-bucket bias state is what
// makes the feedback loop shape-aware — a surrogate can be well calibrated
// on smooth 3D fields and badly biased on noisy 1D traces, and the two
// must not average each other out.
const bucketCount = 6

var bucketNames = [bucketCount]string{
	"1d-smooth", "1d-rough", "2d-smooth", "2d-rough", "3d-smooth", "3d-rough",
}

// roughFraction is the MND-to-range ratio above which a field counts as
// rough: smooth scientific fields sit well below it, white-noise-dominated
// ones well above.
const roughFraction = 0.02

// bucketOf maps a field and its extracted feature vector to a shape bucket.
func bucketOf(f *field.Field, v features.Vector) int {
	rough := 0
	if v.Range > 0 && v.MND > roughFraction*v.Range {
		rough = 1
	}
	return (f.Dims()-1)*2 + rough
}

// biasClamp bounds the bias EMA so one absurd outcome cannot zero a score
// forever (corrected = raw / (1 + bias), bias in [-0.9, 9]).
const (
	biasMin = -0.9
	biasMax = 9.0
)

// biasAlpha is the EMA weight of the newest estimate-vs-actual relative
// error.
const biasAlpha = 0.3

// missBuckets bound selector_prediction_miss, |predicted/achieved - 1| of
// the chosen codec's corrected prediction: the buckets of fraz_ratio_miss,
// so the two misses read on one scale.
var missBuckets = []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25, 0.5, 1}

// Config tunes a Selector. The zero value selects every registered codec
// with seed 0, epsilon 0.05 and bias EMA weight 0.3.
type Config struct {
	// Codecs is the candidate set, in cost order of preference for ties.
	// Default codecs.ExtendedNames. Every name must have a surrogate.
	Codecs []string
	// Seed seeds the exploration RNG. Same seed + same call sequence =
	// same decisions.
	Seed uint64
	// Epsilon is the exploration probability per decision. Default 0.05;
	// any negative value disables exploration entirely.
	Epsilon float64
	// Estimators overrides the surrogate for the named codecs (tests
	// inject fixed-ratio estimators here). Codecs not in the map use
	// codecs.SurrogateByName.
	Estimators map[string]compressor.Estimator
	// Registry receives the selector metrics. Default obs.Default.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if len(c.Codecs) == 0 {
		c.Codecs = append([]string(nil), codecs.ExtendedNames...)
	}
	if c.Epsilon == 0 { //carol:allow floateq zero value means "take the default", negative disables
		c.Epsilon = 0.05
	}
	if c.Epsilon < 0 {
		c.Epsilon = 0
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	return c
}

// arm is the bounded per-(codec, bucket) bandit state.
type arm struct {
	decisions int64
	outcomes  int64
	// bias is the EMA of (estimated/actual - 1): positive means the
	// surrogate overpromises for this codec on this field shape.
	bias          float64
	lastPredicted float64
	lastAchieved  float64
}

// Selector is the online adaptive codec chooser. Create with New.
type Selector struct {
	cfg   Config
	names []string
	costs []int
	ests  []compressor.Estimator

	mu        sync.Mutex
	rng       *xrand.Source
	arms      []arm // codec-major: arms[codec*bucketCount+bucket]
	decisions int64
	explored  int64
	rejected  int64

	// Metric handles, resolved once at construction from the fixed codec
	// set (bounded label cardinality by construction).
	recorders     []*secre.OutcomeRecorder
	decTotal      []*obs.Counter
	outTotal      []*obs.Counter
	biasGauge     []*obs.Gauge
	missHist      []*obs.Histogram
	exploreTotal  *obs.Counter
	rejectTotal   *obs.Counter
	selectSeconds *obs.Histogram
}

// New builds a Selector over cfg's candidate set.
func New(cfg Config) (*Selector, error) {
	cfg = cfg.withDefaults()
	s := &Selector{
		cfg:           cfg,
		names:         append([]string(nil), cfg.Codecs...),
		rng:           xrand.New(cfg.Seed),
		arms:          make([]arm, len(cfg.Codecs)*bucketCount),
		exploreTotal:  cfg.Registry.Counter("selector_explore_total"),
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
			est, err = codecs.SurrogateByName(name)
			if err != nil {
				return nil, fmt.Errorf("selector: %w", err)
			}
		}
		s.ests = append(s.ests, est)
		s.recorders = append(s.recorders, secre.NewOutcomeRecorder(name))
		s.decTotal = append(s.decTotal, cfg.Registry.Counter(obs.Label("selector_decisions_total", "codec", name)))
		s.outTotal = append(s.outTotal, cfg.Registry.Counter(obs.Label("selector_outcomes_total", "codec", name)))
		s.biasGauge = append(s.biasGauge, cfg.Registry.Gauge(obs.Label("selector_bias_ema", "codec", name)))
		s.missHist = append(s.missHist, cfg.Registry.Histogram(obs.Label("selector_prediction_miss", "codec", name), missBuckets))
	}
	return s, nil
}

// Codecs returns the candidate set in configured order.
func (s *Selector) Codecs() []string { return append([]string(nil), s.names...) }

// Prediction is one candidate's scored estimate inside a Decision.
type Prediction struct {
	Codec string `json:"codec"`
	// Raw is the uncorrected surrogate estimate (0 when the surrogate
	// failed).
	Raw float64 `json:"raw,omitempty"`
	// Corrected is Raw divided by (1 + bias EMA) — the score selection
	// actually compared.
	Corrected float64 `json:"corrected,omitempty"`
	// Err carries the surrogate's failure, if any.
	Err string `json:"error,omitempty"`
}

// Decision is one selection outcome. Pass it back to Observe with the
// achieved ratio to close the feedback loop.
type Decision struct {
	// Codec is the chosen candidate — always a member of the configured
	// set.
	Codec string `json:"codec"`
	// Bucket names the shape bucket the decision was scored in.
	Bucket string `json:"bucket"`
	// Explored reports an epsilon-greedy exploration pick (as opposed to
	// the greedy winner).
	Explored bool `json:"explored"`
	// EB and TargetRatio echo the request.
	EB          float64 `json:"eb"`
	TargetRatio float64 `json:"target_ratio,omitempty"`
	// Predictions holds every candidate's scored estimate, in configured
	// codec order.
	Predictions []Prediction `json:"predictions"`

	index  int // chosen candidate index
	bucket int // shape bucket index
}

// PredictedRatio returns the corrected prediction of the chosen codec
// (0 when its surrogate failed and the choice was a cost fallback).
func (d Decision) PredictedRatio() float64 {
	if d.index < 0 || d.index >= len(d.Predictions) {
		return 0
	}
	return d.Predictions[d.index].Corrected
}

// rawPredicted returns the chosen codec's uncorrected estimate.
func (d Decision) rawPredicted() float64 {
	if d.index < 0 || d.index >= len(d.Predictions) {
		return 0
	}
	return d.Predictions[d.index].Raw
}

// Select extracts the field's feature vector and picks a codec for
// compressing f under absolute error bound eb. targetRatio > 0 asks for
// the cheapest candidate predicted to reach at least that ratio;
// targetRatio == 0 asks for the best predicted ratio. The returned
// Decision always names a configured codec.
func (s *Selector) Select(f *field.Field, eb, targetRatio float64) (Decision, error) {
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return Decision{}, err
	}
	if targetRatio < 0 || math.IsNaN(targetRatio) || math.IsInf(targetRatio, 0) {
		return Decision{}, fmt.Errorf("selector: invalid target ratio %g", targetRatio)
	}
	return s.SelectVec(f, features.ExtractParallel(f, features.ParallelOptions{}), eb, targetRatio)
}

// SelectVec is Select with a caller-supplied feature vector (callers that
// already extracted features for other purposes skip the second pass).
func (s *Selector) SelectVec(f *field.Field, vec features.Vector, eb, targetRatio float64) (Decision, error) {
	start := time.Now()
	defer s.selectSeconds.ObserveSince(start)
	if err := compressor.ValidateArgs(f, eb); err != nil {
		return Decision{}, err
	}
	if targetRatio < 0 || math.IsNaN(targetRatio) || math.IsInf(targetRatio, 0) {
		return Decision{}, fmt.Errorf("selector: invalid target ratio %g", targetRatio)
	}
	bucket := bucketOf(f, vec)
	// Surrogate estimates are the expensive part; they run outside the
	// lock so concurrent requests overlap their sampling passes.
	preds := make([]Prediction, len(s.names))
	raws := make([]float64, len(s.names))
	for i, est := range s.ests {
		r, err := est.EstimateRatio(f, eb)
		preds[i].Codec = s.names[i]
		if err != nil || !(r > 0) || math.IsInf(r, 0) {
			raws[i] = math.NaN()
			if err != nil {
				preds[i].Err = err.Error()
			} else {
				preds[i].Err = fmt.Sprintf("surrogate returned unusable ratio %g", r)
			}
			continue
		}
		raws[i] = r
		preds[i].Raw = r
	}

	scores := make([]float64, len(s.names))
	s.mu.Lock()
	for i := range scores {
		if math.IsNaN(raws[i]) {
			scores[i] = math.NaN()
			continue
		}
		scores[i] = raws[i] / (1 + s.arms[i*bucketCount+bucket].bias)
	}
	choice, explored := s.decideLocked(scores, targetRatio)
	s.arms[choice*bucketCount+bucket].decisions++
	s.decisions++
	if explored {
		s.explored++
	}
	s.mu.Unlock()

	for i := range preds {
		if !math.IsNaN(scores[i]) {
			preds[i].Corrected = scores[i]
		}
	}
	s.decTotal[choice].Inc()
	if explored {
		s.exploreTotal.Inc()
	}
	return Decision{
		Codec:       s.names[choice],
		Bucket:      bucketNames[bucket],
		Explored:    explored,
		EB:          eb,
		TargetRatio: targetRatio,
		Predictions: preds,
		index:       choice,
		bucket:      bucket,
	}, nil
}

// decideLocked is the allocation-free decision core: given the corrected
// scores (NaN = unusable candidate) and the ratio target, pick an index.
// Caller holds s.mu (the RNG draw and the bias reads serialize there).
//
// Greedy policy: with a target, the cheapest candidate whose score meets
// it (ties: higher score); with no target or no candidate meeting it, the
// highest score (ties: cheaper). Epsilon-greedy exploration picks
// uniformly from the same eligible pool. All surrogates failing falls
// back to the cheapest candidate.
func (s *Selector) decideLocked(scores []float64, target float64) (choice int, explored bool) {
	valid, eligible := 0, 0
	best, cheapEligible := -1, -1
	for i, sc := range scores {
		if math.IsNaN(sc) {
			continue
		}
		valid++
		if best < 0 || sc > scores[best] ||
			(sc == scores[best] && s.costs[i] < s.costs[best]) { //carol:allow floateq deterministic cost tie-break on equal scores
			best = i
		}
		if target > 0 && sc >= target {
			eligible++
			if cheapEligible < 0 || s.costs[i] < s.costs[cheapEligible] ||
				(s.costs[i] == s.costs[cheapEligible] && sc > scores[cheapEligible]) {
				cheapEligible = i
			}
		}
	}
	if valid == 0 {
		// Every surrogate failed: serve with the cheapest candidate rather
		// than failing the request.
		cheapest := 0
		for i := 1; i < len(s.costs); i++ {
			if s.costs[i] < s.costs[cheapest] {
				cheapest = i
			}
		}
		return cheapest, false
	}
	pool := valid
	if eligible > 0 {
		pool = eligible
	}
	if s.cfg.Epsilon > 0 && pool > 1 && s.rng.Float64() < s.cfg.Epsilon {
		k := s.rng.Intn(pool)
		for i, sc := range scores {
			if math.IsNaN(sc) {
				continue
			}
			if eligible > 0 && !(target > 0 && sc >= target) {
				continue
			}
			if k == 0 {
				return i, true
			}
			k--
		}
	}
	if cheapEligible >= 0 {
		return cheapEligible, false
	}
	return best, false
}

// Observe closes the bandit loop: the caller compressed with d.Codec and
// achieved `actual`. The pair feeds the per-arm bias EMA, the shared
// secre estimate-vs-actual metrics and the codec's prediction-miss
// histogram. Non-finite or non-positive outcomes (and decisions whose
// surrogate failed) are rejected with a counter instead of poisoning the
// state.
func (s *Selector) Observe(d Decision, actual float64) {
	raw := d.rawPredicted()
	if d.index < 0 || d.index >= len(s.names) || d.bucket < 0 || d.bucket >= bucketCount ||
		!(actual > 0) || math.IsInf(actual, 0) || !(raw > 0) || math.IsInf(raw, 0) {
		s.rejectTotal.Inc()
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return
	}
	s.recorders[d.index].Record(raw, actual)
	relErr := raw/actual - 1
	s.mu.Lock()
	a := &s.arms[d.index*bucketCount+d.bucket]
	a.outcomes++
	if a.outcomes == 1 {
		a.bias = relErr
	} else {
		a.bias = (1-biasAlpha)*a.bias + biasAlpha*relErr
	}
	if a.bias < biasMin {
		a.bias = biasMin
	}
	if a.bias > biasMax {
		a.bias = biasMax
	}
	bias := a.bias
	a.lastPredicted = raw
	a.lastAchieved = actual
	s.mu.Unlock()
	s.outTotal[d.index].Inc()
	s.biasGauge[d.index].Set(bias)
	s.missHist[d.index].Observe(math.Abs(d.PredictedRatio()/actual - 1))
}

// ArmStats is one (codec, bucket) arm's snapshot.
type ArmStats struct {
	Codec         string  `json:"codec"`
	Bucket        string  `json:"bucket"`
	Decisions     int64   `json:"decisions"`
	Outcomes      int64   `json:"outcomes"`
	BiasEMA       float64 `json:"bias_ema"`
	LastPredicted float64 `json:"last_predicted_ratio,omitempty"`
	LastAchieved  float64 `json:"last_achieved_ratio,omitempty"`
}

// Stats is the /v1/selector debug snapshot.
type Stats struct {
	Codecs    []string `json:"codecs"`
	Seed      uint64   `json:"seed"`
	Epsilon   float64  `json:"epsilon"`
	BiasAlpha float64  `json:"bias_alpha"`
	Decisions int64    `json:"decisions"`
	Explored  int64    `json:"explored"`
	// RejectedOutcomes counts Observe calls dropped for non-finite or
	// unusable inputs.
	RejectedOutcomes int64 `json:"rejected_outcomes"`
	// Arms lists every arm that has seen a decision or an outcome, in
	// codec-major, bucket-minor order (deterministic).
	Arms []ArmStats `json:"arms"`
}

// Stats snapshots the selector state for the debug endpoint.
func (s *Selector) Stats() Stats {
	st := Stats{
		Codecs:    append([]string(nil), s.names...),
		Seed:      s.cfg.Seed,
		Epsilon:   s.cfg.Epsilon,
		BiasAlpha: biasAlpha,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Decisions = s.decisions
	st.Explored = s.explored
	st.RejectedOutcomes = s.rejected
	for ci, name := range s.names {
		for b := 0; b < bucketCount; b++ {
			a := s.arms[ci*bucketCount+b]
			if a.decisions == 0 && a.outcomes == 0 {
				continue
			}
			st.Arms = append(st.Arms, ArmStats{
				Codec:         name,
				Bucket:        bucketNames[b],
				Decisions:     a.decisions,
				Outcomes:      a.outcomes,
				BiasEMA:       a.bias,
				LastPredicted: a.lastPredicted,
				LastAchieved:  a.lastAchieved,
			})
		}
	}
	return st
}
