// Package retrain closes CAROL's model-lifecycle loop: it turns the
// served-traffic journal written by carolserve (-harvest-dir) into fresh
// training data, trains the full surrogate zoo on it, shadow-evaluates
// the winning candidate against the live registry model on a held-out
// window of the newest real traffic, and publishes the candidate only
// when it provably wins (DESIGN.md §17).
//
// The controller is deliberately conservative: too few harvested samples
// → no retrain; no measurable improvement on real traffic → no publish.
// The only unconditional publish is the bootstrap case, when the registry
// has no live model at all.
package retrain

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strconv"
	"time"

	"carol/internal/model"
	"carol/internal/registry"
	"carol/internal/safedec"
	"carol/internal/trainset"
	"carol/internal/zoo"
)

// Verdict labels the outcome of one retraining cycle.
type Verdict string

const (
	// VerdictTooFewSamples: the journal has not accumulated MinSamples
	// harvested records yet; nothing was trained.
	VerdictTooFewSamples Verdict = "too-few-samples"
	// VerdictNoCandidate: every zoo backend failed to train.
	VerdictNoCandidate Verdict = "no-candidate"
	// VerdictBootstrap: no live model existed, the candidate was published
	// without a shadow comparison.
	VerdictBootstrap Verdict = "bootstrap"
	// VerdictPublished: the candidate beat the live model on the held-out
	// window and was published.
	VerdictPublished Verdict = "published"
	// VerdictNoWin: the candidate did not beat the live model; nothing was
	// published.
	VerdictNoWin Verdict = "no-win"
)

// Config tunes one retraining controller.
type Config struct {
	// Codec is the compressor whose journal is harvested and whose model
	// is retrained.
	Codec string
	// Name is the registry model name. Default: Codec.
	Name string
	// RegistryDir is the registry root to read the live model from and
	// publish winners into.
	RegistryDir string
	// HarvestDir is the journal directory carolserve writes (-harvest-dir).
	HarvestDir string
	// JournalCap bounds how many newest journal records are read.
	// Default trainset.DefaultJournalCap.
	JournalCap int
	// Base optionally seeds training with an offline corpus; harvested
	// records are appended after it. The held-out window always comes
	// from harvested traffic only.
	Base *trainset.Set
	// Zoo configures the backend sweep.
	Zoo zoo.Config
	// MinSamples is the minimum number of harvested records before a
	// retrain is attempted. Default 20.
	MinSamples int
	// Holdout is the fraction (0,1) of the newest harvested records held
	// out for shadow evaluation. Default 0.25.
	Holdout float64
	// WinMargin is the relative improvement the candidate's median
	// shadow error must show over the live model's to publish.
	// Default 0.02 (2%).
	WinMargin float64
	// Limits bounds the live-model load. Zero value = no limits.
	Limits safedec.Limits
	// GCKeep > 0 trims the model's registry history to the newest GCKeep
	// versions after a successful publish.
	GCKeep int
	// Now stamps retrained_at metadata; nil uses time.Now (tests pin it).
	Now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Codec == "" {
		return c, errors.New("retrain: empty codec")
	}
	if c.RegistryDir == "" || c.HarvestDir == "" {
		return c, errors.New("retrain: need registry and harvest directories")
	}
	if c.Name == "" {
		c.Name = c.Codec
	}
	if err := registry.CheckName(c.Name); err != nil {
		return c, err
	}
	if err := model.CheckBackends(c.Zoo.Backends); err != nil {
		return c, err
	}
	if c.JournalCap <= 0 {
		c.JournalCap = trainset.DefaultJournalCap
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.Holdout <= 0 || c.Holdout >= 1 {
		c.Holdout = 0.25
	}
	if c.WinMargin <= 0 {
		c.WinMargin = 0.02
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// EvalStats summarises one model's shadow evaluation: the distribution of
// relative prediction errors |predicted relEB − observed relEB| / observed
// over the held-out window, nearest-rank quantiles.
type EvalStats struct {
	N        int
	P50, P90 float64
}

// Report describes one retraining cycle.
type Report struct {
	Codec, Name string
	// Harvested is the number of journal records read; TrainRows and
	// HoldoutRows how they (plus the base corpus) were split.
	Harvested   int
	TrainRows   int
	HoldoutRows int
	// Scoreboard is the zoo's per-backend CV scoreboard (empty when no
	// zoo ran).
	Scoreboard map[string]string
	// CandidateBackend is the winning backend's tag ("" when none).
	CandidateBackend string
	// Candidate and Live are the shadow-evaluation results; Live is nil
	// in the bootstrap case, both are nil when no evaluation ran.
	Candidate *EvalStats
	Live      *EvalStats
	Verdict   Verdict
	// Published is set when the candidate was written to the registry.
	Published *registry.Version
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// shadowEval runs one model over the held-out records and summarises its
// relative prediction error distribution.
func shadowEval(a *model.Artifact, holdout []trainset.Record) (*EvalStats, error) {
	rows := make([][]float64, len(holdout))
	for i, rec := range holdout {
		rows[i] = trainset.Row(rec.Features, rec.Ratio)
	}
	preds, err := a.Regressor.PredictBatch(rows)
	if err != nil {
		return nil, err
	}
	errs := make([]float64, 0, len(preds))
	for i, p := range preds {
		predicted := trainset.EBFromTarget(p)
		observed := holdout[i].RelEB
		if !(observed > 0) {
			continue
		}
		errs = append(errs, math.Abs(predicted-observed)/observed)
	}
	if len(errs) == 0 {
		return nil, errors.New("retrain: no evaluable holdout samples")
	}
	st := &EvalStats{N: len(errs)}
	st.P50 = quantile(errs, 0.50)
	st.P90 = quantile(errs, 0.90)
	return st, nil
}

// wins decides the publish gate: the candidate's median shadow error must
// beat the live model's by at least margin, without regressing the tail.
func wins(cand, live *EvalStats, margin float64) bool {
	return cand.P50 <= live.P50*(1-margin) && cand.P90 <= live.P90
}

// RunOnce executes one full retraining cycle: harvest → zoo → shadow
// evaluation → conditional publish. It never mutates the registry unless
// the candidate wins (or no live model exists).
func RunOnce(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{Codec: cfg.Codec, Name: cfg.Name}
	records, err := trainset.ReadJournal(trainset.JournalPath(cfg.HarvestDir, cfg.Codec), cfg.JournalCap)
	if err != nil {
		return nil, err
	}
	rep.Harvested = len(records)
	if len(records) < cfg.MinSamples {
		rep.Verdict = VerdictTooFewSamples
		return rep, nil
	}
	// Newest Holdout fraction of real traffic is the shadow window; the
	// zoo never sees it. Journal order is append order, so the tail is
	// the newest traffic.
	nHold := int(cfg.Holdout * float64(len(records)))
	if nHold < 1 {
		nHold = 1
	}
	trainRecs, holdout := records[:len(records)-nHold], records[len(records)-nHold:]
	var set trainset.Set
	if cfg.Base != nil {
		set.Merge(cfg.Base)
	}
	for _, rec := range trainRecs {
		if err := set.Add(rec.Sample()); err != nil {
			return nil, fmt.Errorf("retrain: journal record: %w", err)
		}
	}
	X, y := set.Matrix()
	rep.TrainRows, rep.HoldoutRows = len(X), len(holdout)

	res, err := zoo.Train(X, y, cfg.Zoo)
	if err != nil {
		return nil, err
	}
	rep.Scoreboard = res.Scoreboard()
	best := res.Best()
	if best == nil {
		rep.Verdict = VerdictNoCandidate
		return rep, nil
	}
	rep.CandidateBackend = best.Backend

	reg, err := registry.Open(cfg.RegistryDir)
	if err != nil {
		return nil, err
	}
	var live *model.Artifact
	liveV, err := reg.Latest(cfg.Name)
	switch {
	case errors.Is(err, registry.ErrNotFound):
		// Bootstrap: nothing to shadow against.
	case err != nil:
		return nil, err
	default:
		if live, err = reg.Load(liveV, cfg.Limits); err != nil {
			return nil, err
		}
	}

	// The artifact's metadata is the scoreboard plus provenance; the
	// report's scoreboard stays the zoo's alone.
	meta := maps.Clone(rep.Scoreboard)
	meta["retrained_at"] = cfg.Now().UTC().Format(time.RFC3339)
	meta["harvested"] = strconv.Itoa(rep.Harvested)
	meta["train_rows"] = strconv.Itoa(rep.TrainRows)
	meta["holdout_rows"] = strconv.Itoa(rep.HoldoutRows)
	meta["source"] = "retrain"
	cand, err := best.Artifact(cfg.Codec, meta)
	if err != nil {
		return nil, err
	}

	if live == nil {
		rep.Verdict = VerdictBootstrap
	} else {
		if rep.Candidate, err = shadowEval(cand, holdout); err != nil {
			return nil, err
		}
		if rep.Live, err = shadowEval(live, holdout); err != nil {
			return nil, err
		}
		if !wins(rep.Candidate, rep.Live, cfg.WinMargin) {
			rep.Verdict = VerdictNoWin
			return rep, nil
		}
		rep.Verdict = VerdictPublished
	}

	buf, err := cand.Encode()
	if err != nil {
		return nil, err
	}
	v, err := reg.Publish(cfg.Name, buf)
	if err != nil {
		return nil, err
	}
	rep.Published = &v
	if cfg.GCKeep > 0 {
		if _, err := reg.GC(cfg.Name, cfg.GCKeep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Controller runs RunOnce on a fixed schedule until the context ends.
type Controller struct {
	cfg      Config
	interval time.Duration
	// Observe, when non-nil, receives every cycle's report (or error).
	Observe func(*Report, error)
}

// NewController validates the config eagerly so a misconfigured
// controller fails at construction, not on its first tick.
func NewController(cfg Config, interval time.Duration) (*Controller, error) {
	if _, err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, errors.New("retrain: non-positive interval")
	}
	return &Controller{cfg: cfg, interval: interval}, nil
}

// Run blocks, executing one retraining cycle per interval (first cycle
// immediately) until ctx is cancelled. Cycle errors are reported via
// Observe and do not stop the loop.
func (c *Controller) Run(ctx context.Context) {
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		rep, err := RunOnce(c.cfg)
		if c.Observe != nil {
			c.Observe(rep, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
