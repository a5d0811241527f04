package model

import (
	"fmt"
	"math"
	"strings"

	"carol/internal/boost"
	"carol/internal/rf"
	"carol/internal/safedec"
)

// Regressor is the one seam between training and serving: CAROL's whole
// inference step is features + target ratio → one regressor call → error
// bound, and this is that call. *rf.Forest and *boost.Model satisfy it;
// everything else a backend needs (validation, stats, payload layout,
// fitting) is its row in the backends table below.
type Regressor interface {
	// PredictBatch predicts every row; each result is bit-identical to a
	// single-row prediction, for every SetWorkers value.
	PredictBatch(rows [][]float64) ([]float64, error)
	// Dims is the input dimensionality the regressor was trained on.
	Dims() int
	// SetWorkers rebinds the machine-local prediction parallelism.
	SetWorkers(w int)
}

// The registered regressor backends, in zoo priority order (the
// deterministic tie-break order for equal CV scores).
const (
	BackendRF    = "rf"
	BackendBoost = "boost"
)

// FitConfig is the input of the table's fit column: every backend's
// hyper-parameters side by side. A backend reads only its own field, and a
// zero field means that backend's defaults.
type FitConfig struct {
	RF    rf.Config
	Boost boost.Config
	// Seed seeds a randomized backend whose own config leaves Seed zero.
	Seed uint64
	// Workers bounds training parallelism for whichever backend is fitted;
	// it never changes the fitted model.
	Workers int
}

// backend is one row of the table: everything this package knows about a
// regressor family.
type backend struct {
	tag string
	// check verifies r is this backend's type, non-empty and within the
	// format's hard caps (so write cannot produce an unreadable stream).
	check func(r Regressor) error
	stats func(r Regressor, s *Stats)
	// write appends the payload of a regressor that passed check.
	write func(w *writer, r Regressor)
	read  func(r *safedec.Reader, lim safedec.Limits, schemaLen int) (Regressor, error)
	fit   func(X [][]float64, y []float64, cfg FitConfig) (Regressor, error)
}

// backends is the one enumeration of the regressor families, in priority
// order. Adding or dropping a backend is one row here.
var backends = []backend{
	{
		tag: BackendRF,
		check: func(r Regressor) error {
			f, ok := r.(*rf.Forest)
			if !ok {
				return wrongType(BackendRF, r)
			}
			if st := f.Stats(); st.Trees == 0 || st.Nodes == 0 {
				return fmt.Errorf("model: empty forest")
			}
			return nil
		},
		stats: func(r Regressor, s *Stats) {
			if f, ok := r.(*rf.Forest); ok {
				fs := f.Stats()
				s.Trees, s.Nodes, s.MaxDepth = fs.Trees, fs.Nodes, fs.MaxDepth
			}
		},
		write: func(w *writer, r Regressor) { writeForest(w, r.(*rf.Forest).Flatten()) },
		read:  readRF,
		fit: func(X [][]float64, y []float64, cfg FitConfig) (Regressor, error) {
			c := cfg.RF
			if c.NEstimators == 0 {
				c = rf.DefaultConfig()
			}
			if c.Seed == 0 {
				c.Seed = cfg.Seed
			}
			c.Workers = cfg.Workers
			return fitted(rf.Train(X, y, c))
		},
	},
	{
		tag: BackendBoost,
		check: func(r Regressor) error {
			m, ok := r.(*boost.Model)
			if !ok {
				return wrongType(BackendBoost, r)
			}
			if m.Rounds() == 0 {
				return fmt.Errorf("model: empty boost ensemble")
			}
			if m.Rounds() > maxBoostStages {
				return fmt.Errorf("model: %d boost stages (max %d)", m.Rounds(), maxBoostStages)
			}
			return nil
		},
		stats: func(r Regressor, s *Stats) {
			if m, ok := r.(*boost.Model); ok {
				bs := m.Stats()
				s.Trees, s.Nodes, s.MaxDepth = bs.Trees, bs.Nodes, bs.MaxDepth
			}
		},
		write: writeBoost,
		read:  readBoost,
		fit: func(X [][]float64, y []float64, cfg FitConfig) (Regressor, error) {
			c := cfg.Boost
			if c.Seed == 0 {
				c.Seed = cfg.Seed
			}
			c.Workers = cfg.Workers
			return fitted(boost.Train(X, y, c))
		},
	},
}

func wrongType(tag string, r Regressor) error {
	return fmt.Errorf("model: %s artifact carries a %T regressor", tag, r)
}

// fitted erases a trainer's result, returning an untyped nil on failure: a
// typed nil pointer inside a Regressor would pass every nil check.
func fitted[M Regressor](m M, err error) (Regressor, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// lookup is the table lookup every dispatch in this package goes through.
func lookup(tag string) (*backend, error) {
	for i := range backends {
		if backends[i].tag == tag {
			return &backends[i], nil
		}
	}
	return nil, fmt.Errorf("model: unknown backend %q (want %s)", tag, strings.Join(KnownBackends(), "|"))
}

// KnownBackends lists every backend tag in the table, in priority order.
func KnownBackends() []string {
	out := make([]string, len(backends))
	for i := range backends {
		out[i] = backends[i].tag
	}
	return out
}

// CheckBackends validates a backend list against the table: every tag
// known, none repeated. An empty list is valid (callers default it to
// KnownBackends).
func CheckBackends(tags []string) error {
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if _, err := lookup(tag); err != nil {
			return err
		}
		if seen[tag] {
			return fmt.Errorf("model: duplicate backend %q", tag)
		}
		seen[tag] = true
	}
	return nil
}

// ParseBackends splits a comma-separated -backends flag value and
// validates it with CheckBackends; a spec naming no backend is an error.
func ParseBackends(spec string) ([]string, error) {
	var out []string
	for _, tag := range strings.Split(spec, ",") {
		if tag = strings.TrimSpace(tag); tag != "" {
			out = append(out, tag)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("model: no backends in %q", spec)
	}
	return out, CheckBackends(out)
}

// Fit trains the tagged backend on (X, y) with its hyper-parameters from
// cfg.
func Fit(tag string, X [][]float64, y []float64, cfg FitConfig) (Regressor, error) {
	b, err := lookup(tag)
	if err != nil {
		return nil, err
	}
	return b.fit(X, y, cfg)
}

// writeForest appends one forest section: hyper-parameters (minus the
// machine-local Workers knob), dims, per-tree node counts, then the
// struct-of-arrays node payload. Shared by the rf payload and every boost
// stage.
func writeForest(w *writer, fl *rf.Flat) {
	cfg := fl.Cfg
	w.u32(uint32(cfg.NEstimators))
	w.u8(byte(cfg.MaxFeatures))
	w.u32(uint32(cfg.MaxDepth))
	w.u32(uint32(cfg.MinSamplesSplit))
	w.u32(uint32(cfg.MinSamplesLeaf))
	if cfg.Bootstrap {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(cfg.Seed)
	w.u32(uint32(fl.Dims))
	w.uvarint(uint64(len(fl.Feature)))
	for _, n := range fl.TreeNodes {
		w.uvarint(uint64(n))
	}
	for _, v := range fl.Feature {
		w.u32(uint32(v))
	}
	for _, v := range fl.Left {
		w.u32(uint32(v))
	}
	for _, v := range fl.Right {
		w.u32(uint32(v))
	}
	for _, v := range fl.Thresh {
		w.f64(v)
	}
	for _, v := range fl.Value {
		w.f64(v)
	}
	for _, v := range fl.Gain {
		w.f64(v)
	}
}

// writeBoost appends the boost payload: base, shrinkage, dims, stage
// count, then one forest section per stage.
func writeBoost(w *writer, r Regressor) {
	fl := r.(*boost.Model).Flatten()
	w.f64(fl.Base)
	w.f64(fl.Shrinkage)
	w.u32(uint32(fl.Dims))
	w.uvarint(uint64(len(fl.Stages)))
	for _, st := range fl.Stages {
		writeForest(w, st)
	}
}

// readRF parses the rf payload: one forest section whose dims must match
// the schema.
func readRF(r *safedec.Reader, lim safedec.Limits, schemaLen int) (Regressor, error) {
	fl, err := readForest(r, lim)
	if err != nil {
		return nil, err
	}
	if fl.Dims != schemaLen {
		return nil, corrupt("forest dims %d != schema entries %d", fl.Dims, schemaLen)
	}
	forest, err := rf.FromFlat(fl)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return forest, nil
}

// readForest parses one forest section into a Flat for rf.FromFlat.
func readForest(r *safedec.Reader, lim safedec.Limits) (*rf.Flat, error) {
	var cfg rf.Config
	nEst, err := r.U32("tree count")
	if err != nil {
		return nil, err
	}
	if err := lim.Count("forest tree", int64(nEst)); err != nil {
		return nil, err
	}
	cfg.NEstimators = int(nEst)
	mf, err := r.U8("max-features mode")
	if err != nil {
		return nil, err
	}
	if mf > uint8(rf.MaxFeaturesSqrt) {
		return nil, corrupt("max-features mode %d", mf)
	}
	cfg.MaxFeatures = rf.MaxFeatures(mf)
	depth, err := r.U32("max depth")
	if err != nil {
		return nil, err
	}
	cfg.MaxDepth = int(depth)
	mss, err := r.U32("min samples split")
	if err != nil {
		return nil, err
	}
	cfg.MinSamplesSplit = int(mss)
	msl, err := r.U32("min samples leaf")
	if err != nil {
		return nil, err
	}
	cfg.MinSamplesLeaf = int(msl)
	boot, err := r.U8("bootstrap flag")
	if err != nil {
		return nil, err
	}
	if boot > 1 {
		return nil, corrupt("bootstrap flag %d", boot)
	}
	cfg.Bootstrap = boot == 1
	if cfg.Seed, err = r.U64("seed"); err != nil {
		return nil, err
	}
	dims, err := r.U32("input dims")
	if err != nil {
		return nil, err
	}
	total, err := r.Uvarint("node count")
	if err != nil {
		return nil, err
	}
	if total > maxTotalNodes {
		return nil, corrupt("node count %d exceeds %d", total, maxTotalNodes)
	}
	// The whole node payload is claimed-length allocation: check it
	// against the caller's budget, then against the actual bytes present,
	// before any array is made.
	if err := lim.Alloc("forest nodes", int64(total)*nodeEncSize); err != nil {
		return nil, err
	}
	fl := &rf.Flat{Dims: int(dims), Cfg: cfg, TreeNodes: make([]int32, 0, min(int(nEst), 1<<16))}
	var sum uint64
	for i := uint32(0); i < nEst; i++ {
		n, err := r.Uvarint("tree node count")
		if err != nil {
			return nil, err
		}
		sum += n
		if sum > total {
			return nil, corrupt("tree node counts sum past claimed total %d", total)
		}
		fl.TreeNodes = append(fl.TreeNodes, int32(n))
	}
	if sum != total {
		return nil, corrupt("tree node counts sum to %d, claimed total %d", sum, total)
	}
	if int64(r.Remaining()) < int64(total)*nodeEncSize {
		return nil, fmt.Errorf("%w: model: node payload needs %d bytes, have %d",
			safedec.ErrTruncated, int64(total)*nodeEncSize, r.Remaining())
	}
	n := int(total)
	fl.Feature = make([]int32, n)
	fl.Left = make([]int32, n)
	fl.Right = make([]int32, n)
	fl.Thresh = make([]float64, n)
	fl.Value = make([]float64, n)
	fl.Gain = make([]float64, n)
	readI32s := func(dst []int32, what string) {
		for i := range dst {
			v, _ := r.U32(what) // length pre-checked above
			dst[i] = int32(v)
		}
	}
	readF64s := func(dst []float64, what string) {
		for i := range dst {
			v, _ := r.U64(what)
			dst[i] = math.Float64frombits(v)
		}
	}
	readI32s(fl.Feature, "node feature")
	readI32s(fl.Left, "node left child")
	readI32s(fl.Right, "node right child")
	readF64s(fl.Thresh, "node threshold")
	readF64s(fl.Value, "node value")
	readF64s(fl.Gain, "node gain")
	return fl, nil
}

// readBoost parses the boost payload: base, shrinkage, dims, stage count,
// then one forest section per stage. Semantic validation (finiteness,
// stage structure) is delegated to boost.FromFlat.
func readBoost(r *safedec.Reader, lim safedec.Limits, schemaLen int) (Regressor, error) {
	base, err := r.U64("boost base")
	if err != nil {
		return nil, err
	}
	shrink, err := r.U64("boost shrinkage")
	if err != nil {
		return nil, err
	}
	dims, err := r.U32("boost dims")
	if err != nil {
		return nil, err
	}
	if int(dims) != schemaLen {
		return nil, corrupt("boost dims %d != schema entries %d", dims, schemaLen)
	}
	nStages, err := r.Uvarint("boost stage count")
	if err != nil {
		return nil, err
	}
	if nStages == 0 || nStages > maxBoostStages {
		return nil, corrupt("boost stage count %d outside [1, %d]", nStages, maxBoostStages)
	}
	if err := lim.Count("boost stage", int64(nStages)); err != nil {
		return nil, err
	}
	fl := &boost.Flat{
		Base:      math.Float64frombits(base),
		Shrinkage: math.Float64frombits(shrink),
		Dims:      int(dims),
		Stages:    make([]*rf.Flat, nStages),
	}
	for i := range fl.Stages {
		st, err := readForest(r, lim)
		if err != nil {
			return nil, err
		}
		fl.Stages[i] = st
	}
	m, err := boost.FromFlat(fl)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return m, nil
}
