package rf

import (
	"fmt"
	"math"
)

// Dims returns the input dimensionality the forest was trained on.
func (f *Forest) Dims() int { return f.dims }

// SetWorkers rebinds the forest's prediction parallelism without touching
// the model itself (predictions are bit-identical for every value). A
// deserialized forest carries the training machine's Workers setting;
// serving processes call this to use their own core budget.
func (f *Forest) SetWorkers(w int) { f.cfg.Workers = w }

// Stats summarizes a trained forest's shape: the numbers an operator wants
// on a dashboard when a model is loaded and the numbers caroltrain prints
// when one is published.
type Stats struct {
	Trees    int // ensemble size
	Nodes    int // total node count across all trees
	MaxDepth int // deepest root-to-leaf path over the whole ensemble
}

// Stats computes the forest's shape summary. Depth is measured in edges:
// a single-leaf tree has depth 0.
func (f *Forest) Stats() Stats {
	s := Stats{Trees: len(f.trees)}
	for i := range f.trees {
		nodes := f.trees[i].nodes
		s.Nodes += len(nodes)
		if d := treeDepth(nodes); d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	return s
}

// treeDepth walks the flat node array iteratively (an explicit stack — the
// trees may be deeper than comfortable recursion under test -race).
func treeDepth(nodes []node) int {
	if len(nodes) == 0 {
		return 0
	}
	type frame struct {
		idx   int32
		depth int
	}
	stack := []frame{{0, 0}}
	max := 0
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.depth > max {
			max = fr.depth
		}
		n := &nodes[fr.idx]
		if n.feature >= 0 {
			stack = append(stack, frame{n.left, fr.depth + 1}, frame{n.right, fr.depth + 1})
		}
	}
	return max
}

// Flat is the flattened, serialization-ready form of a Forest: one set of
// parallel arrays over every node of every tree, in tree order. It carries
// no pointers and no unexported state, so internal/model can encode it
// field by field and reconstruct an identical forest with FromFlat.
type Flat struct {
	Dims      int     // model input dimensionality
	Cfg       Config  // training hyper-parameters (provenance; Workers excluded from identity)
	TreeNodes []int32 // nodes per tree; len == Cfg.NEstimators
	// Per-node parallel arrays, all of length sum(TreeNodes). Indices in
	// Left/Right are tree-local.
	Feature []int32
	Thresh  []float64
	Left    []int32
	Right   []int32
	Value   []float64
	Gain    []float64
}

// Flatten exports the forest into its serialization form. The returned
// arrays are fresh copies; mutating them does not affect the forest.
func (f *Forest) Flatten() *Flat {
	fl := &Flat{
		Dims:      f.dims,
		Cfg:       f.cfg,
		TreeNodes: make([]int32, len(f.trees)),
	}
	total := 0
	for i := range f.trees {
		fl.TreeNodes[i] = int32(len(f.trees[i].nodes))
		total += len(f.trees[i].nodes)
	}
	fl.Feature = make([]int32, total)
	fl.Thresh = make([]float64, total)
	fl.Left = make([]int32, total)
	fl.Right = make([]int32, total)
	fl.Value = make([]float64, total)
	fl.Gain = make([]float64, total)
	at := 0
	for i := range f.trees {
		for _, n := range f.trees[i].nodes {
			fl.Feature[at] = int32(n.feature)
			fl.Thresh[at] = n.thresh
			fl.Left[at] = n.left
			fl.Right[at] = n.right
			fl.Value[at] = n.value
			fl.Gain[at] = n.gain
			at++
		}
	}
	return fl
}

// FromFlat validates fl and reconstructs the forest. Validation is total —
// fl may come from an attacker-controlled artifact, so every structural
// invariant prediction relies on is checked:
//
//   - array lengths agree with TreeNodes, and TreeNodes with NEstimators;
//   - every tree is non-empty;
//   - split features lie in [0, Dims); leaves are marked with feature -1;
//   - child indices point strictly forward within their tree (the builder
//     appends parents before children), which rules out cycles and makes
//     predict provably terminating;
//   - thresholds, values and gains are finite (gains non-negative).
//
// A forest reconstructed from Flatten()'s output predicts bit-identically
// to the original.
func FromFlat(fl *Flat) (*Forest, error) {
	if fl.Dims < 1 {
		return nil, fmt.Errorf("rf: flat forest with %d input dims", fl.Dims)
	}
	if err := fl.Cfg.validate(); err != nil {
		return nil, fmt.Errorf("rf: flat forest config: %w", err)
	}
	if len(fl.TreeNodes) != fl.Cfg.NEstimators {
		return nil, fmt.Errorf("rf: flat forest has %d trees, config says %d",
			len(fl.TreeNodes), fl.Cfg.NEstimators)
	}
	total := 0
	for i, n := range fl.TreeNodes {
		if n < 1 {
			return nil, fmt.Errorf("rf: flat tree %d has %d nodes", i, n)
		}
		total += int(n)
	}
	for _, a := range []struct {
		name string
		n    int
	}{
		{"feature", len(fl.Feature)},
		{"thresh", len(fl.Thresh)},
		{"left", len(fl.Left)},
		{"right", len(fl.Right)},
		{"value", len(fl.Value)},
		{"gain", len(fl.Gain)},
	} {
		if a.n != total {
			return nil, fmt.Errorf("rf: flat %s array has %d entries, want %d", a.name, a.n, total)
		}
	}
	f := &Forest{trees: make([]tree, len(fl.TreeNodes)), dims: fl.Dims, cfg: fl.Cfg}
	at := 0
	for ti, tn := range fl.TreeNodes {
		nodes := make([]node, tn)
		for i := range nodes {
			n := node{
				feature: int(fl.Feature[at]),
				thresh:  fl.Thresh[at],
				left:    fl.Left[at],
				right:   fl.Right[at],
				value:   fl.Value[at],
				gain:    fl.Gain[at],
			}
			at++
			if math.IsNaN(n.thresh) || math.IsInf(n.thresh, 0) ||
				math.IsNaN(n.value) || math.IsInf(n.value, 0) ||
				math.IsNaN(n.gain) || math.IsInf(n.gain, 0) || n.gain < 0 {
				return nil, fmt.Errorf("rf: flat tree %d node %d has non-finite fields", ti, i)
			}
			switch {
			case n.feature == -1:
				// Leaf: children ignored; normalize them to zero so the
				// reconstructed forest re-flattens byte-identically.
				n.left, n.right = 0, 0
			case n.feature >= 0 && n.feature < fl.Dims:
				if int(n.left) <= i || int(n.left) >= int(tn) ||
					int(n.right) <= i || int(n.right) >= int(tn) {
					return nil, fmt.Errorf("rf: flat tree %d node %d has out-of-order children (%d,%d of %d)",
						ti, i, n.left, n.right, tn)
				}
			default:
				return nil, fmt.Errorf("rf: flat tree %d node %d splits on feature %d of %d",
					ti, i, n.feature, fl.Dims)
			}
			nodes[i] = n
		}
		f.trees[ti] = tree{nodes: nodes}
	}
	return f, nil
}
