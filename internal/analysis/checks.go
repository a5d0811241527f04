package analysis

// All returns the full carollint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{GlobalRand, FloatEq, MapOrder, GoPool, ErrDrop, PoolReset}
}
