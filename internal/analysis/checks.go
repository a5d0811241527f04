package analysis

// All returns the full carollint suite in reporting order: the five
// determinism/hygiene checks plus poolreset, the one check built on the
// interprocedural alias flow (gopool also reads the summaries, for
// goroutine launchers behind helper calls).
func All() []*Analyzer {
	return []*Analyzer{GlobalRand, FloatEq, MapOrder, GoPool, ErrDrop, PoolReset}
}
