// Package badallow is a carollint fixture: a directive naming an unknown
// check, or giving no reason, must itself be diagnosed, and must not
// suppress the real finding.
package badallow

func typo(a, b float64) bool {
	return a == b //carol:allow floateqq typo'd check name // want `floating-point == comparison` `carol:allow names unknown check "floateqq"`
}

func stale(a, b float64) float64 {
	return a + b //carol:allow floateq stale: nothing to suppress here; want `unused carol:allow directive`
}

func bare(a, b float64) bool {
	/* want `carol:allow directive without a reason` */ //carol:allow floateq
	return a == b                                       // want `floating-point == comparison`
}
