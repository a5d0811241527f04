package field

// scan returns the smallest and largest samples of data, NaNs skipped (+Inf
// and -Inf when there are none), and whether any sample is a NaN or ±Inf, in
// one SSE2 pass. SSE2 is part of every amd64 CPU, so no feature check
// guards it. Between equal samples the lanes lose which came first, so a
// zero extreme may carry either sign; Extrema puts the first zero's back.
//
//go:noescape
func scan(data []float32) (lo, hi float32, nonFinite bool)
