package main

import "gstm/internal/stats"

// reservoir keeps a uniform random sample of at most cap(vals) values
// (Vitter's algorithm R), so percentiles over millions of calls need a
// fixed amount of memory. The stream is seeded, so the same inputs keep
// the same sample.
type reservoir struct {
	vals []float64
	seen uint64
	rng  uint64
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{vals: make([]float64, 0, capacity), rng: seed | 1}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	// xorshift64: cheap, and good enough to pick a slot.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(len(r.vals)) {
		r.vals[j] = v
	}
}

// pooled returns every retained value of the reservoirs as one slice.
func pooled(rs ...*reservoir) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.vals...)
	}
	return out
}

// tailQuantile is the highest quantile, at most 0.99, with at least ten
// samples beyond it: the tail a sample of n can still support.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// percentile returns the q-quantile (0..1) of xs, 0 when xs is empty.
func percentile(xs []float64, q float64) float64 {
	p, err := stats.Percentile(xs, 100*q)
	if err != nil {
		return 0
	}
	return p
}

// median of xs, 0 when empty.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
