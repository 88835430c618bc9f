package stats

import (
	"math"
	"sort"
)

// Quantiler collects observations and answers quantile queries. It stores
// all samples; the reliability simulators record at most one value per
// Monte Carlo trial so the memory footprint is bounded by the trial count.
type Quantiler struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (q *Quantiler) Add(x float64) {
	q.xs = append(q.xs, x)
	q.sorted = false
}

// Quantile returns the p-quantile (0 <= p <= 1) using linear interpolation,
// or 0 when empty.
func (q *Quantiler) Quantile(p float64) float64 {
	if len(q.xs) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.xs)
		q.sorted = true
	}
	if p <= 0 {
		return q.xs[0]
	}
	if p >= 1 {
		return q.xs[len(q.xs)-1]
	}
	pos := p * float64(len(q.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return q.xs[lo]
	}
	frac := pos - float64(lo)
	return q.xs[lo]*(1-frac) + q.xs[hi]*frac
}

// CDFAt returns the empirical CDF evaluated at x: the fraction of
// observations <= x.
func (q *Quantiler) CDFAt(x float64) float64 {
	if len(q.xs) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.xs)
		q.sorted = true
	}
	idx := sort.SearchFloat64s(q.xs, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(q.xs))
}
