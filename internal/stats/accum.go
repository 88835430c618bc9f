package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator collects a running mean and variance using Welford's online
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 1 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean (normal approximation).
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// Merge folds another accumulator into this one (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// String formats the accumulator as "mean ± ci95 (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.6g ± %.2g (n=%d)", a.Mean(), a.CI95(), a.n)
}

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

// N returns the number of observations.
func (q *Quantiler) N() int { return len(q.xs) }

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
