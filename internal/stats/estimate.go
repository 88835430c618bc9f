package stats

import "math"

// MeanVar is a serialisable Welford accumulator: the running count, mean,
// and sum of squared deviations of a stream of observations. Its fields are
// exported with JSON tags so chunk checkpoints and journal records can carry
// per-chunk moments and merge them in a fixed order on resume. Go's
// shortest-round-trip float encoding makes a marshal/unmarshal cycle exact,
// which is what keeps estimator state byte-identical across crash-kill
// resume and replay.
type MeanVar struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Add records one observation.
func (m *MeanVar) Add(x float64) {
	m.N++
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
}

// Merge folds o into m (Chan et al.'s parallel update). Merging is
// deterministic but not associative in floating point; callers merge in a
// fixed (chunk-index) order.
func (m *MeanVar) Merge(o *MeanVar) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	n1, n2 := float64(m.N), float64(o.N)
	n := n1 + n2
	d := o.Mean - m.Mean
	m.Mean += d * n2 / n
	m.M2 += o.M2 + d*d*n1*n2/n
	m.N += o.N
}

// Variance returns the sample variance (n-1 denominator).
func (m *MeanVar) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N-1)
}

// StdErr returns the standard error of the mean.
func (m *MeanVar) StdErr() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.Variance() / float64(m.N))
}

// HalfWidth95 returns the half-width of an approximate 95% confidence
// interval for the mean (normal approximation).
func (m *MeanVar) HalfWidth95() float64 { return 1.96 * m.StdErr() }

// WeightStats tracks the importance weights of a weighted Monte Carlo
// estimate: the trial count and the first two moments of the weights, from
// which the effective sample size falls out. Serialisable for the same
// checkpoint/journal reasons as MeanVar.
type WeightStats struct {
	N     int64   `json:"n"`
	SumW  float64 `json:"sum_w"`
	SumW2 float64 `json:"sum_w2"`
}

// Add records one trial's weight.
func (w *WeightStats) Add(x float64) {
	w.N++
	w.SumW += x
	w.SumW2 += x * x
}

// Merge folds o into w.
func (w *WeightStats) Merge(o *WeightStats) {
	w.N += o.N
	w.SumW += o.SumW
	w.SumW2 += o.SumW2
}

// ESS returns Kish's effective sample size, (ΣW)²/ΣW²: how many unweighted
// trials the weighted sample is worth. Equal weights give ESS == N; a
// badly-tuned proposal shows up as ESS ≪ N.
func (w *WeightStats) ESS() float64 {
	if w.SumW2 <= 0 {
		return 0
	}
	return w.SumW * w.SumW / w.SumW2
}

// PoissonLogLR returns the log likelihood ratio log(P_λ(n) / P_{λ·boost}(n))
// of observing count n under the target rate λ versus the boosted proposal
// rate λ·boost: the reweighting factor of importance sampling on a Poisson
// arrival process. Algebraically λ(boost−1) − n·ln(boost); boost 1 is
// exactly 0.
func PoissonLogLR(lambda, boost float64, n int) float64 {
	if boost == 1 {
		return 0
	}
	return lambda*(boost-1) - float64(n)*math.Log(boost)
}
