package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// TestMeanVarMatchesAccumulator pins MeanVar to a reference accumulation of
// the same stream. The reference is the textbook Welford recurrence with a
// CI half-width of 1.96 * stddev / sqrt(n); MeanVar must match it bit for bit,
// since the golden outputs depend on the exact arithmetic. A two-pass mean and
// variance over the stored stream then checks the recurrence itself.
func TestMeanVarMatchesAccumulator(t *testing.T) {
	rng := NewRNG(42)
	var mv MeanVar
	xs := make([]float64, 10_000)
	var n int64
	var mean, m2 float64
	for i := range xs {
		x := polarNormal(rng.PolarPair())*3 + 1
		xs[i] = x
		mv.Add(x)
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
	}
	variance := m2 / float64(n-1)
	ci95 := 1.96 * math.Sqrt(variance) / math.Sqrt(float64(n))
	if mv.N != n {
		t.Fatalf("N: MeanVar %d, reference %d", mv.N, n)
	}
	if mv.Mean != mean {
		t.Fatalf("Mean: MeanVar %v, reference %v", mv.Mean, mean)
	}
	if mv.Variance() != variance {
		t.Fatalf("Variance: MeanVar %v, reference %v", mv.Variance(), variance)
	}
	if mv.HalfWidth95() != ci95 {
		t.Fatalf("CI: MeanVar %v, reference %v", mv.HalfWidth95(), ci95)
	}

	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean2 := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean2) * (x - mean2)
	}
	variance2 := ss / float64(len(xs)-1)
	if math.Abs(mv.Mean-mean2) > 1e-12 {
		t.Errorf("Mean: MeanVar %v, two-pass %v", mv.Mean, mean2)
	}
	if math.Abs(mv.Variance()-variance2) > 1e-12*variance2 {
		t.Errorf("Variance: MeanVar %v, two-pass %v", mv.Variance(), variance2)
	}
}

// TestMeanVarMergeDeterministic: merging per-chunk accumulators in a fixed
// order must give the same bytes every time, and agree with the one-stream
// accumulation to floating-point accuracy.
func TestMeanVarMergeDeterministic(t *testing.T) {
	rng := NewRNG(7)
	const chunks, per = 16, 500
	parts := make([]MeanVar, chunks)
	var whole MeanVar
	for c := 0; c < chunks; c++ {
		for i := 0; i < per; i++ {
			x := rng.Float64() * float64(c+1)
			parts[c].Add(x)
			whole.Add(x)
		}
	}
	var m1, m2 MeanVar
	for c := 0; c < chunks; c++ {
		m1.Merge(&parts[c])
		m2.Merge(&parts[c])
	}
	if m1 != m2 {
		t.Fatalf("same merge order produced different state: %+v vs %+v", m1, m2)
	}
	if m1.N != whole.N {
		t.Fatalf("merged N %d, want %d", m1.N, whole.N)
	}
	if math.Abs(m1.Mean-whole.Mean) > 1e-12 {
		t.Fatalf("merged mean %v, one-stream %v", m1.Mean, whole.Mean)
	}
	if rel := math.Abs(m1.Variance()-whole.Variance()) / whole.Variance(); rel > 1e-9 {
		t.Fatalf("merged variance %v, one-stream %v (rel %v)", m1.Variance(), whole.Variance(), rel)
	}
}

// TestMeanVarJSONRoundTripExact: the checkpoint/journal contract — a
// marshal/unmarshal cycle must reproduce the accumulator bit for bit.
func TestMeanVarJSONRoundTripExact(t *testing.T) {
	rng := NewRNG(3)
	d := NewLognormal(1, 0.25)
	var mv MeanVar
	for i := 0; i < 1000; i++ {
		mv.Add(d.Exact(rng.PolarPair()))
	}
	raw, err := json.Marshal(&mv)
	if err != nil {
		t.Fatal(err)
	}
	var back MeanVar
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != mv {
		t.Fatalf("round trip changed state: %+v -> %+v", mv, back)
	}
}

func TestWeightStatsESS(t *testing.T) {
	var w WeightStats
	for i := 0; i < 100; i++ {
		w.Add(1)
	}
	if got := w.ESS(); math.Abs(got-100) > 1e-12 {
		t.Fatalf("equal weights: ESS %v, want 100", got)
	}
	// One dominant weight collapses the ESS towards 1.
	var d WeightStats
	d.Add(1000)
	for i := 0; i < 99; i++ {
		d.Add(0.001)
	}
	if got := d.ESS(); got > 1.01 {
		t.Fatalf("dominant weight: ESS %v, want ~1", got)
	}
}

func TestPoissonLogLR(t *testing.T) {
	if got := PoissonLogLR(1.5, 1, 7); got != 0 {
		t.Fatalf("boost 1 must give exactly 0, got %v", got)
	}
	// Against the direct pmf ratio for a few (λ, b, n).
	pmf := func(lambda float64, n int) float64 {
		logp := -lambda + float64(n)*math.Log(lambda)
		for k := 2; k <= n; k++ {
			logp -= math.Log(float64(k))
		}
		return logp
	}
	for _, c := range []struct {
		lambda, boost float64
		n             int
	}{{0.1, 10, 0}, {0.1, 10, 2}, {1, 8, 3}, {2.5, 4, 6}} {
		want := pmf(c.lambda, c.n) - pmf(c.lambda*c.boost, c.n)
		got := PoissonLogLR(c.lambda, c.boost, c.n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("PoissonLogLR(%v,%v,%d) = %v, want %v", c.lambda, c.boost, c.n, got, want)
		}
	}
}

// TestBiasedCoinLikelihoodRatio is the closed-form check of likelihood-ratio
// reweighting: estimate E_p[X] for a Bernoulli(p) indicator by sampling a
// biased Bernoulli(q) coin and reweighting each draw by p(x)/q(x). Across
// 1000 independent seeds the analytic expectation must fall inside the
// estimate's 95% CI about 95% of the time.
func TestBiasedCoinLikelihoodRatio(t *testing.T) {
	const (
		p      = 0.05 // target: rare event
		q      = 0.30 // proposal: oversampled
		trials = 2000
		seeds  = 1000
	)
	covered := 0
	for seed := 1; seed <= seeds; seed++ {
		rng := NewRNG(uint64(seed))
		var mv MeanVar
		for i := 0; i < trials; i++ {
			hit := rng.Bool(q)
			x := 0.0
			if hit {
				x = p / q
			}
			mv.Add(x)
		}
		if math.Abs(mv.Mean-p) <= mv.HalfWidth95() {
			covered++
		}
	}
	// Binomial(1000, 0.95) has σ ≈ 6.9; [915, 985] is roughly ±5σ.
	if covered < 915 || covered > 985 {
		t.Fatalf("analytic mean covered by the 95%% CI in %d/%d seeds; want ≈950", covered, seeds)
	}
}
