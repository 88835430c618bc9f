package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"relaxfault/internal/stats"
)

// TestSampleNodeBiasedBoostOneBitIdentical: boost 1 must consume the exact
// RNG stream of the unbiased sampler and produce identical histories with
// log-ratio 0 — the property that lets the naive estimator share the code
// path without perturbing a single byte.
func TestSampleNodeBiasedBoostOneBitIdentical(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(99)
	var scA, scB SampleScratch
	for node := 0; node < 3000; node++ {
		a := root.Fork(uint64(node))
		b := root.Fork(uint64(node))
		nfA := m.SampleNodeScratch(a, &scA)
		nfB, logLR := m.SampleNodeBiased(b, &scB, 1)
		if logLR != 0 {
			t.Fatalf("node %d: boost 1 log-ratio %v, want exactly 0", node, logLR)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("node %d: RNG streams diverged", node)
		}
		if len(nfA.Faults) != len(nfB.Faults) {
			t.Fatalf("node %d: %d vs %d faults", node, len(nfA.Faults), len(nfB.Faults))
		}
		for i := range nfA.Faults {
			if !reflect.DeepEqual(*nfA.Faults[i], *nfB.Faults[i]) {
				t.Fatalf("node %d fault %d differs:\n%+v\n%+v", node, i, *nfA.Faults[i], *nfB.Faults[i])
			}
		}
	}
}

// samplerDigest is the SHA-256 of TestSamplerDigest's transcript.
const samplerDigest = "05e3813aca23d0614979745fc1ec72babdfd123626bd412ad4857eef4f97cb89"

// TestSamplerDigest pins the arrival kernel's RNG order: 20,000 substreams
// through the unbiased, boosted (×8) and stratified samplers, at 1× and 10×
// FIT, hash to samplerDigest. The transcript holds every sampled field, the
// returned weight and the substream's next draw, so any change to what the
// kernel draws, or in which order, fails it. No benchmark workload or golden
// covers stratified sampling, so this is its byte-identity check.
func TestSamplerDigest(t *testing.T) {
	h := sha256.New()
	for _, fit := range []float64{1, 10} {
		cfg := DefaultConfig()
		cfg.Rates = cfg.Rates.Scale(fit)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var strata []int
		for s := 0; s < m.NumStrata(); s++ {
			if m.StratumProb(s) > 0 {
				strata = append(strata, s)
			}
		}
		root := stats.NewRNG(2016)
		var sc SampleScratch
		for node := 0; node < 20_000; node++ {
			for kind := 0; kind < 3; kind++ {
				rng := root.Fork(uint64(node))
				var nf NodeFaults
				var w float64
				switch kind {
				case 0:
					nf = m.SampleNodeScratch(rng, &sc)
				case 1:
					nf, w = m.SampleNodeBiased(rng, &sc, 8)
				default:
					nf, w = m.SampleNodeStratified(rng, &sc, strata[node%len(strata)])
				}
				fmt.Fprintf(h, "%v %d %d %v %v %v %d\n", fit, node, kind, w, nf.NodeAccelerated, nf.AcceleratedDIMMs, rng.Uint64())
				for _, f := range nf.Faults {
					fmt.Fprintf(h, "%+v\n", *f)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != samplerDigest {
		t.Errorf("sampler digest %s, want %s", got, samplerDigest)
	}
}

// faultCountMoment estimates E[f(history)] for a per-node statistic with
// the given sampler, returning the Welford accumulator of the weighted
// per-trial values.
func estimateWith(t *testing.T, trials int, sample func(node int) float64) stats.MeanVar {
	t.Helper()
	var mv stats.MeanVar
	for node := 0; node < trials; node++ {
		mv.Add(sample(node))
	}
	return mv
}

// TestBiasedSamplerUnbiased: the reweighted boosted estimate of
// E[permanent-fault count] must agree with the naive estimate within the
// combined 95% CIs, and its CI must be no wider than ~ the naive one on
// this low-rate model (the rare-event regime importance sampling targets).
func TestBiasedSamplerUnbiased(t *testing.T) {
	cfg := DefaultConfig()
	// Low-rate regime: scale all FITs down 10x so multi-fault nodes are rare.
	for m := Mode(0); m < NumModes; m++ {
		cfg.Rates.Transient[m] *= 0.1
		cfg.Rates.Permanent[m] *= 0.1
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60_000
	const boost = 8.0
	rootN := stats.NewRNG(5)
	var scN SampleScratch
	naive := estimateWith(t, trials, func(node int) float64 {
		nf := m.SampleNodeScratch(rootN.Fork(uint64(node)), &scN)
		return float64(nf.PermanentCount())
	})
	rootB := stats.NewRNG(6)
	var scB SampleScratch
	biased := estimateWith(t, trials, func(node int) float64 {
		nf, logLR := m.SampleNodeBiased(rootB.Fork(uint64(node)), &scB, boost)
		return math.Exp(logLR) * float64(nf.PermanentCount())
	})
	diff := math.Abs(naive.Mean - biased.Mean)
	tol := naive.HalfWidth95() + biased.HalfWidth95()
	if diff > tol {
		t.Fatalf("biased estimate %v vs naive %v: |diff| %v exceeds combined CI %v",
			biased.Mean, naive.Mean, diff, tol)
	}
	if biased.HalfWidth95() > 2*naive.HalfWidth95() {
		t.Fatalf("boosted CI %v much wider than naive %v; reweighting is mis-tuned",
			biased.HalfWidth95(), naive.HalfWidth95())
	}
}

// TestStratifiedSamplerUnbiased: round-robin allocation over the nonzero
// (mode, persistence) strata, each trial weighted by stratumCount × the
// sampler's raw weight, must reproduce the naive estimate of
// E[permanent-fault count] within the combined 95% CIs.
func TestStratifiedSamplerUnbiased(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var strata []int
	for s := 0; s < m.NumStrata(); s++ {
		if m.StratumProb(s) > 0 {
			strata = append(strata, s)
		}
	}
	if len(strata) == 0 {
		t.Fatal("no strata with positive probability")
	}
	// The stratum probabilities must sum to 1 (a partition of a single draw).
	sum := 0.0
	for s := 0; s < m.NumStrata(); s++ {
		sum += m.StratumProb(s)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("stratum probabilities sum to %v, want 1", sum)
	}
	const trials = 60_000
	rootN := stats.NewRNG(11)
	var scN SampleScratch
	naive := estimateWith(t, trials, func(node int) float64 {
		nf := m.SampleNodeScratch(rootN.Fork(uint64(node)), &scN)
		return float64(nf.PermanentCount())
	})
	rootS := stats.NewRNG(12)
	var scS SampleScratch
	strat := estimateWith(t, trials, func(node int) float64 {
		s := strata[node%len(strata)]
		nf, w := m.SampleNodeStratified(rootS.Fork(uint64(node)), &scS, s)
		return w * float64(len(strata)) * float64(nf.PermanentCount())
	})
	diff := math.Abs(naive.Mean - strat.Mean)
	tol := naive.HalfWidth95() + strat.HalfWidth95()
	if diff > tol {
		t.Fatalf("stratified estimate %v vs naive %v: |diff| %v exceeds combined CI %v",
			strat.Mean, naive.Mean, diff, tol)
	}
}

// TestStratifiedFirstFaultClass: the conditioned first-arrival draw must
// actually land in the requested class (checking pre-sort order is not
// possible from outside, so assert on the whole history when it has exactly
// one fault).
func TestStratifiedFirstFaultClass(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewRNG(21)
	var sc SampleScratch
	checked := 0
	for node := 0; node < 5000; node++ {
		s := node % m.NumStrata()
		if m.StratumProb(s) == 0 {
			continue
		}
		nf, w := m.SampleNodeStratified(root.Fork(uint64(node)), &sc, s)
		if len(nf.Faults) == 0 {
			t.Fatalf("node %d: stratified sampler returned a fault-free node", node)
		}
		if w <= 0 {
			t.Fatalf("node %d: nonpositive stratum weight %v", node, w)
		}
		if len(nf.Faults) != 1 {
			continue
		}
		f := nf.Faults[0]
		wantMode := Mode(s / 2)
		wantTransient := s%2 == 0
		if f.Mode != wantMode || f.Transient != wantTransient {
			t.Fatalf("node %d stratum %d: got (%v, transient=%v), want (%v, transient=%v)",
				node, s, f.Mode, f.Transient, wantMode, wantTransient)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d single-fault nodes checked; test too weak", checked)
	}
}

// TestPoissonAtLeast1 pins the zero-truncated Poisson sampler: strictly
// positive draws whose empirical mean matches the truncated analytic mean
// λ/(1−e^{−λ}) for small and large rates.
func TestPoissonAtLeast1(t *testing.T) {
	for _, lambda := range []float64{0.05, 0.5, 2, 35} {
		rng := stats.NewRNG(77)
		var mv stats.MeanVar
		for i := 0; i < 40_000; i++ {
			n := poissonAtLeast1(rng, lambda)
			if n < 1 {
				t.Fatalf("lambda %v: drew %d < 1", lambda, n)
			}
			mv.Add(float64(n))
		}
		want := lambda / -math.Expm1(-lambda)
		if math.Abs(mv.Mean-want) > 4*mv.HalfWidth95()+1e-9 {
			t.Fatalf("lambda %v: truncated mean %v, want %v (hw %v)", lambda, mv.Mean, want, mv.HalfWidth95())
		}
	}
}
