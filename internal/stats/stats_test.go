package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincided %d times", same)
	}
}

func TestForkIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Fork(1)
	c2 := root.Fork(2)
	c1again := root.Fork(1)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.Uint64(), c1again.Uint64()
		if v1 != v2 {
			t.Fatal("Fork(1) not reproducible")
		}
		if v1 == c2.Uint64() {
			t.Fatal("Fork(1) and Fork(2) coincide")
		}
	}
	// Forking must not perturb the parent stream.
	a := NewRNG(7)
	b := NewRNG(7)
	_ = a.Fork(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Fork perturbed parent state")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	rng := NewRNG(1)
	prop := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := rng.Uint64n(n)
		return v < n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	rng := NewRNG(2)
	for i := 0; i < 100000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformity(t *testing.T) {
	rng := NewRNG(3)
	const bins = 16
	counts := make([]int, bins)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[rng.Intn(bins)]++
	}
	expect := float64(n) / bins
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bin %d count %d far from %f", i, c, expect)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(4)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(rng.NormFloat64())
	}
	if math.Abs(acc.Mean()) > 0.02 {
		t.Errorf("normal mean %f", acc.Mean())
	}
	if math.Abs(acc.StdDev()-1) > 0.02 {
		t.Errorf("normal stddev %f", acc.StdDev())
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRNG(5)
	for _, mean := range []float64{0.001, 0.5, 5, 29.9, 30.1, 200} {
		var acc Accumulator
		for i := 0; i < 100000; i++ {
			acc.Add(float64(rng.Poisson(mean)))
		}
		if math.Abs(acc.Mean()-mean) > 5*math.Sqrt(mean/100000)+0.01 {
			t.Errorf("Poisson(%g) mean %f", mean, acc.Mean())
		}
		if mean >= 0.5 && math.Abs(acc.Variance()-mean) > mean*0.1 {
			t.Errorf("Poisson(%g) variance %f", mean, acc.Variance())
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestExpMoments(t *testing.T) {
	rng := NewRNG(6)
	var acc Accumulator
	rate := 2.5
	for i := 0; i < 200000; i++ {
		acc.Add(rng.Exp(rate))
	}
	if math.Abs(acc.Mean()-1/rate) > 0.01 {
		t.Errorf("Exp mean %f, want %f", acc.Mean(), 1/rate)
	}
}

func TestLognormalMoments(t *testing.T) {
	rng := NewRNG(7)
	mean, variance := 13.0, 13.0/4
	var acc Accumulator
	for i := 0; i < 300000; i++ {
		v := rng.Lognormal(mean, variance)
		if v <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
		acc.Add(v)
	}
	if math.Abs(acc.Mean()-mean) > 0.05 {
		t.Errorf("lognormal mean %f, want %f", acc.Mean(), mean)
	}
	if math.Abs(acc.Variance()-variance) > variance*0.1 {
		t.Errorf("lognormal variance %f, want %f", acc.Variance(), variance)
	}
	// Degenerate parameters.
	if rng.Lognormal(0, 1) != 0 {
		t.Error("Lognormal(0, v) should be 0")
	}
	if rng.Lognormal(5, 0) != 5 {
		t.Error("Lognormal(m, 0) should be m")
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(8)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("Perm not a permutation")
		}
		seen[v] = true
	}
}

func TestAccumulatorWelford(t *testing.T) {
	var acc Accumulator
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.Mean() != 5 {
		t.Errorf("mean %f, want 5", acc.Mean())
	}
	if math.Abs(acc.Variance()-4.571428571) > 1e-9 {
		t.Errorf("variance %f", acc.Variance())
	}
	if acc.Min() != 2 || acc.Max() != 9 {
		t.Errorf("min/max %f/%f", acc.Min(), acc.Max())
	}
	if acc.N() != 8 {
		t.Errorf("n %d", acc.N())
	}
}

func TestAccumulatorMerge(t *testing.T) {
	var a, b, whole Accumulator
	rng := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 10
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("merged mean %f vs %f", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance %f vs %f", a.Variance(), whole.Variance())
	}
}

func TestQuantiler(t *testing.T) {
	var q Quantiler
	for i := 100; i >= 1; i-- {
		q.Add(float64(i))
	}
	if q.Quantile(0) != 1 || q.Quantile(1) != 100 {
		t.Errorf("extremes wrong: %f %f", q.Quantile(0), q.Quantile(1))
	}
	if m := q.Quantile(0.5); math.Abs(m-50.5) > 0.01 {
		t.Errorf("median %f", m)
	}
	if c := q.CDFAt(50); math.Abs(c-0.5) > 0.01 {
		t.Errorf("CDFAt(50) = %f", c)
	}
	if q.CDFAt(0) != 0 || q.CDFAt(1000) != 1 {
		t.Error("CDF extremes wrong")
	}
}

// TestForkerMatchesFork pins the amortised substream derivation to Fork: the
// batched trial kernels rely on Forker.Substream reproducing Fork's streams
// bit for bit, so checkpointed campaigns stay byte-identical.
func TestForkerMatchesFork(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		root := NewRNG(seed)
		fk := root.Forker()
		var child RNG
		for _, stream := range []uint64{0, 1, 2, 4095, 1 << 40, ^uint64(0)} {
			want := root.Fork(stream)
			fk.Substream(stream, &child)
			if child != *want {
				t.Fatalf("seed %d stream %d: Substream state %+v != Fork state %+v", seed, stream, child, *want)
			}
			// The streams must also draw identically.
			for i := 0; i < 4; i++ {
				a, b := child.Uint64(), want.Uint64()
				if a != b {
					t.Fatalf("seed %d stream %d draw %d: %d != %d", seed, stream, i, a, b)
				}
			}
		}
	}
}

// TestSubstreamAllocs pins the zero-allocation contract of the hot-path
// substream reseeding.
func TestSubstreamAllocs(t *testing.T) {
	fk := NewRNG(7).Forker()
	var child RNG
	n := testing.AllocsPerRun(100, func() {
		fk.Substream(42, &child)
		_ = child.Uint64()
	})
	if n != 0 {
		t.Fatalf("Substream allocates %.1f times per call, want 0", n)
	}
}
