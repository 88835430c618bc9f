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
	var mv MeanVar
	for i := 0; i < 200000; i++ {
		mv.Add(polarNormal(rng.PolarPair()))
	}
	if math.Abs(mv.Mean) > 0.02 {
		t.Errorf("normal mean %f", mv.Mean)
	}
	if sd := math.Sqrt(mv.Variance()); math.Abs(sd-1) > 0.02 {
		t.Errorf("normal stddev %f", sd)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRNG(5)
	for _, mean := range []float64{0.001, 0.5, 5, 29.9, 30.1, 200} {
		var mv MeanVar
		for i := 0; i < 100000; i++ {
			mv.Add(float64(rng.Poisson(mean)))
		}
		if math.Abs(mv.Mean-mean) > 5*math.Sqrt(mean/100000)+0.01 {
			t.Errorf("Poisson(%g) mean %f", mean, mv.Mean)
		}
		if mean >= 0.5 && math.Abs(mv.Variance()-mean) > mean*0.1 {
			t.Errorf("Poisson(%g) variance %f", mean, mv.Variance())
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestLognormalMoments(t *testing.T) {
	rng := NewRNG(7)
	mean, variance := 13.0, 13.0/4
	d := NewLognormal(mean, variance)
	var mv MeanVar
	for i := 0; i < 300000; i++ {
		v := d.Exact(rng.PolarPair())
		if v <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
		mv.Add(v)
	}
	if math.Abs(mv.Mean-mean) > 0.05 {
		t.Errorf("lognormal mean %f, want %f", mv.Mean, mean)
	}
	if math.Abs(mv.Variance()-variance) > variance*0.1 {
		t.Errorf("lognormal variance %f, want %f", mv.Variance(), variance)
	}
	// Degenerate parameters give constants, need no pair and take no
	// approximation.
	for _, c := range []struct{ mean, variance, want float64 }{{0, 1, 0}, {5, 0, 5}} {
		d := NewLognormal(c.mean, c.variance)
		if !d.Fixed() {
			t.Errorf("Lognormal(%v, %v) is not Fixed", c.mean, c.variance)
		}
		if v := d.Exact(0.5, 0.5); v != c.want {
			t.Errorf("Lognormal(%v, %v).Exact = %v, want %v", c.mean, c.variance, v, c.want)
		}
		if d.Approx(make([]float64, 1), []float64{0.5}, []float64{0.5}) {
			t.Errorf("Lognormal(%v, %v).Approx reported true", c.mean, c.variance)
		}
	}
}

// refDraw is the lognormal draw the pair form replaced: the polar loop of
// the former RNG.NormFloat64 and the former Lognormal.Draw's exp.
func refDraw(d Lognormal, r *RNG) float64 {
	if d.fixed {
		return d.value
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return math.Exp(d.mu + d.sigma*(u*math.Sqrt(-2*math.Log(s)/s)))
		}
	}
}

// TestExactMatchesDraw: a polar pair evaluated by Exact is the former
// one-call draw, bit for bit and with the same RNG stream. The fault
// model's device weights, and so every golden, rest on it.
func TestExactMatchesDraw(t *testing.T) {
	for _, d := range []Lognormal{NewLognormal(1, 0.25), NewLognormal(13, 13.0/4), NewLognormal(1, 0)} {
		a, b := NewRNG(11), NewRNG(11)
		for i := 0; i < 200_000; i++ {
			got := d.Exact(0, 0)
			if !d.Fixed() {
				got = d.Exact(a.PolarPair())
			}
			if want := refDraw(d, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v draw %d: Exact %v, former draw %v", d, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%+v: RNG streams diverged", d)
		}
	}
}

// approxSigmaMax is the lognormal whose sigma is approxMaxSigma, the
// widest Approx accepts.
func approxSigmaMax(t *testing.T) Lognormal {
	d := NewLognormal(1, math.Expm1(approxMaxSigma*approxMaxSigma))
	if math.Abs(d.sigma-approxMaxSigma) > 1e-12 || !d.approx {
		t.Fatalf("sigma %v approx %v, want %v and true", d.sigma, d.approx, approxMaxSigma)
	}
	return d
}

// TestLognormalApproxBound: Approx stays within a tenth of
// LognormalApproxErr of Exact, over 10⁷ pairs from four seeds and over
// the edge pairs of each branch-free step (the smallest s, s one ulp below
// 1, s on both sides of the √2/2 mantissa split, u = ±√s and |u| = 2⁻⁵²),
// at the paper's device variance, at another mean, and at the widest sigma
// Approx accepts. The fault model's device pick counts on the bound.
func TestLognormalApproxBound(t *testing.T) {
	perSeed := 2_500_000
	if testing.Short() {
		perSeed = 100_000
	}
	dists := []Lognormal{NewLognormal(1, 0.25), NewLognormal(13, 13.0/4), approxSigmaMax(t)}
	worst := make([]float64, len(dists))
	const batch = 144
	us, ss := make([]float64, batch), make([]float64, batch)
	approx := make([]float64, batch)
	check := func(us, ss []float64) {
		for di, d := range dists {
			if !d.Approx(approx[:len(us)], us, ss) {
				t.Fatalf("%+v: Approx reported false", d)
			}
			for i := range us {
				exact := d.Exact(us[i], ss[i])
				if rel := math.Abs(approx[i]-exact) / exact; !(rel <= worst[di]) {
					worst[di] = rel
					if !(rel <= LognormalApproxErr/10) {
						t.Fatalf("%+v pair (%v, %v): Approx %v, Exact %v, relative error %g above %g",
							d, us[i], ss[i], approx[i], exact, rel, LognormalApproxErr/10)
					}
				}
			}
		}
	}
	for _, seed := range []uint64{1, 7, 2016, 0xdeadbeef} {
		rng := NewRNG(seed)
		for n := 0; n < perSeed; n += batch {
			for i := range us {
				us[i], ss[i] = rng.PolarPair()
			}
			check(us, ss)
		}
	}

	var eus, ess []float64
	edge := func(s float64) {
		for _, u := range []float64{math.Sqrt(s), -math.Sqrt(s), 0x1p-52, -0x1p-52, 0} {
			if u*u <= s {
				eus, ess = append(eus, u), append(ess, s)
			}
		}
	}
	edge(0x1p-104)
	edge(math.Nextafter(1, 0))
	for k := uint64(0); k <= 104; k += 13 {
		split := math.Float64frombits(sqrtHalfBits - k<<52)
		edge(split)
		edge(math.Nextafter(split, 0))
		edge(math.Nextafter(split, 1))
	}
	check(eus, ess)
	for di, d := range dists {
		t.Logf("sigma %.4f mu %.4f: worst relative error %.3g (bound %g)", d.sigma, d.mu, worst[di], LognormalApproxErr)
	}
}

// TestAccumulatorWelford checks MeanVar, the package's Welford accumulator,
// against hand-computed moments: mean 5 and sample variance 32/7.
func TestAccumulatorWelford(t *testing.T) {
	var mv MeanVar
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		mv.Add(x)
	}
	if mv.Mean != 5 {
		t.Errorf("mean %f, want 5", mv.Mean)
	}
	if math.Abs(mv.Variance()-32.0/7) > 1e-9 {
		t.Errorf("variance %f, want 32/7", mv.Variance())
	}
	if mv.N != 8 {
		t.Errorf("n %d", mv.N)
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
