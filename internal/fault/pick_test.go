package fault

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"relaxfault/internal/dram"
	"relaxfault/internal/stats"
)

// refWeight is the device weight as the sampler drew it before the pick
// was certified from approximate weights: the polar method's loop, then
// exp(mu + sigma·N) of the lognormal of mean 1 and variance v, written out
// from NewLognormal's parameters.
func refWeight(v float64, rng *stats.RNG) float64 {
	if v <= 0 {
		return 1
	}
	sigma2 := math.Log(1 + v/(1*1))
	mu, sigma := math.Log(1)-sigma2/2, math.Sqrt(sigma2)
	for {
		u := 2*rng.Float64() - 1
		w := 2*rng.Float64() - 1
		s := u*u + w*w
		if s > 0 && s < 1 {
			return math.Exp(mu + sigma*(u*math.Sqrt(-2*math.Log(s)/s)))
		}
	}
}

// refSampleNode is sampleNode with the former weight loop and device scan:
// every weight drawn and evaluated exactly, one device at a time, and each
// fault's device found by the exact scan. Everything else is sampleNode's.
func refSampleNode(m *Model, rng *stats.RNG, sc *SampleScratch, boost float64, stratum int) (NodeFaults, float64) {
	g := m.cfg.Geometry
	nDIMMs := g.DIMMs()
	nf := NodeFaults{}
	nodeMult := m.adjustedMult
	if rng.Bool(m.cfg.AccelNodeFrac) {
		nf.NodeAccelerated = true
		nodeMult = m.cfg.AccelFactor
	}
	sc.dimmMult = grow(sc.dimmMult, nDIMMs)
	dimmMult := sc.dimmMult
	accel := sc.accel[:0]
	lambda := 0.0
	perDevRate := FITToRate(m.totalFIT) * m.cfg.Hours
	for d := 0; d < nDIMMs; d++ {
		mult := nodeMult
		if !nf.NodeAccelerated && rng.Bool(m.cfg.AccelDIMMFrac) {
			mult = m.cfg.AccelFactor
			accel = append(accel, d)
		}
		dimmMult[d] = mult
		lambda += mult * float64(m.devPerDMM) * perDevRate
	}
	sc.accel = accel
	if len(accel) > 0 {
		nf.AcceleratedDIMMs = accel
	}
	var n int
	var weight float64
	if stratum >= 0 {
		weight = -math.Expm1(-lambda) * m.StratumProb(stratum)
		n = poissonAtLeast1(rng, lambda)
	} else {
		b := boost
		if b > 1 && lambda > 0 {
			if bCap := 1 + maxISLogWeight/lambda; b > bCap {
				b = bCap
			}
		}
		mean := lambda
		if b != 1 {
			mean = lambda * b
		}
		n = rng.Poisson(mean)
		weight = stats.PoissonLogLR(lambda, b, n)
		if n == 0 {
			return nf, weight
		}
	}

	sc.weights = grow(sc.weights, nDIMMs*m.devPerDMM)
	weights := sc.weights
	var totalW float64
	for i := range weights {
		w := refWeight(m.cfg.VarianceFrac, rng) * dimmMult[i/m.devPerDMM]
		weights[i] = w
		totalW += w
	}

	faults := sc.ptrs[:0]
	for i := 0; i < n; i++ {
		target := rng.Float64() * totalW
		devIdx := 0
		for acc := 0.0; devIdx < len(weights)-1; devIdx++ {
			acc += weights[devIdx]
			if target < acc {
				break
			}
		}
		dimm := devIdx / m.devPerDMM
		dev := dram.DeviceCoord{
			Channel: dimm / g.DIMMsPerChan,
			Rank:    dimm % g.DIMMsPerChan,
			Device:  devIdx % m.devPerDMM,
		}
		slot, rowBuf := sc.fault(i)
		var f *Fault
		if i == 0 && stratum >= 0 {
			f = m.sampleFaultClass(rng, dev, slot, rowBuf, stratum)
		} else {
			f = m.sampleFault(rng, dev, slot, rowBuf)
		}
		f.AtHours = rng.Float64() * m.cfg.Hours
		faults = append(faults, f)
	}
	sc.ptrs = faults
	for i := 1; i < len(faults); i++ {
		f := faults[i]
		j := i - 1
		for j >= 0 && faults[j].AtHours > f.AtHours {
			faults[j+1] = faults[j]
			j--
		}
		faults[j+1] = f
	}
	nf.Faults = faults
	return nf, weight
}

// TestDevicePickMatchesReference is the device pick's differential: over
// about 10⁶ nodes (3·10⁴ with -short), every sampler — naive, boosted
// ×8 and ×16, stratified — on the DDR3 and DDR4 nodes at 1× and 10× FIT,
// with 10% of nodes and DIMMs accelerated (with and without a zero
// multiplier for the rest), with VarianceFrac 0 (no pair drawn) and with a
// variance too wide for the approximate weights, gives exactly the
// reference's NodeFaults and weight and leaves the RNG where the reference
// leaves it.
func TestDevicePickMatchesReference(t *testing.T) {
	nodes := 28_000
	if testing.Short() {
		nodes = 800
	}
	ddr3 := DefaultConfig()
	ddr4 := DefaultConfig()
	ddr4.Geometry = dram.DDR4Node()
	with := func(cfg Config, edit func(*Config)) Config {
		edit(&cfg)
		return cfg
	}
	fit10 := func(c *Config) { c.Rates = c.Rates.Scale(10) }
	models := []struct {
		name string
		cfg  Config
	}{
		{"ddr3-1x", ddr3},
		{"ddr3-10x", with(ddr3, fit10)},
		{"ddr4-1x", ddr4},
		{"ddr4-10x", with(ddr4, fit10)},
		{"accel-10pct", with(ddr3, func(c *Config) { c.AccelFactor, c.AccelNodeFrac, c.AccelDIMMFrac = 4, 0.1, 0.1 })},
		{"accel-10pct-zero-mult", with(ddr3, func(c *Config) { c.AccelFactor, c.AccelNodeFrac, c.AccelDIMMFrac = 5, 0.1, 0.1 })},
		{"variance-0", with(ddr3, func(c *Config) { c.VarianceFrac = 0 })},
		{"variance-0-ddr4-10x", with(ddr4, func(c *Config) { fit10(c); c.VarianceFrac = 0 })},
		{"variance-1e30", with(ddr3, func(c *Config) { fit10(c); c.VarianceFrac = 1e30 })},
	}
	samplers := []struct {
		name    string
		boost   float64
		stratum bool
	}{{"naive", 1, false}, {"boost8", 8, false}, {"boost16", 16, false}, {"stratified", 1, true}}
	for mi, mc := range models {
		m, err := NewModel(mc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		var strata []int
		for s := 0; s < m.NumStrata(); s++ {
			if m.StratumProb(s) > 0 {
				strata = append(strata, s)
			}
		}
		for _, smp := range samplers {
			root := stats.NewRNG(uint64(31 + mi))
			var scA, scB SampleScratch
			faults := 0
			for node := 0; node < nodes; node++ {
				stratum := -1
				if smp.stratum {
					stratum = strata[node%len(strata)]
				}
				a, b := root.Fork(uint64(node)), root.Fork(uint64(node))
				nfA, wA := m.sampleNode(a, &scA, smp.boost, stratum)
				nfB, wB := refSampleNode(m, b, &scB, smp.boost, stratum)
				if math.Float64bits(wA) != math.Float64bits(wB) || nfA.NodeAccelerated != nfB.NodeAccelerated ||
					!slices.Equal(nfA.AcceleratedDIMMs, nfB.AcceleratedDIMMs) || len(nfA.Faults) != len(nfB.Faults) {
					t.Fatalf("%s %s node %d: weight %v accel %v %v, %d faults; reference %v %v %v, %d faults", mc.name, smp.name, node,
						wA, nfA.NodeAccelerated, nfA.AcceleratedDIMMs, len(nfA.Faults),
						wB, nfB.NodeAccelerated, nfB.AcceleratedDIMMs, len(nfB.Faults))
				}
				for i := range nfA.Faults {
					if !reflect.DeepEqual(*nfA.Faults[i], *nfB.Faults[i]) {
						t.Fatalf("%s %s node %d fault %d:\n%+v\nreference\n%+v", mc.name, smp.name, node, i, *nfA.Faults[i], *nfB.Faults[i])
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("%s %s node %d: the RNG streams diverged", mc.name, smp.name, node)
				}
				faults += len(nfA.Faults)
			}
			t.Logf("%s %s: %d nodes, %d faults picked", mc.name, smp.name, nodes, faults)
		}
	}
}

// TestPickFallsBackInsideMargin crafts approximate partial sums whose
// target lies inside the margin around a device boundary, on either side
// of it: a pick without the margin would take the wrong device there. The
// pick must fall back to the exact weights and return the exact scan's
// device; a target far from every boundary stays certified.
func TestPickFallsBackInsideMargin(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.cfg.Geometry
	devs := g.DIMMs() * m.devPerDMM
	rng := stats.NewRNG(5)
	var sc SampleScratch
	sc.dimmMult = grow(nil, g.DIMMs())
	for d := range sc.dimmMult {
		sc.dimmMult[d] = m.adjustedMult
	}
	sc.dimmMult[3] = m.cfg.AccelFactor
	sc.us, sc.ss, sc.weights = grow(nil, devs), grow(nil, devs), grow(nil, devs)
	for i := range sc.us {
		sc.us[i], sc.ss[i] = rng.PolarPair()
	}
	total := m.exactWeights(&sc)
	exact := slices.Clone(sc.weights)
	var cum []float64
	var acc float64
	for _, w := range exact {
		acc += w
		cum = append(cum, acc)
	}

	const k = 70
	delta := stats.LognormalApproxErr
	cases := []struct {
		name string
		// scale is the approximation's relative error on devices 0..k;
		// devices after k err the other way by as much in all, so W̃
		// stays within rounding of W.
		scale float64
		// target is t = U·W, a little past A_k in the direction the
		// approximation errs.
		target float64
		want   int
	}{
		// Ã_k above A_k and the target between them: the exact scan
		// passes device k, the approximate one stops at it.
		{"upper", delta / 2, cum[k] * (1 + delta/8), k + 1},
		// Ã_k below A_k and the target between them: the exact scan stops
		// at device k, the approximate one passes it.
		{"lower", -delta / 2, cum[k] * (1 - delta/8), k},
	}
	for _, c := range cases {
		sc.weights = sc.weights[:0]
		var approxTotal float64
		for i, w := range exact {
			e := c.scale
			if i > k {
				e = -c.scale * cum[k] / (total - cum[k])
			}
			approxTotal += w * (1 + e)
			sc.weights = append(sc.weights, approxTotal)
		}
		u := c.target / total
		if got := pickExact(exact, u*total); got != c.want {
			t.Fatalf("%s: crafted target picks device %d exactly, want %d", c.name, got, c.want)
		}
		if got, _ := pickCertified(sc.weights, u*approxTotal, 0); got == c.want {
			t.Fatalf("%s: without a margin the approximate scan picks %d too; the case tests nothing", c.name, got)
		}
		sc.total, sc.certified = approxTotal, true
		if got := m.pick(&sc, u); got != c.want || sc.certified {
			t.Errorf("%s: pick %d (certified %v), want the exact scan's %d after falling back", c.name, got, sc.certified, c.want)
		}
		if !slices.Equal(sc.weights, exact) || sc.total != total {
			t.Errorf("%s: the fallback left weights that are not the exact ones", c.name)
		}
	}

	// A target in the middle of device k's interval is certified.
	m.weigh(&sc)
	if !sc.certified {
		t.Fatal("weigh certified nothing on the paper's model")
	}
	u := (cum[k-1] + cum[k]) / 2 / total
	if got := m.pick(&sc, u); got != k || !sc.certified {
		t.Errorf("mid-interval pick %d (certified %v), want %d certified", got, sc.certified, k)
	}
}
