package fault

import (
	"fmt"
	"math"
	"sort"

	"relaxfault/internal/dram"
	"relaxfault/internal/stats"
)

// ShapeParams controls how fault extents are drawn within a device. The
// defaults are calibrated (see EXPERIMENTS.md) so the resulting repair
// coverage matches the paper's reported numbers; the field studies publish
// mode frequencies but not sub-mode extents, so these are the model's free
// parameters.
type ShapeParams struct {
	// WordFrac is the fraction of bit/word faults affecting a full 8-column
	// word rather than a single column cell.
	WordFrac float64
	// TwoRowFrac is the fraction of single-row faults affecting two
	// adjacent rows ("typically just one" row, per the paper).
	TwoRowFrac float64
	// ColFullSubarrayFrac is the fraction of column faults affecting the
	// bitline through an entire subarray; the rest affect a few rows of
	// one column.
	ColFullSubarrayFrac float64
	// ColFewRowsMax bounds the affected row count of partial column
	// faults (uniform in [2, ColFewRowsMax]).
	ColFewRowsMax int
	// BankWholeFrac is the fraction of single-bank faults that disable the
	// entire bank — the "massive" faults beyond any LLC-based repair.
	BankWholeFrac float64
	// BankRowClusterFrac splits the remaining bank faults between row
	// clusters (this fraction) and column clusters.
	BankRowClusterFrac float64
	// BankClusterMaxRows bounds row-cluster size; cluster sizes are
	// log-uniform in [2, BankClusterMaxRows] at random row positions.
	BankClusterMaxRows int
	// BankColClusterMaxCols bounds column-cluster width.
	BankColClusterMaxCols int
	// BankColClusterMaxSubarrays bounds how many adjacent subarrays a
	// column cluster spans.
	BankColClusterMaxSubarrays int
	// MultiBankWholeFrac is the fraction of multi-bank faults that disable
	// their banks entirely (the rest are row clusters repeated per bank).
	MultiBankWholeFrac float64
	// IntermittentFrac is the fraction of permanent faults that are
	// hard-intermittent rather than hard-permanent.
	IntermittentFrac float64
	// ActivationMinPerHour/ActivationMaxPerHour bound the log-uniform
	// activation rate of intermittent faults (paper: roughly once per
	// month to more than once per hour).
	ActivationMinPerHour float64
	ActivationMaxPerHour float64
}

// DefaultShape returns the calibrated extent distribution.
func DefaultShape() ShapeParams {
	return ShapeParams{
		WordFrac:                   0.25,
		TwoRowFrac:                 0.15,
		ColFullSubarrayFrac:        0.50,
		ColFewRowsMax:              32,
		BankWholeFrac:              0.07,
		BankRowClusterFrac:         0.60,
		BankClusterMaxRows:         512,
		BankColClusterMaxCols:      16,
		BankColClusterMaxSubarrays: 4,
		MultiBankWholeFrac:         0.40,
		IntermittentFrac:           0.45,
		ActivationMinPerHour:       1.0 / 720, // about once a month
		ActivationMaxPerHour:       5.0,       // several times an hour
	}
}

// Config parameterises the refined fault-injection model of Section 4.1.2.
type Config struct {
	Geometry dram.Geometry
	Rates    Rates
	// Hours is the simulated horizon (the paper uses 6 years).
	Hours float64
	// VarianceFrac sets per-device lognormal rate variation: the variance
	// of a device's rate multiplier is VarianceFrac (the paper uses a
	// variance equal to 1/4 of the mean, i.e. multiplier mean 1, variance
	// 0.25 relative to a unit mean).
	VarianceFrac float64
	// AccelFactor is the FIT acceleration applied to unlucky nodes and
	// DIMMs (paper: 100x).
	AccelFactor float64
	// AccelNodeFrac and AccelDIMMFrac are the fractions of accelerated
	// nodes and DIMMs (paper: 0.1% each).
	AccelNodeFrac float64
	AccelDIMMFrac float64
	Shape         ShapeParams
}

// DefaultConfig returns the paper's baseline model: Cielo rates, 6 years,
// 100x acceleration of 0.1% of nodes and DIMMs.
func DefaultConfig() Config {
	return Config{
		Geometry:      dram.Default8GiBNode(),
		Rates:         CieloRates(),
		Hours:         6 * HoursPerYear,
		VarianceFrac:  0.25,
		AccelFactor:   100,
		AccelNodeFrac: 0.001,
		AccelDIMMFrac: 0.001,
		Shape:         DefaultShape(),
	}
}

// Model samples per-node fault histories.
type Model struct {
	cfg Config
	// adjustedMult is the rate multiplier of non-accelerated devices,
	// chosen per Equation (1) so the fleet-average FIT stays constant.
	adjustedMult float64
	// modeCDF is the cumulative probability of each (mode, persistence)
	// pair; index 2*mode for transient, 2*mode+1 for permanent.
	modeCDF   []float64
	totalFIT  float64
	devPerDMM int
	// weight is the per-device rate multiplier: mean 1, variance
	// VarianceFrac.
	weight stats.Lognormal
	// marginFrac is the device pick's margin M over W̃ (see pickCertified).
	marginFrac float64
}

// NewModel validates the configuration and precomputes sampling tables.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Hours <= 0 {
		return nil, fmt.Errorf("fault: Hours must be positive")
	}
	if cfg.AccelNodeFrac+cfg.AccelDIMMFrac >= 1 {
		return nil, fmt.Errorf("fault: acceleration fractions must sum below 1")
	}
	m := &Model{cfg: cfg, devPerDMM: cfg.Geometry.DevicesPerDIMM(), weight: stats.NewLognormal(1, cfg.VarianceFrac)}
	const eps = 0x1p-53
	devs := float64(cfg.Geometry.DIMMs() * m.devPerDMM)
	m.marginFrac = 3 * (stats.LognormalApproxErr + 2*eps + (2*devs+2)*eps)
	pn, pd, a := cfg.AccelNodeFrac, cfg.AccelDIMMFrac, cfg.AccelFactor
	if a <= 0 {
		a = 1
	}
	// Equation (1): FIT = PN*A*FIT + PD*A*FIT + (1-PN-PD)*adj*FIT.
	m.adjustedMult = (1 - (pn+pd)*a) / (1 - pn - pd)
	if m.adjustedMult < 0 {
		return nil, fmt.Errorf("fault: acceleration %v of %v+%v of parts exceeds the FIT budget", a, pn, pd)
	}
	m.modeCDF = make([]float64, 2*NumModes)
	var cum float64
	for mode := Mode(0); mode < NumModes; mode++ {
		cum += cfg.Rates.Transient[mode]
		m.modeCDF[2*mode] = cum
		cum += cfg.Rates.Permanent[mode]
		m.modeCDF[2*mode+1] = cum
	}
	m.totalFIT = cum
	if cum <= 0 {
		return nil, fmt.Errorf("fault: all FIT rates are zero")
	}
	return m, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// AdjustedMultiplier returns the rate multiplier applied to devices in
// non-accelerated parts (Equation 1); e.g. about 0.8 for the default 100x /
// 0.1% / 0.1% setting.
func (m *Model) AdjustedMultiplier() float64 { return m.adjustedMult }

// NodeFaults is one node's sampled fault history.
type NodeFaults struct {
	// Faults are sorted by arrival time.
	Faults []*Fault
	// NodeAccelerated marks a node drawn from the unlucky 0.1%.
	NodeAccelerated bool
	// AcceleratedDIMMs lists node-local DIMM indices drawn as unlucky.
	AcceleratedDIMMs []int
}

// PermanentCount returns the number of permanent faults.
func (nf *NodeFaults) PermanentCount() int {
	n := 0
	for _, f := range nf.Faults {
		if f.Permanent() {
			n++
		}
	}
	return n
}

// PermanentFaults returns the permanent faults in arrival order.
func (nf *NodeFaults) PermanentFaults() []*Fault {
	return nf.PermanentFaultsInto(nil)
}

// PermanentFaultsInto appends the permanent faults in arrival order to buf
// and returns it; hot paths pass a reused buffer so filtering allocates
// nothing in steady state.
func (nf *NodeFaults) PermanentFaultsInto(buf []*Fault) []*Fault {
	buf = buf[:0]
	for _, f := range nf.Faults {
		if f.Permanent() {
			buf = append(buf, f)
		}
	}
	return buf
}

// SampleScratch holds the per-call working buffers of SampleNodeScratch.
// One scratch serves one goroutine; the Monte Carlo workers keep one per
// worker so sampling allocates nothing in steady state: the multiplier and
// weight tables, the Fault objects themselves (including their extent and
// row-list backings), and the fault-pointer slices are all arena-pooled and
// reused across calls. A zero SampleScratch is ready to use.
//
// Aliasing contract: the NodeFaults returned by SampleNodeScratch — every
// *Fault, its Extents, and its AcceleratedDIMMs — remains valid only until
// the next SampleNodeScratch call with the same scratch. Callers that keep
// fault histories across trials must copy them (or pass a fresh scratch).
type SampleScratch struct {
	dimmMult []float64
	// us and ss hold each device's polar pair, the draw its weight is a
	// function of. While certified, weights holds the partial sums of the
	// approximate weights and total their sum W̃; otherwise weights holds
	// the exact weights and total their sum W.
	us, ss    []float64
	weights   []float64
	total     float64
	certified bool
	// arena holds the reusable Fault objects; entry i serves the i-th fault
	// of the current node. Objects are allocated once and reused along with
	// their extent backings, so steady-state sampling allocates nothing.
	arena []*Fault
	// rowBufs[i] is arena slot i's reusable row-list storage (kept here, not
	// on the Fault, so a slot alternating between list-shaped and
	// range-shaped modes does not shed its backing).
	rowBufs [][]int
	// ptrs backs NodeFaults.Faults; accel backs NodeFaults.AcceleratedDIMMs.
	ptrs  []*Fault
	accel []int
}

// fault returns the i-th reusable Fault of the arena and its row-list
// buffer, growing the arena on first use of a slot.
func (sc *SampleScratch) fault(i int) (*Fault, *[]int) {
	for i >= len(sc.arena) {
		sc.arena = append(sc.arena, &Fault{})
		sc.rowBufs = append(sc.rowBufs, nil)
	}
	return sc.arena[i], &sc.rowBufs[i]
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SampleNode draws one node's fault history over the configured horizon.
// The hot path — nodes with no faults at all — costs one Poisson draw, so
// fleet-scale Monte Carlo stays cheap.
func (m *Model) SampleNode(rng *stats.RNG) NodeFaults {
	return m.SampleNodeScratch(rng, nil)
}

// SampleNodeScratch is SampleNode with caller-owned working buffers (nil sc
// allocates fresh ones). The sampled history — and the RNG stream consumed —
// is bit-identical to SampleNode's; only the scratch allocations differ.
func (m *Model) SampleNodeScratch(rng *stats.RNG, sc *SampleScratch) NodeFaults {
	nf, _ := m.sampleNode(rng, sc, 1, -1)
	return nf
}

// SampleNodeBiased draws one node's fault history with the fault-arrival
// rate multiplied by boost (importance sampling on the Poisson arrival
// process: multi-fault nodes are oversampled) and returns the history along
// with the log likelihood ratio log(P_target / P_proposal) of the sampled
// arrival count — the trial's reweighting factor. Boost 1 consumes an RNG
// stream bit-identical to SampleNodeScratch and returns log-ratio 0.
func (m *Model) SampleNodeBiased(rng *stats.RNG, sc *SampleScratch, boost float64) (NodeFaults, float64) {
	return m.sampleNode(rng, sc, boost, -1)
}

// maxISLogWeight bounds the per-trial importance weight of the boosted
// sampler: the effective boost is capped at 1 + maxISLogWeight/λ so no
// weight exceeds e^maxISLogWeight (≈7.4), keeping the reweighted
// estimator's variance finite for every node class.
const maxISLogWeight = 2.0

// sampleNode is the one arrival-process kernel behind the unbiased, boosted
// and stratified samplers. With stratum < 0 only the Poisson mean differs
// (lambda vs lambda times the weight-capped effective boost) and the second
// result is the log likelihood ratio; with stratum s ≥ 0 boost is ignored,
// the count is drawn from the Poisson's positive tail, the first fault's
// class is forced to s, and the second result is the stratum weight (see
// SampleNodeStratified). Given the arrival count, the per-fault details are
// drawn identically.
func (m *Model) sampleNode(rng *stats.RNG, sc *SampleScratch, boost float64, stratum int) (NodeFaults, float64) {
	if sc == nil {
		sc = &SampleScratch{}
	}
	g := m.cfg.Geometry
	nDIMMs := g.DIMMs()
	nf := NodeFaults{}
	nodeMult := m.adjustedMult
	if rng.Bool(m.cfg.AccelNodeFrac) {
		nf.NodeAccelerated = true
		nodeMult = m.cfg.AccelFactor
	}
	// DIMM-level acceleration applies to DIMMs in otherwise-normal nodes.
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
		weight = -math.Expm1(-lambda) * m.StratumProb(stratum) // (1 − e^{−λ}) · p_s
		n = poissonAtLeast1(rng, lambda)
	} else {
		// Weight-bounded boosting: cap the effective boost so the
		// zero-count weight e^{λ(b−1)} never exceeds e^maxISLogWeight.
		// Nodes whose arrival rate is already large (the accelerated 0.1%)
		// are thereby barely boosted — they need no oversampling, and
		// boosting them uncapped gives the likelihood-ratio weights
		// unbounded variance (the estimator then systematically
		// underestimates in any finite sample).
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

	// Materialise per-device lognormal weights only for nodes that have
	// faults. The weight is shared across a device's fault processes; the
	// paper draws one rate per process per device, which at fleet scale is
	// statistically indistinguishable for the metrics reported (the
	// weights matter through same-device and same-DIMM clustering). Every
	// device draws its polar pair; the weights are evaluated approximately,
	// and exactly only once a pick cannot be proven from the approximation.
	devs := nDIMMs * m.devPerDMM
	sc.us, sc.ss, sc.weights = grow(sc.us, devs), grow(sc.ss, devs), grow(sc.weights, devs)
	if !m.weight.Fixed() {
		for i := range sc.us {
			sc.us[i], sc.ss[i] = rng.PolarPair()
		}
	}
	m.weigh(sc)

	faults := sc.ptrs[:0]
	for i := 0; i < n; i++ {
		devIdx := m.pick(sc, rng.Float64())
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
	// Insertion sort by arrival time: stable, allocation-free, and (arrival
	// times are distinct continuous draws) identical in output to the
	// sort.Slice it replaced. Fault counts per node are tiny.
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

// weigh evaluates the node's device weights from its pairs: the partial
// sums of the approximate weights, from which picks may be certified, or
// the exact weights when the lognormal is Fixed or outside
// stats.Lognormal.Approx's range, or when W̃ lies outside [2⁻⁹⁰⁰, 2⁹⁰⁰]
// (see pickCertified).
func (m *Model) weigh(sc *SampleScratch) {
	w := sc.weights
	sc.certified = m.weight.Approx(w, sc.us, sc.ss)
	if sc.certified {
		var acc float64
		for d, mult := range sc.dimmMult {
			for i := d * m.devPerDMM; i < (d+1)*m.devPerDMM; i++ {
				acc += w[i] * mult
				w[i] = acc
			}
		}
		sc.total, sc.certified = acc, acc >= 0x1p-900 && acc <= 0x1p900
	}
	if !sc.certified {
		sc.total = m.exactWeights(sc)
	}
}

// pick returns the device of a fault whose pick uniform is u: the device
// pickCertified proves from the approximate weights, else the exact
// scan's, evaluating the exact weights first if the node has none yet.
func (m *Model) pick(sc *SampleScratch, u float64) int {
	if sc.certified {
		if k, ok := pickCertified(sc.weights, u*sc.total, m.marginFrac*sc.total); ok {
			return k
		}
		sc.total, sc.certified = m.exactWeights(sc), false
	}
	return pickExact(sc.weights, u*sc.total)
}

// exactWeights sets sc.weights to the exact device weights, each its
// lognormal variate times its DIMM's multiplier, and returns their float
// sum W in index order.
func (m *Model) exactWeights(sc *SampleScratch) float64 {
	w := sc.weights
	var total float64
	for d, mult := range sc.dimmMult {
		for i := d * m.devPerDMM; i < (d+1)*m.devPerDMM; i++ {
			w[i] = m.weight.Exact(sc.us[i], sc.ss[i]) * mult
			total += w[i]
		}
	}
	return total
}

// pickExact is the exact scan: the first device k whose partial weight sum
// A_k exceeds target, else the last device.
func pickExact(weights []float64, target float64) int {
	k := 0
	for acc := 0.0; k < len(weights)-1; k++ {
		acc += weights[k]
		if target < acc {
			break
		}
	}
	return k
}

// pickCertified picks the device for the target t̃ = U·W̃ from the
// approximate partial sums cum, and reports whether the pick is proven to
// be pickExact's on the exact weights for t = U·W. When it is not, the
// caller recomputes the exact weights and scans them.
//
// Why a certified pick is exact. w_i and w̃_i are the exact and approximate
// weights, |w̃_i − w_i| ≤ δ·w_i with δ = stats.LognormalApproxErr + 2ε (the
// DIMM multiplier rounds each once more); A_k and Ã_k are the float
// partial sums in index order, W and W̃ the totals; t = fl(U·W),
// t̃ = fl(U·W̃); ε = 2⁻⁵³ and n is the number of devices. A float sum of k
// non-negative terms errs by at most kε of the sum, so |Ã_k − A_k| and
// |t̃ − t| are both at most E = (δ + (2n+2)ε)·W. The exact scan picks the
// first k with t < A_k, else the last device, and partial sums of
// non-negative weights never decrease. So k is its pick when t < A_k (for
// k < n−1) and A_{k−1} ≤ t (for k > 0), which follow from
//
//	t̃ + M < Ã_k  and  Ã_{k−1} + M ≤ t̃,  M = 3·(δ + (2n+2)ε)·W̃,
//
// because M ≥ 2E: t ≤ t̃ + E < Ã_k − M + E ≤ A_k − (M − 2E), and
// A_{k−1} ≤ Ã_{k−1} + E ≤ t̃ − M + E ≤ t − (M − 2E). The factor 3 where 2
// would do absorbs W̃ < W and the roundings of M, t̃ + M and Ã_{k−1} + M.
// Weights that underflow add at most 2n·2⁻¹⁰⁷⁴ to the errors, far below M
// while W̃ ≥ 2⁻⁹⁰⁰, and no sum overflows while W̃ ≤ 2⁹⁰⁰: weigh certifies
// nothing outside that range. A zero weight is exact, so the
// pick never lands on one but the last.
func pickCertified(cum []float64, target, margin float64) (int, bool) {
	last := len(cum) - 1
	k := 0
	for k < last && cum[k] <= target {
		k++
	}
	return k, (k == last || target+margin < cum[k]) && (k == 0 || cum[k-1]+margin <= target)
}

// NumStrata returns the number of (mode, persistence) fault classes the
// stratified sampler can condition on: 2*NumModes, indexed like modeCDF
// (2*mode for transient, 2*mode+1 for permanent).
func (m *Model) NumStrata() int { return 2 * int(NumModes) }

// StratumProb returns the probability that a single fault draw lands in
// class s (its FIT share of the total rate). Classes with zero configured
// rate have probability 0 and must not be conditioned on.
func (m *Model) StratumProb(s int) float64 {
	if s < 0 || s >= len(m.modeCDF) {
		return 0
	}
	p := m.modeCDF[s]
	if s > 0 {
		p -= m.modeCDF[s-1]
	}
	return p / m.totalFIT
}

// SampleNodeStratified draws one node's fault history conditioned on the
// stratum (N ≥ 1, first-arrival draw in class s): the Poisson count is
// redrawn from its positive tail and the first fault's (mode, persistence)
// class is forced to s, with everything else — acceleration, device pick,
// extents, arrival times — drawn as usual. The returned weight is the
// stratum probability P(N ≥ 1)·P(class s) = (1 − e^{−λ})·p_s; the caller
// divides by its allocation fraction across strata. The complementary
// "no faults" stratum contributes zero to every tallied metric and is never
// simulated, which is where the variance reduction comes from.
func (m *Model) SampleNodeStratified(rng *stats.RNG, sc *SampleScratch, s int) (NodeFaults, float64) {
	return m.sampleNode(rng, sc, 1, s)
}

// poissonAtLeast1 draws from Poisson(mean) conditioned on a positive count.
// Small means use exact sequential inversion of the zero-truncated CDF (the
// rejection loop would spin 1/(1−e^{−mean}) expected iterations); large
// means reject the (astronomically rare) zeros.
func poissonAtLeast1(rng *stats.RNG, mean float64) int {
	if mean <= 0 {
		// Conditioning on an impossible event; the caller's stratum weight
		// (1 − e^{−mean}) is 0, so the returned history never contributes.
		return 1
	}
	if mean < 30 {
		u := rng.Float64() * -math.Expm1(-mean) // U(0, 1 − e^{−mean})
		t := mean * math.Exp(-mean)             // P(N = 1)
		cum := t
		k := 1
		for u >= cum && k < 1<<20 {
			k++
			t *= mean / float64(k)
			cum += t
		}
		return k
	}
	for {
		if n := rng.Poisson(mean); n > 0 {
			return n
		}
	}
}

// sampleFault draws the mode, persistence, and extents of one fault into f
// (a reusable arena object whose extent backing is recycled; rowBuf is the
// slot's reusable row-list storage).
func (m *Model) sampleFault(rng *stats.RNG, dev dram.DeviceCoord, f *Fault, rowBuf *[]int) *Fault {
	target := rng.Float64() * m.totalFIT
	idx := sort.SearchFloat64s(m.modeCDF, target)
	if idx >= len(m.modeCDF) {
		idx = len(m.modeCDF) - 1
	}
	return m.sampleFaultClass(rng, dev, f, rowBuf, idx)
}

// sampleFaultClass is sampleFault with the (mode, persistence) class forced
// to idx (modeCDF indexing) instead of drawn — the stratified sampler's
// entry point for the conditioned first fault.
func (m *Model) sampleFaultClass(rng *stats.RNG, dev dram.DeviceCoord, f *Fault, rowBuf *[]int, idx int) *Fault {
	mode := Mode(idx / 2)
	transient := idx%2 == 0
	ext := f.Extents[:0]
	*f = Fault{Dev: dev, Mode: mode, Transient: transient}
	m.sampleExtents(rng, f, ext, rowBuf)
	if f.Permanent() && rng.Bool(m.cfg.Shape.IntermittentFrac) {
		f.Intermittent = true
		f.ActivationsPerHour = logUniform(rng, m.cfg.Shape.ActivationMinPerHour, m.cfg.Shape.ActivationMaxPerHour)
	}
	return f
}

// logUniform samples log-uniformly in [lo, hi].
func logUniform(rng *stats.RNG, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		return lo
	}
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// sampleExtents fills f.Extents according to the mode and shape parameters.
// ext is the recycled extent buffer ([:0] of the slot's previous backing);
// rowBuf is the slot's reusable row-list storage, updated in place when a
// list-shaped extent grows it.
func (m *Model) sampleExtents(rng *stats.RNG, f *Fault, ext []Extent, rowBuf *[]int) {
	g := m.cfg.Geometry
	sp := m.cfg.Shape
	bank := rng.Intn(g.Banks)
	switch f.Mode {
	case SingleBit:
		row := rng.Intn(g.Rows)
		if rng.Bool(sp.WordFrac) {
			blk := rng.Intn(g.ColBlocks())
			f.Extents = append(ext, Extent{
				BankLo: bank, BankHi: bank,
				Rows:  OneRow(row),
				ColLo: blk * g.ColumnsPerBlk, ColHi: (blk+1)*g.ColumnsPerBlk - 1,
			})
		} else {
			col := rng.Intn(g.Columns)
			f.Extents = append(ext, Extent{
				BankLo: bank, BankHi: bank,
				Rows:  OneRow(row),
				ColLo: col, ColHi: col,
			})
		}

	case SingleRow:
		row := rng.Intn(g.Rows)
		rows := OneRow(row)
		if rng.Bool(sp.TwoRowFrac) && row+1 < g.Rows {
			rows = RowRange(row, row+1)
		}
		f.Extents = append(ext, Extent{
			BankLo: bank, BankHi: bank,
			Rows:  rows,
			ColLo: 0, ColHi: g.Columns - 1,
		})

	case SingleColumn:
		col := rng.Intn(g.Columns)
		nSub := g.Rows / dram.SubarrayRows
		if nSub < 1 {
			nSub = 1
		}
		base := rng.Intn(nSub) * dram.SubarrayRows
		top := base + dram.SubarrayRows - 1
		if top >= g.Rows {
			top = g.Rows - 1
		}
		var rows RowSpec
		if rng.Bool(sp.ColFullSubarrayFrac) {
			rows = RowRange(base, top)
		} else {
			k := 2 + rng.Intn(max(sp.ColFewRowsMax-1, 1))
			picks := (*rowBuf)[:0]
			for j := 0; j < k; j++ {
				picks = append(picks, base+rng.Intn(top-base+1))
			}
			*rowBuf = picks
			rows = RowList(picks)
		}
		f.Extents = append(ext, Extent{
			BankLo: bank, BankHi: bank,
			Rows:  rows,
			ColLo: col, ColHi: col,
		})

	case SingleBank:
		f.Extents = append(ext, m.sampleBankExtent(rng, bank, bank, rowBuf))

	case MultiBank:
		nb := 2 + rng.Intn(max(g.Banks-1, 1))
		if nb > g.Banks {
			nb = g.Banks
		}
		lo := rng.Intn(g.Banks - nb + 1)
		hi := lo + nb - 1
		if rng.Bool(sp.MultiBankWholeFrac) {
			f.Extents = append(ext, Extent{
				BankLo: lo, BankHi: hi,
				Rows:  AllRows(),
				ColLo: 0, ColHi: g.Columns - 1,
			})
		} else {
			f.Extents = append(ext, m.sampleBankExtent(rng, lo, hi, rowBuf))
		}

	case MultiRank:
		f.Extents = append(ext, Extent{
			BankLo: 0, BankHi: g.Banks - 1,
			Rows:  AllRows(),
			ColLo: 0, ColHi: g.Columns - 1,
		})
		f.MirrorRanks = true
	}
}

// sampleBankExtent draws the in-bank structure of a bank-mode fault:
// whole-bank, a cluster of rows at random positions, or a cluster of
// adjacent columns through one or more subarrays.
func (m *Model) sampleBankExtent(rng *stats.RNG, bankLo, bankHi int, rowBuf *[]int) Extent {
	g := m.cfg.Geometry
	sp := m.cfg.Shape
	switch {
	case rng.Bool(sp.BankWholeFrac):
		return Extent{
			BankLo: bankLo, BankHi: bankHi,
			Rows:  AllRows(),
			ColLo: 0, ColHi: g.Columns - 1,
		}
	case rng.Bool(sp.BankRowClusterFrac):
		maxRows := max(sp.BankClusterMaxRows, 2)
		k := int(math.Round(logUniform(rng, 2, float64(maxRows))))
		if k > g.Rows {
			k = g.Rows
		}
		picks := (*rowBuf)[:0]
		for j := 0; j < k; j++ {
			picks = append(picks, rng.Intn(g.Rows))
		}
		*rowBuf = picks
		return Extent{
			BankLo: bankLo, BankHi: bankHi,
			Rows:  RowList(picks),
			ColLo: 0, ColHi: g.Columns - 1,
		}
	default:
		width := 2 + rng.Intn(max(sp.BankColClusterMaxCols-1, 1))
		colLo := rng.Intn(max(g.Columns-width, 1))
		nSubTotal := max(g.Rows/dram.SubarrayRows, 1)
		span := 1 + rng.Intn(max(sp.BankColClusterMaxSubarrays, 1))
		if span > nSubTotal {
			span = nSubTotal
		}
		base := rng.Intn(nSubTotal-span+1) * dram.SubarrayRows
		top := base + span*dram.SubarrayRows - 1
		if top >= g.Rows {
			top = g.Rows - 1
		}
		return Extent{
			BankLo: bankLo, BankHi: bankHi,
			Rows:  RowRange(base, top),
			ColLo: colLo, ColHi: colLo + width - 1,
		}
	}
}
