package fault

import (
	"math"
	"testing"
	"testing/quick"

	"relaxfault/internal/dram"
	"relaxfault/internal/stats"
)

// --- RowSpec -----------------------------------------------------------------

func TestRowSpecBasics(t *testing.T) {
	all := AllRows()
	if all.Count(100) != 100 || !all.Contains(55) {
		t.Error("AllRows wrong")
	}
	rg := RowRange(10, 19)
	if rg.Count(100) != 10 || !rg.Contains(10) || !rg.Contains(19) || rg.Contains(9) || rg.Contains(20) {
		t.Error("RowRange wrong")
	}
	one := OneRow(5)
	if one.Count(100) != 1 || !one.Contains(5) || one.Contains(6) {
		t.Error("OneRow wrong")
	}
	lst := RowList([]int{7, 3, 3, 9})
	if lst.Count(100) != 3 || !lst.Contains(3) || !lst.Contains(7) || !lst.Contains(9) || lst.Contains(5) {
		t.Error("RowList dedup/sort wrong")
	}
	if RowRange(5, 4).Count(100) != 0 {
		t.Error("empty range count")
	}
}

func TestRowSpecForEachOrderAndAbort(t *testing.T) {
	lst := RowList([]int{9, 1, 5})
	var got []int
	lst.ForEach(100, func(r int) bool {
		got = append(got, r)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("ForEach got %v", got)
	}
	n := 0
	AllRows().ForEach(10, func(int) bool { n++; return true })
	if n != 10 {
		t.Errorf("AllRows iterated %d", n)
	}
}

// TestRowSpecIntersectsMatchesBruteForce is a property test over the three
// representations.
func TestRowSpecIntersectsMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(5)
	const rows = 64
	mk := func() RowSpec {
		switch rng.Intn(3) {
		case 0:
			return AllRows()
		case 1:
			lo := rng.Intn(rows)
			return RowRange(lo, lo+rng.Intn(rows-lo))
		default:
			k := 1 + rng.Intn(5)
			xs := make([]int, k)
			for i := range xs {
				xs[i] = rng.Intn(rows)
			}
			return RowList(xs)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		a, b := mk(), mk()
		want := false
		for r := 0; r < rows; r++ {
			if a.Contains(r) && b.Contains(r) {
				want = true
				break
			}
		}
		if got := a.Intersects(b, rows); got != want {
			t.Fatalf("trial %d: Intersects=%v want %v (a=%+v b=%+v)", trial, got, want, a, b)
		}
	}
}

// --- Extent -------------------------------------------------------------------

func TestExtentCounts(t *testing.T) {
	g := dram.Default8GiBNode()
	row := Extent{BankLo: 2, BankHi: 2, Rows: OneRow(100), ColLo: 0, ColHi: g.Columns - 1}
	if row.CellCount(g) != int64(g.Columns) {
		t.Errorf("row cells %d", row.CellCount(g))
	}
	// FreeFault grouping: 8 columns per line -> 256 lines per row.
	if row.LineCount(g, g.ColumnsPerBlk) != 256 {
		t.Errorf("row FF lines %d", row.LineCount(g, g.ColumnsPerBlk))
	}
	// RelaxFault grouping: 128 columns per remap line -> 16 lines.
	if row.LineCount(g, g.ColumnsPerBlk*16) != 16 {
		t.Errorf("row RF lines %d", row.LineCount(g, g.ColumnsPerBlk*16))
	}
	bit := Extent{BankLo: 0, BankHi: 0, Rows: OneRow(1), ColLo: 5, ColHi: 5}
	if bit.LineCount(g, 8) != 1 || bit.CellCount(g) != 1 {
		t.Error("bit extent counts wrong")
	}
	wholeBank := Extent{BankLo: 3, BankHi: 3, Rows: AllRows(), ColLo: 0, ColHi: g.Columns - 1}
	if wholeBank.LineCount(g, 8) != int64(g.Rows)*256 {
		t.Errorf("whole bank lines %d", wholeBank.LineCount(g, 8))
	}
}

func TestExtentForEachLineMatchesCount(t *testing.T) {
	g := dram.Default8GiBNode()
	e := Extent{BankLo: 1, BankHi: 2, Rows: RowList([]int{4, 99, 1000}), ColLo: 100, ColHi: 900}
	for _, group := range []int{8, 128} {
		n := int64(0)
		seen := map[[3]int]bool{}
		e.ForEachLine(g, group, func(bank, row, cg int) bool {
			n++
			k := [3]int{bank, row, cg}
			if seen[k] {
				t.Fatal("duplicate line emitted")
			}
			seen[k] = true
			return true
		})
		if n != e.LineCount(g, group) {
			t.Errorf("group %d: enumerated %d, analytic %d", group, n, e.LineCount(g, group))
		}
	}
	// Early abort.
	n := 0
	e.ForEachLine(g, 8, func(int, int, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("abort after %d", n)
	}
	// Fault level: every extent, on every rank the fault applies to.
	e2 := Extent{BankLo: 5, BankHi: 5, Rows: OneRow(7), ColLo: 0, ColHi: g.Columns - 1}
	for _, tc := range []struct {
		mirror bool
		lo, hi int
	}{{false, 1, 2}, {true, 0, g.DIMMsPerChan}} {
		f := &Fault{Dev: dram.DeviceCoord{Channel: 1, Rank: 1, Device: 4}, Extents: []Extent{e, e2}, MirrorRanks: tc.mirror}
		if lo, hi := f.Ranks(g); lo != tc.lo || hi != tc.hi {
			t.Errorf("mirror=%v: ranks [%d, %d), want [%d, %d)", tc.mirror, lo, hi, tc.lo, tc.hi)
		}
		for _, group := range []int{8, 128} {
			var n int64
			for r := tc.lo; r < tc.hi; r++ {
				for _, ex := range f.Extents {
					ex.ForEachLine(g, group, func(int, int, int) bool { n++; return true })
				}
			}
			if got := f.LineCount(g, group); got != n {
				t.Errorf("mirror=%v group %d: enumerated %d, fault LineCount %d", tc.mirror, group, n, got)
			}
		}
	}
}

func TestExtentContainsAndIntersects(t *testing.T) {
	g := dram.Default8GiBNode()
	a := Extent{BankLo: 1, BankHi: 1, Rows: RowRange(10, 20), ColLo: 0, ColHi: 2047}
	b := Extent{BankLo: 1, BankHi: 1, Rows: OneRow(15), ColLo: 7, ColHi: 7}
	c := Extent{BankLo: 2, BankHi: 2, Rows: OneRow(15), ColLo: 7, ColHi: 7}
	d := Extent{BankLo: 1, BankHi: 1, Rows: OneRow(25), ColLo: 7, ColHi: 7}
	if !a.Intersects(b, g) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c, g) {
		t.Error("different banks should not intersect")
	}
	if a.Intersects(d, g) {
		t.Error("disjoint rows should not intersect")
	}
	if !a.Contains(1, 15, 100) || a.Contains(1, 9, 100) || a.Contains(0, 15, 100) {
		t.Error("Contains wrong")
	}
}

// --- Fault overlap ------------------------------------------------------------

func mkFault(ch, rk, dev int, e Extent) *Fault {
	return &Fault{Dev: dram.DeviceCoord{Channel: ch, Rank: rk, Device: dev}, Extents: []Extent{e}}
}

func TestOverlaps(t *testing.T) {
	g := dram.Default8GiBNode()
	row := Extent{BankLo: 1, BankHi: 1, Rows: OneRow(50), ColLo: 0, ColHi: g.Columns - 1}
	bit := Extent{BankLo: 1, BankHi: 1, Rows: OneRow(50), ColLo: 3, ColHi: 3}

	if !Overlaps(mkFault(0, 0, 1, row), mkFault(0, 0, 2, bit), g) {
		t.Error("same rank different devices sharing a row should overlap")
	}
	if Overlaps(mkFault(0, 0, 1, row), mkFault(0, 0, 1, bit), g) {
		t.Error("same device never 'overlaps' itself into a DUE")
	}
	if Overlaps(mkFault(0, 0, 1, row), mkFault(0, 1, 2, bit), g) {
		t.Error("different ranks should not overlap")
	}
	if Overlaps(mkFault(0, 0, 1, row), mkFault(1, 0, 2, bit), g) {
		t.Error("different channels should not overlap")
	}
	// MirrorRanks projects across ranks of the channel.
	mr := mkFault(0, 0, 1, Extent{BankLo: 0, BankHi: g.Banks - 1, Rows: AllRows(), ColLo: 0, ColHi: g.Columns - 1})
	mr.MirrorRanks = true
	if !Overlaps(mr, mkFault(0, 1, 2, bit), g) {
		t.Error("mirrored fault should overlap sibling rank")
	}
}

// --- Rates --------------------------------------------------------------------

func TestRatesTotalsAndScale(t *testing.T) {
	r := CieloRates()
	if math.Abs(r.TotalTransient()-20.3) > 1e-9 {
		t.Errorf("transient total %f", r.TotalTransient())
	}
	if math.Abs(r.TotalPermanent()-20.0) > 1e-9 {
		t.Errorf("permanent total %f", r.TotalPermanent())
	}
	s := r.Scale(10)
	if math.Abs(s.TotalPermanent()-200.0) > 1e-9 {
		t.Errorf("scaled total %f", s.TotalPermanent())
	}
	// Scale must not mutate the original.
	if math.Abs(r.TotalPermanent()-20.0) > 1e-9 {
		t.Error("Scale mutated receiver")
	}
	if HopperRates().TotalPermanent() <= 0 {
		t.Error("Hopper rates empty")
	}
}

func TestModeString(t *testing.T) {
	for m := Mode(0); m < NumModes; m++ {
		if m.String() == "" {
			t.Errorf("mode %d has empty name", int(m))
		}
	}
}

// --- Model --------------------------------------------------------------------

func TestNewModelValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hours = 0
	if _, err := NewModel(cfg); err == nil {
		t.Error("zero hours accepted")
	}
	cfg = DefaultConfig()
	cfg.AccelNodeFrac = 0.6
	cfg.AccelDIMMFrac = 0.5
	if _, err := NewModel(cfg); err == nil {
		t.Error("fractions >= 1 accepted")
	}
	cfg = DefaultConfig()
	cfg.AccelFactor = 100
	cfg.AccelNodeFrac = 0.01 // 1% at 100x overshoots the budget
	if _, err := NewModel(cfg); err == nil {
		t.Error("over-budget acceleration accepted")
	}
}

func TestAdjustedMultiplierEquation1(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// (1 - 0.002*100) / (1 - 0.002) = 0.8/0.998.
	want := 0.8 / 0.998
	if math.Abs(m.AdjustedMultiplier()-want) > 1e-12 {
		t.Errorf("adjusted multiplier %f, want %f", m.AdjustedMultiplier(), want)
	}
}

// TestSampleNodeRateCalibration: the expected number of faults per node
// must match the configured FIT arithmetic, and the faulty-node fraction
// the paper quotes (~12% with any permanent fault over 6 years).
func TestSampleNodeRateCalibration(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	const nodes = 120000
	faults, permNodes := 0, 0
	for i := 0; i < nodes; i++ {
		nf := m.SampleNode(rng)
		faults += len(nf.Faults)
		if nf.PermanentCount() > 0 {
			permNodes++
		}
	}
	// Expected faults per node = 144 devices * 40.3 FIT * 52560h.
	expect := 144 * 40.3e-9 * 6 * HoursPerYear
	got := float64(faults) / nodes
	if math.Abs(got-expect)/expect > 0.03 {
		t.Errorf("faults per node %f, want %f", got, expect)
	}
	frac := float64(permNodes) / nodes
	if frac < 0.10 || frac > 0.14 {
		t.Errorf("faulty-node fraction %f outside [0.10, 0.14]", frac)
	}
}

// TestSampleNodeModeMix: attribution must follow the per-mode FIT shares.
func TestSampleNodeModeMix(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(10)
	counts := make(map[Mode]int)
	perm := 0
	total := 0
	for total < 30000 {
		nf := m.SampleNode(rng)
		for _, f := range nf.Faults {
			counts[f.Mode]++
			if f.Permanent() {
				perm++
			}
			total++
		}
	}
	r := CieloRates()
	whole := r.TotalTransient() + r.TotalPermanent()
	for mode := Mode(0); mode < NumModes; mode++ {
		share := (r.Transient[mode] + r.Permanent[mode]) / whole
		got := float64(counts[mode]) / float64(total)
		if math.Abs(got-share) > 0.02+share*0.15 {
			t.Errorf("mode %v share %f, want %f", mode, got, share)
		}
	}
	permShare := float64(perm) / float64(total)
	if math.Abs(permShare-20.0/40.3) > 0.02 {
		t.Errorf("permanent share %f", permShare)
	}
}

// TestSampleNodeExtentsWithinBounds: every sampled extent must be inside
// the geometry and consistent with its mode.
func TestSampleNodeExtentsWithinBounds(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Config().Geometry
	rng := stats.NewRNG(11)
	seen := 0
	for seen < 5000 {
		nf := m.SampleNode(rng)
		for _, f := range nf.Faults {
			seen++
			if f.Dev.Channel >= g.Channels || f.Dev.Rank >= g.DIMMsPerChan || f.Dev.Device >= g.DevicesPerDIMM() {
				t.Fatalf("device out of range: %v", f.Dev)
			}
			if len(f.Extents) == 0 {
				t.Fatalf("fault with no extents: %+v", f)
			}
			for _, e := range f.Extents {
				if e.BankLo < 0 || e.BankHi >= g.Banks || e.BankLo > e.BankHi {
					t.Fatalf("bank range %d..%d", e.BankLo, e.BankHi)
				}
				if e.ColLo < 0 || e.ColHi >= g.Columns || e.ColLo > e.ColHi {
					t.Fatalf("col range %d..%d", e.ColLo, e.ColHi)
				}
				e.Rows.ForEach(g.Rows, func(r int) bool {
					if r < 0 || r >= g.Rows {
						t.Fatalf("row %d out of range", r)
					}
					return true
				})
			}
			switch f.Mode {
			case SingleBit:
				if f.CellCount(g) > int64(g.ColumnsPerBlk) {
					t.Errorf("bit/word fault too large: %d cells", f.CellCount(g))
				}
			case SingleRow:
				if n := f.Extents[0].Rows.Count(g.Rows); n < 1 || n > 2 {
					t.Errorf("row fault spans %d rows", n)
				}
			case SingleColumn:
				if f.Extents[0].Cols() != 1 {
					t.Errorf("column fault spans %d columns", f.Extents[0].Cols())
				}
			case MultiRank:
				if !f.MirrorRanks {
					t.Error("multi-rank fault without mirror flag")
				}
			}
			if f.AtHours < 0 || f.AtHours >= m.Config().Hours {
				t.Errorf("arrival %f outside horizon", f.AtHours)
			}
		}
	}
}

// TestArrivalTimesSorted: fault lists come back in arrival order.
func TestArrivalTimesSorted(t *testing.T) {
	m, _ := NewModel(DefaultConfig())
	rng := stats.NewRNG(12)
	checked := 0
	for checked < 1000 {
		nf := m.SampleNode(rng)
		for i := 1; i < len(nf.Faults); i++ {
			if nf.Faults[i].AtHours < nf.Faults[i-1].AtHours {
				t.Fatal("faults not sorted by arrival")
			}
		}
		checked += len(nf.Faults)
	}
}

// TestAccelerationIncreasesClustering: with acceleration, the probability
// that a faulty node has 2+ faults must exceed the unaccelerated model's —
// the paper's core argument for the refined fault model.
func TestAccelerationIncreasesClustering(t *testing.T) {
	base := DefaultConfig()
	base.AccelFactor = 1
	base.AccelNodeFrac = 0
	base.AccelDIMMFrac = 0
	flat, err := NewModel(base)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The metric the refined model exists to move (Figure 9a): DIMMs where
	// two or more distinct devices develop permanent faults.
	multiDIMMs := func(m *Model, seed uint64) int {
		g := m.Config().Geometry
		rng := stats.NewRNG(seed)
		count := 0
		for i := 0; i < 150000; i++ {
			nf := m.SampleNode(rng)
			if len(nf.Faults) < 2 {
				continue
			}
			devs := make(map[int]map[int]bool)
			for _, f := range nf.Faults {
				if !f.Permanent() {
					continue
				}
				d := f.Dev.DIMMIndex(g)
				if devs[d] == nil {
					devs[d] = make(map[int]bool)
				}
				devs[d][f.Dev.Device] = true
			}
			for _, ds := range devs {
				if len(ds) >= 2 {
					count++
				}
			}
		}
		return count
	}
	flatN := multiDIMMs(flat, 1)
	accN := multiDIMMs(acc, 2)
	if float64(accN) <= float64(flatN)*2 {
		t.Errorf("acceleration did not multiply multi-device DIMMs: %d vs %d", accN, flatN)
	}
}

func TestLogUniformBounds(t *testing.T) {
	rng := stats.NewRNG(13)
	prop := func() bool {
		v := logUniform(rng, 0.001, 10)
		return v >= 0.001 && v <= 10
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
