package repair

import (
	"reflect"
	"strings"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

// must returns v, panicking on err: the constructors reject only the inputs
// TestConstructorsRejectBadInput covers.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func mapper(t *testing.T) *addrmap.Mapper {
	t.Helper()
	m, err := addrmap.New(dram.Default8GiBNode(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dev(ch, rk, d int) dram.DeviceCoord {
	return dram.DeviceCoord{Channel: ch, Rank: rk, Device: d}
}

func bitFault(d dram.DeviceCoord, bank, row, col int) *fault.Fault {
	return &fault.Fault{Dev: d, Mode: fault.SingleBit, Extents: []fault.Extent{{
		BankLo: bank, BankHi: bank, Rows: fault.OneRow(row), ColLo: col, ColHi: col,
	}}}
}

func rowFault(d dram.DeviceCoord, bank, row int) *fault.Fault {
	g := dram.Default8GiBNode()
	return &fault.Fault{Dev: d, Mode: fault.SingleRow, Extents: []fault.Extent{{
		BankLo: bank, BankHi: bank, Rows: fault.OneRow(row), ColLo: 0, ColHi: g.Columns - 1,
	}}}
}

func colFault(d dram.DeviceCoord, bank, col int) *fault.Fault {
	return &fault.Fault{Dev: d, Mode: fault.SingleColumn, Extents: []fault.Extent{{
		BankLo: bank, BankHi: bank,
		Rows:  fault.RowRange(512, 512+dram.SubarrayRows-1),
		ColLo: col, ColHi: col,
	}}}
}

func wholeBankFault(d dram.DeviceCoord, bank int) *fault.Fault {
	g := dram.Default8GiBNode()
	return &fault.Fault{Dev: d, Mode: fault.SingleBank, Extents: []fault.Extent{{
		BankLo: bank, BankHi: bank, Rows: fault.AllRows(), ColLo: 0, ColHi: g.Columns - 1,
	}}}
}

func TestRelaxFaultLineBudgets(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))

	plan := PlanInto(rf, nil, []*fault.Fault{bitFault(dev(0, 0, 3), 1, 100, 5)})
	if !plan.AllMappable || plan.TotalLines != 1 || plan.MaxWaysPerSet != 1 {
		t.Errorf("bit fault plan: %+v", plan)
	}

	plan = PlanInto(rf, nil, []*fault.Fault{rowFault(dev(0, 0, 3), 1, 100)})
	if plan.TotalLines != 16 {
		t.Errorf("row fault uses %d RF lines, want 16", plan.TotalLines)
	}
	if plan.MaxWaysPerSet != 1 {
		t.Errorf("row fault presses %d ways, want 1", plan.MaxWaysPerSet)
	}
	if plan.Bytes != 16*64 {
		t.Errorf("row fault bytes %d", plan.Bytes)
	}

	plan = PlanInto(rf, nil, []*fault.Fault{colFault(dev(1, 1, 7), 2, 99)})
	if plan.TotalLines != int64(dram.SubarrayRows) {
		t.Errorf("column fault uses %d lines, want %d", plan.TotalLines, dram.SubarrayRows)
	}
	if plan.MaxWaysPerSet > 2 {
		t.Errorf("column fault presses %d ways", plan.MaxWaysPerSet)
	}
}

func TestFreeFaultNeeds16xMoreLinesForRows(t *testing.T) {
	m := mapper(t)
	ff := must(NewFreeFault(m, 16, true))
	plan := PlanInto(ff, nil, []*fault.Fault{rowFault(dev(0, 0, 3), 1, 100)})
	if plan.TotalLines != 256 {
		t.Errorf("FreeFault row fault uses %d lines, want 256", plan.TotalLines)
	}
	if plan.MaxWaysPerSet != 1 {
		t.Errorf("hashed FreeFault row fault presses %d ways, want 1", plan.MaxWaysPerSet)
	}
}

func TestFreeFaultUnhashedColumnCollapse(t *testing.T) {
	m := mapper(t)
	ff := must(NewFreeFault(m, 16, false))
	plan := PlanInto(ff, nil, []*fault.Fault{colFault(dev(0, 0, 0), 0, 40)})
	// Un-hashed, all 512 rows of a column land in one set: unrepairable
	// even at 16 ways.
	if plan.MaxWaysPerSet != dram.SubarrayRows {
		t.Errorf("un-hashed column fault max ways %d, want %d", plan.MaxWaysPerSet, dram.SubarrayRows)
	}
	if plan.RepairableUnder(16) {
		t.Error("un-hashed FreeFault should not repair a column fault at 16 ways")
	}
	ffh := must(NewFreeFault(m, 16, true))
	plan = PlanInto(ffh, nil, []*fault.Fault{colFault(dev(0, 0, 0), 0, 40)})
	if !plan.RepairableUnder(1) {
		t.Error("hashed FreeFault should repair a column fault at 1 way")
	}
}

func TestWholeBankUnmappable(t *testing.T) {
	m := mapper(t)
	for _, p := range []Planner{must(NewRelaxFault(m, 16, RelaxFaultOptions{})), must(NewFreeFault(m, 16, true))} {
		plan := PlanInto(p, nil, []*fault.Fault{wholeBankFault(dev(0, 0, 5), 3)})
		if plan.AllMappable {
			t.Errorf("%s: whole-bank fault mappable", p.Name())
		}
		if plan.RepairableUnder(16) {
			t.Errorf("%s: whole-bank fault repairable", p.Name())
		}
	}
}

// lineSets returns the LLC sets of f's repair lines under p.
func lineSets(p *LLCPlanner, f *fault.Fault) map[int32]bool {
	sets := map[int32]bool{}
	p.ForEachLine(f, func(_, _, _, _ int, set int32, _ uint64) bool {
		sets[set] = true
		return true
	})
	return sets
}

// TestGreedyUnderPartialRepair: at a 1-way limit, arrival-order repair
// keeps the first of two faults that collide in a set and skips the second.
func TestGreedyUnderPartialRepair(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	// The repair mapping deliberately spreads faults, so a same-set
	// conflict between two row faults must be found by search: take the
	// first row on another bank whose remap lines collide with f1's.
	d := dev(0, 0, 2)
	f1 := rowFault(d, 1, 1000)
	f1Sets := lineSets(rf, f1)
	var f2 *fault.Fault
search:
	for r := 0; r < m.Geometry().Rows; r++ {
		cand := rowFault(d, 2, r)
		for s := range lineSets(rf, cand) {
			if f1Sets[s] {
				f2 = cand
				break search
			}
		}
	}
	if f2 == nil {
		t.Fatal("no colliding row found (mapping too perfect to be real)")
	}
	f3 := rowFault(d, 3, 9)
	faults := []*fault.Fault{f1, f2, f3}
	plan := PlanInto(rf, nil, faults)
	if plan.RepairableUnder(1) {
		t.Fatal("conflicting rows should exceed 1 way")
	}
	if !plan.RepairableUnder(2) {
		t.Fatal("two ways should suffice")
	}
	st := rf.NewState()
	var repaired []*fault.Fault
	for _, f := range faults {
		if rf.TryRepair(st, f, 1) {
			repaired = append(repaired, f)
		}
	}
	if len(repaired) == 0 || repaired[0] != f1 {
		t.Fatal("first fault should always be repaired")
	}
	if len(repaired) > 1 && repaired[1] == f2 {
		t.Error("colliding second fault should be skipped at 1 way")
	}
	if lines, want := PlanInto(rf, nil, repaired).TotalLines, int64(16*len(repaired)); lines != want {
		t.Errorf("greedy lines %d, want %d", lines, want)
	}
}

func TestMirrorRanksDoublesLines(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	f := rowFault(dev(2, 0, 1), 4, 77)
	f.MirrorRanks = true
	plan := PlanInto(rf, nil, []*fault.Fault{f})
	if plan.TotalLines != 32 {
		t.Errorf("mirrored row fault uses %d lines, want 32", plan.TotalLines)
	}
}

func TestPPRSemantics(t *testing.T) {
	g := dram.Default8GiBNode()
	ppr := must(NewPPR(g, 0, 0))
	d := dev(0, 0, 4)

	// Bit and row faults are repairable.
	plan := PlanInto(ppr, nil, []*fault.Fault{bitFault(d, 0, 5, 5), rowFault(d, 7, 9)})
	if !plan.AllMappable {
		t.Error("PPR should repair bit and row faults")
	}
	if !plan.RepairableUnder(1) {
		t.Error("PPR repairability must ignore way limits")
	}
	// Column faults span too many rows.
	plan = PlanInto(ppr, nil, []*fault.Fault{colFault(d, 0, 5)})
	if plan.AllMappable {
		t.Error("PPR should not repair a column fault")
	}
	// Spare exhaustion: two row faults in the same bank group (banks 0 and
	// 1 share a group with 8 banks / 4 groups).
	pair := []*fault.Fault{rowFault(d, 0, 1), rowFault(d, 1, 2)}
	plan = PlanInto(ppr, nil, pair)
	if plan.AllMappable {
		t.Error("PPR should exhaust the bank group's single spare")
	}
	// Either fault alone fits, so the first-come one is repaired and the
	// second is refused for want of a spare.
	for i, f := range pair {
		if !PlanInto(ppr, nil, []*fault.Fault{f}).AllMappable {
			t.Errorf("PPR should repair row fault %d on its own", i)
		}
	}
	// Different groups have their own spares.
	plan = PlanInto(ppr, nil, []*fault.Fault{rowFault(d, 0, 1), rowFault(d, 2, 2)})
	if !plan.AllMappable {
		t.Error("PPR should repair rows in distinct bank groups")
	}
	// Different devices have their own spares too.
	plan = PlanInto(ppr, nil, []*fault.Fault{rowFault(d, 0, 1), rowFault(dev(0, 0, 5), 0, 2)})
	if !plan.AllMappable {
		t.Error("PPR spares are per device")
	}
	// Two-row fault needs two spares in one group: unrepairable.
	two := &fault.Fault{Dev: d, Mode: fault.SingleRow, Extents: []fault.Extent{{
		BankLo: 4, BankHi: 4, Rows: fault.RowRange(10, 11), ColLo: 0, ColHi: g.Columns - 1,
	}}}
	plan = PlanInto(ppr, nil, []*fault.Fault{two})
	if plan.AllMappable {
		t.Error("two-row fault should exceed one spare")
	}
}

// TestIncrementalMatchesBatchGreedy: TryRepair in arrival order must agree
// with batch planning on random fault sets — the equivalence the
// reliability simulator relies on. The batch reference repairs a fault when
// PlanNodeInto of the faults repaired so far plus that fault fits the way
// limit (core's planner-vs-controller differential checks RelaxFault and
// FreeFault against functional repair); PPR ignores the limit and
// allocates spares in arrival order.
func TestIncrementalMatchesBatchGreedy(t *testing.T) {
	m := mapper(t)
	g := m.Geometry()
	model, err := fault.NewModel(fault.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(21)
	tested := 0
	for tested < 60 {
		nf := model.SampleNode(rng)
		perm := nf.PermanentFaults()
		if len(perm) == 0 {
			continue
		}
		tested++
		for _, p := range []*LLCPlanner{must(NewRelaxFault(m, 16, RelaxFaultOptions{})), must(NewFreeFault(m, 16, true))} {
			for _, way := range []int{1, 4, 16} {
				checkGreedy(t, p, way, perm)
			}
		}
		checkGreedy(t, must(NewPPR(g, 0, 0)), 1, perm)
	}
}

// checkGreedy checks p's TryRepair in arrival order against batch planning:
// a fault is repaired when PlanNodeInto of the faults repaired so far plus
// that fault is repairable under the way limit.
func checkGreedy(t *testing.T, p Planner, way int, faults []*fault.Fault) {
	t.Helper()
	st := p.NewState()
	var repaired []*fault.Fault
	for i, f := range faults {
		batch := PlanInto(p, nil, append(repaired[:len(repaired):len(repaired)], f)).RepairableUnder(way)
		if inc := p.TryRepair(st, f, way); inc != batch {
			t.Fatalf("%s way %d fault %d (%v): incremental %v, batch %v", p.Name(), way, i, f.Mode, inc, batch)
		}
		if batch {
			repaired = append(repaired, f)
		}
	}
}

// TestPlanDeterminism: planning is a pure function.
func TestPlanDeterminism(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	fs := []*fault.Fault{rowFault(dev(1, 0, 9), 3, 42), colFault(dev(1, 0, 9), 3, 7)}
	a := PlanInto(rf, nil, fs)
	b := PlanInto(rf, nil, fs)
	if a.TotalLines != b.TotalLines || a.MaxWaysPerSet != b.MaxWaysPerSet || a.Bytes != b.Bytes {
		t.Error("plans differ across runs")
	}
}

// TestCapacityOrderingRFvsFF: for every repairable fault shape, RelaxFault
// must never need more lines than FreeFault (it coalesces 16 column blocks
// per line).
func TestCapacityOrderingRFvsFF(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	ff := must(NewFreeFault(m, 16, true))
	model, _ := fault.NewModel(fault.DefaultConfig())
	rng := stats.NewRNG(22)
	tested := 0
	for tested < 100 {
		nf := model.SampleNode(rng)
		perm := nf.PermanentFaults()
		if len(perm) == 0 {
			continue
		}
		tested++
		prf := PlanInto(rf, nil, perm)
		pff := PlanInto(ff, nil, perm)
		if prf.AllMappable && pff.AllMappable && prf.TotalLines > pff.TotalLines {
			t.Fatalf("RelaxFault used more lines (%d) than FreeFault (%d)", prf.TotalLines, pff.TotalLines)
		}
	}
}

func TestGreedyZeroWayLimit(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	f := bitFault(dev(0, 0, 0), 0, 0, 0)
	st := rf.NewState()
	if rf.TryRepair(st, f, 0) {
		t.Error("zero way limit repaired something")
	}
	if !rf.TryRepair(st, f, 1) {
		t.Error("a rejected repair left state behind")
	}
}

func TestPlannerNames(t *testing.T) {
	m := mapper(t)
	g := m.Geometry()
	if must(NewRelaxFault(m, 16, RelaxFaultOptions{})).Name() != "RelaxFault" {
		t.Error("RelaxFault name")
	}
	if must(NewFreeFault(m, 16, true)).Name() != "FreeFault+hash" {
		t.Error("FreeFault hashed name")
	}
	if must(NewFreeFault(m, 16, false)).Name() != "FreeFault" {
		t.Error("FreeFault name")
	}
	// g has 8 banks, so NewPPR's budget is one spare per 2 banks.
	if must(NewPPR(g, 0, 0)).Name() != "PPR" || must(NewPPR(g, 2, 1)).Name() != "PPR" {
		t.Error("PPR name at NewPPR's budget")
	}
	if got := must(NewPPR(g, 2, 2)).Name(); got != "PPR-2spare-per-2banks" {
		t.Errorf("PPR name at 2 spares per 2 banks: %q", got)
	}
	if got := must(NewPPR(g, 1, 1)).Name(); got != "PPR-1spare-per-1banks" {
		t.Errorf("PPR name at 1 spare per bank: %q", got)
	}
}

// TestConstructorsRejectBadInput: each constructor reports the inputs it
// cannot plan with as errors, where it once clamped them or left them to a
// later panic, and zero still selects the documented defaults.
func TestConstructorsRejectBadInput(t *testing.T) {
	m := mapper(t)
	g := m.Geometry()
	bad := g
	bad.Banks = 3
	badMapper := &addrmap.Mapper{} // zero geometry
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"relaxfault nil mapper", errOf(NewRelaxFault(nil, 16, RelaxFaultOptions{})), "nil address mapper"},
		{"freefault nil mapper", errOf(NewFreeFault(nil, 16, true)), "nil address mapper"},
		{"page-retire nil mapper", errOf(NewPageRetirement(nil, 0, 0)), "nil address mapper"},
		{"relaxfault zero ways", errOf(NewRelaxFault(m, 0, RelaxFaultOptions{})), "LLC ways must be positive"},
		{"relaxfault negative ways", errOf(NewRelaxFault(m, -1, RelaxFaultOptions{NoSpread: true})), "LLC ways must be positive"},
		{"freefault zero ways", errOf(NewFreeFault(m, 0, false)), "LLC ways must be positive"},
		{"ppr negative banks", errOf(NewPPR(g, -1, 1)), "banks per group must be positive"},
		{"ppr negative spares", errOf(NewPPR(g, 2, -1)), "spares per group must be positive"},
		{"ppr banks beyond device", errOf(NewPPR(g, g.Banks+1, 1)), "exceeds the device's 8 banks"},
		{"page-retire odd frame", errOf(NewPageRetirement(m, 100, 0)), "multiple of the 64B line"},
		{"page-retire negative frame", errOf(NewPageRetirement(m, -4, 0)), "multiple of the 64B line"},
		{"page-retire negative budget", errOf(NewPageRetirement(m, 0, -1)), "negative retirement budget"},
		{"relaxfault invalid geometry", errOf(NewRelaxFault(badMapper, 16, RelaxFaultOptions{})), "RelaxFault: dram:"},
		{"freefault invalid geometry", errOf(NewFreeFault(badMapper, 16, true)), "FreeFault: dram:"},
		{"page-retire invalid geometry", errOf(NewPageRetirement(badMapper, 0, 0)), "page retirement: dram:"},
		{"ppr invalid geometry", errOf(NewPPR(bad, 0, 0)), "PPR: dram: Banks"},
		{"mirroring invalid geometry", errOf(NewMirroring(bad)), "mirroring: dram: Banks"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}

	// Zero budgets select the defaults: Banks/4 banks per spare row, and
	// 4KiB frames with a 1% retirement budget.
	d := dev(0, 0, 3)
	faults := []*fault.Fault{
		rowFault(d, 0, 1), rowFault(d, 1, 2), rowFault(d, 2, 3),
		bitFault(d, 4, 5, 6), colFault(d, 5, 7), rowFault(dev(1, 1, 9), 7, 8),
	}
	def, explicit := must(NewPPR(g, 0, 0)), must(NewPPR(g, g.Banks/4, 1))
	if def.Name() != "PPR" {
		t.Errorf("NewPPR(g, 0, 0) named %q, want PPR", def.Name())
	}
	if a, b := PlanInto(def, nil, faults), PlanInto(explicit, nil, faults); !reflect.DeepEqual(a, b) {
		t.Errorf("default PPR budget plans %+v, explicit Banks/4 budget %+v", a, b)
	}
	pr := must(NewPageRetirement(m, 0, 0))
	if pr.Name() != "PageRetire-4KiB" {
		t.Errorf("NewPageRetirement(m, 0, 0) named %q, want PageRetire-4KiB", pr.Name())
	}
	onePct := must(NewPageRetirement(m, 4<<10, int64(g.NodeDataBytes()/100)))
	if a, b := PlanInto(pr, nil, faults), PlanInto(onePct, nil, faults); !reflect.DeepEqual(a, b) {
		t.Errorf("default page retirement plans %+v, explicit 4KiB/1%% %+v", a, b)
	}
}

// errOf returns a constructor's error.
func errOf[T any](_ T, err error) error { return err }
