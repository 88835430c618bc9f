package repair

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

// --- Page retirement ---------------------------------------------------

func TestPageRetirementBitFault(t *testing.T) {
	m := mapper(t)
	pr := must(NewPageRetirement(m, 4<<10, 0))
	plan := PlanInto(pr, nil, []*fault.Fault{bitFault(dev(0, 0, 3), 1, 100, 5)})
	if !plan.AllMappable {
		t.Fatal("bit fault should be retirable")
	}
	if plan.TotalLines != 1 || plan.Bytes != 4<<10 {
		t.Errorf("bit fault retires %d pages / %d bytes, want 1 / 4096", plan.TotalLines, plan.Bytes)
	}
}

// TestPageRetirementRowFaultSpreads demonstrates the paper's Section 6
// argument: one device row (a fault RelaxFault fixes with 1KiB of LLC)
// spreads over many 4KiB frames because of address interleaving.
func TestPageRetirementRowFaultSpreads(t *testing.T) {
	m := mapper(t)
	pr := must(NewPageRetirement(m, 4<<10, 1<<30))
	plan := PlanInto(pr, nil, []*fault.Fault{rowFault(dev(0, 0, 3), 1, 100)})
	if !plan.AllMappable {
		t.Fatal("row fault should fit a 1GiB budget")
	}
	// The row's 256 cachelines spread over 16 distinct frames under this
	// interleaving: 64KiB of capacity lost to mask a fault RelaxFault
	// absorbs with 1KiB of LLC.
	if plan.TotalLines < 16 {
		t.Errorf("row fault retired only %d pages; interleaving should spread it", plan.TotalLines)
	}
	if plan.Bytes < 16*4096 {
		t.Errorf("capacity loss %d bytes implausibly small", plan.Bytes)
	}
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	rfPlan := PlanInto(rf, nil, []*fault.Fault{rowFault(dev(0, 0, 3), 1, 100)})
	if plan.Bytes < 32*rfPlan.Bytes {
		t.Errorf("retirement (%dB) should cost far more than RelaxFault (%dB)", plan.Bytes, rfPlan.Bytes)
	}
}

func TestPageRetirementBudgetRefusesMassiveFaults(t *testing.T) {
	m := mapper(t)
	pr := must(NewPageRetirement(m, 4<<10, 0)) // default 1% budget
	plan := PlanInto(pr, nil, []*fault.Fault{wholeBankFault(dev(0, 0, 5), 3)})
	if plan.AllMappable {
		t.Error("whole-bank fault should exceed the retirement budget")
	}
}

func TestPageRetirementHugePagesWorse(t *testing.T) {
	m := mapper(t)
	small := must(NewPageRetirement(m, 4<<10, 1<<40))
	huge := must(NewPageRetirement(m, 2<<20, 1<<40))
	f := []*fault.Fault{rowFault(dev(1, 1, 2), 4, 9)}
	ps := PlanInto(small, nil, f)
	ph := PlanInto(huge, nil, f)
	if ph.Bytes <= ps.Bytes {
		t.Errorf("huge pages should lose more capacity: %d vs %d", ph.Bytes, ps.Bytes)
	}
}

func TestPageRetirementIncrementalMatchesBatch(t *testing.T) {
	m := mapper(t)
	pr := must(NewPageRetirement(m, 4<<10, 0))
	model, _ := fault.NewModel(fault.DefaultConfig())
	rng := stats.NewRNG(31)
	tested := 0
	for tested < 40 {
		nf := model.SampleNode(rng)
		perm := nf.PermanentFaults()
		if len(perm) == 0 {
			continue
		}
		tested++
		plan := PlanInto(pr, nil, perm) // retires pages in arrival order
		st := pr.NewState()
		for i, f := range perm {
			if got, batch := pr.TryRepair(st, f, 1), plan.PerFault[i].Mappable; got != batch {
				t.Fatalf("fault %d (%v): incremental %v batch %v", i, f.Mode, got, batch)
			}
		}
	}
}

// TestPageRetirementAllocationFree: once its working sets have grown,
// page retirement plans into a reused Plan and repairs into a reused state
// without allocating, like the LLC and PPR planners.
func TestPageRetirementAllocationFree(t *testing.T) {
	m := mapper(t)
	faults := []*fault.Fault{rowFault(dev(0, 0, 3), 1, 100), rowFault(dev(1, 1, 2), 4, 9), bitFault(dev(0, 1, 7), 2, 50, 3)}
	for _, pageBytes := range []int64{4 << 10, 2 << 20} {
		pr := must(NewPageRetirement(m, pageBytes, 1<<40))
		plan := PlanInto(pr, nil, faults)
		if !plan.AllMappable || plan.TotalLines == 0 {
			t.Fatalf("%s: the faults should retire within a 1TiB budget", pr.Name())
		}
		if n := testing.AllocsPerRun(20, func() { pr.PlanNodeInto(plan, faults) }); n != 0 {
			t.Errorf("%s: PlanNodeInto allocates %v times per call", pr.Name(), n)
		}
		st := pr.NewState()
		repairAll := func() {
			st.Reset()
			for _, f := range faults {
				if !pr.TryRepair(st, f, 1) {
					t.Fatalf("%s: TryRepair refused a fault within budget", pr.Name())
				}
			}
		}
		repairAll()
		if n := testing.AllocsPerRun(20, repairAll); n != 0 {
			t.Errorf("%s: TryRepair allocates %v times per node", pr.Name(), n)
		}
	}
}

// --- Mirroring -----------------------------------------------------------

func TestMirroringAbsorbsEverythingAtHalfCapacity(t *testing.T) {
	g := dram.Default8GiBNode()
	mir := must(NewMirroring(g))
	faults := []*fault.Fault{
		wholeBankFault(dev(0, 0, 5), 3),
		rowFault(dev(1, 1, 2), 4, 9),
	}
	plan := PlanInto(mir, nil, faults)
	if !plan.AllMappable || !plan.RepairableUnder(1) {
		t.Error("mirroring should absorb any fault")
	}
	if plan.Bytes != int64(g.NodeDataBytes()/2) {
		t.Errorf("mirroring cost %d bytes, want half the node", plan.Bytes)
	}
	st := mir.NewState()
	for _, f := range faults {
		if !mir.TryRepair(st, f, 1) {
			t.Error("incremental mirroring rejected a fault")
		}
	}
}

// --- Ablations -------------------------------------------------------------

// TestAblationNoCoalescing: dropping the 16-block coalescing multiplies the
// row-fault footprint by 16 — quantifying the core design choice.
func TestAblationNoCoalescing(t *testing.T) {
	m := mapper(t)
	full := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	ab := must(NewRelaxFault(m, 16, RelaxFaultOptions{NoCoalescing: true}))
	f := []*fault.Fault{rowFault(dev(0, 1, 7), 2, 300)}
	pf := PlanInto(full, nil, f)
	pa := PlanInto(ab, nil, f)
	if pa.TotalLines != 16*pf.TotalLines {
		t.Errorf("ablated footprint %d, want 16x %d", pa.TotalLines, pf.TotalLines)
	}
	if pa.Engine == pf.Engine {
		t.Error("ablated planner should carry a distinct name")
	}
}

// TestAblationNoSpread: without the identity fold, faults on different
// devices/banks sharing row positions collide in the same sets, destroying
// multi-fault way behaviour.
func TestAblationNoSpread(t *testing.T) {
	m := mapper(t)
	ab := must(NewRelaxFault(m, 16, RelaxFaultOptions{NoSpread: true}))
	// Two row faults with identical low row bits on different banks: with
	// the spread hash these nearly never collide; without it they MUST.
	f1 := rowFault(dev(0, 0, 2), 1, 1000)
	f2 := rowFault(dev(0, 0, 5), 6, 1000)
	plan := PlanInto(ab, nil, []*fault.Fault{f1, f2})
	if plan.MaxWaysPerSet < 2 {
		t.Errorf("no-spread placement should collide: max ways %d", plan.MaxWaysPerSet)
	}
	full := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	planFull := PlanInto(full, nil, []*fault.Fault{f1, f2})
	if planFull.MaxWaysPerSet != 1 {
		t.Errorf("spread placement should not collide: max ways %d", planFull.MaxWaysPerSet)
	}
}

// --- Geometry variants -------------------------------------------------

func TestVariantGeometriesPlanConsistently(t *testing.T) {
	for _, g := range []dram.Geometry{dram.DDR4Node(), dram.HBMStackNode(), dram.LPDDR4Node()} {
		if err := g.Validate(); err != nil {
			t.Fatalf("variant geometry invalid: %v", err)
		}
		m, err := addrmap.New(g, 8192)
		if err != nil {
			t.Fatal(err)
		}
		rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
		f := &fault.Fault{
			Dev:  dram.DeviceCoord{Channel: 0, Rank: 0, Device: 1},
			Mode: fault.SingleRow,
			Extents: []fault.Extent{{
				BankLo: g.Banks - 1, BankHi: g.Banks - 1,
				Rows:  fault.OneRow(g.Rows - 1),
				ColLo: 0, ColHi: g.Columns - 1,
			}},
		}
		plan := PlanInto(rf, nil, []*fault.Fault{f})
		wantLines := int64(g.ColBlocks() / addrmap.SubBlocksPerLine)
		if plan.TotalLines != wantLines {
			t.Errorf("%d-bank geometry: row fault uses %d lines, want %d", g.Banks, plan.TotalLines, wantLines)
		}
		if !plan.RepairableUnder(1) {
			t.Errorf("%d-bank geometry: row fault not 1-way repairable", g.Banks)
		}
	}
}

func TestPPRBudgetVariants(t *testing.T) {
	g := dram.LPDDR4Node()
	// LPDDR4: one spare per bank -> two rows in adjacent banks repairable.
	perBank := must(NewPPR(g, 1, 1))
	d := dev(0, 0, 4)
	plan := PlanInto(perBank, nil, []*fault.Fault{rowFault(d, 0, 1), rowFault(d, 1, 2)})
	if !plan.AllMappable {
		t.Error("per-bank spares should repair rows in adjacent banks")
	}
	// Two spares per group absorb the two-row fault that defeats default
	// PPR.
	roomy := must(NewPPR(dram.Default8GiBNode(), 2, 2))
	two := &fault.Fault{Dev: d, Mode: fault.SingleRow, Extents: []fault.Extent{{
		BankLo: 4, BankHi: 4, Rows: fault.RowRange(10, 11), ColLo: 0, ColHi: dram.Default8GiBNode().Columns - 1,
	}}}
	if !PlanInto(roomy, nil, []*fault.Fault{two}).AllMappable {
		t.Error("2-spare budget should absorb a two-row fault")
	}
}
