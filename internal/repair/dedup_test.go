package repair

import (
	"fmt"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

// refNode is the reference the planners' extent dedup must reproduce: each
// fault's repair lines as ForEachLine enumerates them, deduplicated by
// their (set, tag) in a map. Lines get dense ids, so equal (set, tag)
// pairs share one id.
type refNode struct {
	nsets    int
	sets     []int32 // per line id
	lines    [][]int // per fault: the ids of its lines, repeats included
	mappable []bool
}

func newRefNode(p *LLCPlanner, faults []*fault.Fault) refNode {
	type key struct {
		set int32
		tag uint64
	}
	ids := map[key]int{}
	r := refNode{nsets: 1 << p.mapper.SetBits(), lines: make([][]int, len(faults)), mappable: make([]bool, len(faults))}
	for i, f := range faults {
		r.mappable[i] = p.ForEachLine(f, func(_, _, _, _ int, set int32, tag uint64) bool {
			id, ok := ids[key{set, tag}]
			if !ok {
				id = len(r.sets)
				ids[key{set, tag}] = id
				r.sets = append(r.sets, set)
			}
			r.lines[i] = append(r.lines[i], id)
			return true
		})
	}
	return r
}

// plan is PlanNodeInto by the reference: each fault is charged the lines no
// earlier fault enumerated.
func (r refNode) plan() (lines []int64, total int64, maxWays int) {
	seen := make([]bool, len(r.sets))
	load := make([]int, r.nsets)
	lines = make([]int64, len(r.lines))
	for i, ids := range r.lines {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				lines[i]++
				load[r.sets[id]]++
				maxWays = max(maxWays, load[r.sets[id]])
			}
		}
		total += lines[i]
	}
	return lines, total, maxWays
}

// repairs is TryRepair in arrival order by the reference: a mappable fault
// is accepted when the lines no accepted fault holds fit wayCap in every
// set.
func (r refNode) repairs(wayCap int) []bool {
	held := make([]bool, len(r.sets))
	load, demand := make([]int, r.nsets), make([]int, r.nsets)
	var fresh []int
	out := make([]bool, len(r.lines))
	for i, ids := range r.lines {
		fresh = fresh[:0]
		for _, id := range ids {
			if !held[id] {
				held[id] = true
				fresh = append(fresh, id)
				demand[r.sets[id]]++
			}
		}
		out[i] = r.mappable[i] && wayCap > 0
		for _, id := range fresh {
			out[i] = out[i] && load[r.sets[id]]+demand[r.sets[id]] <= wayCap
		}
		for _, id := range fresh {
			if out[i] {
				load[r.sets[id]]++
			}
			held[id] = out[i]
			demand[r.sets[id]] = 0
		}
	}
	return out
}

// charges returns the lines PlanNodeInto charges each fault: the
// TotalLines of the faults up to it less that of the faults before it.
func charges(p Planner, faults []*fault.Fault) []int64 {
	out := make([]int64, len(faults))
	var plan Plan
	prev := int64(0)
	for i := range faults {
		p.PlanNodeInto(&plan, faults[:i+1])
		out[i], prev = plan.TotalLines-prev, plan.TotalLines
	}
	return out
}

// checkDedup compares p's PlanNodeInto (each fault's charge, each fault's
// own one-fault AllMappable, TotalLines, MaxWaysPerSet) and its TryRepair
// decisions at way caps 1, 2, 4 and 16 on faults against the reference.
func checkDedup(t *testing.T, label string, p *LLCPlanner, faults []*fault.Fault) {
	t.Helper()
	ref := newRefNode(p, faults)
	lines, total, maxWays := ref.plan()
	var one Plan
	for i, charge := range charges(p, faults) {
		p.PlanNodeInto(&one, faults[i:i+1])
		if charge != lines[i] || one.AllMappable != ref.mappable[i] {
			t.Errorf("%s %s fault %d (%v %+v): plan charges %d lines, mappable %v; reference %d, %v",
				label, p.Name(), i, faults[i].Mode, faults[i].Dev, charge, one.AllMappable, lines[i], ref.mappable[i])
		}
	}
	plan := PlanInto(p, nil, faults)
	if plan.TotalLines != total || plan.MaxWaysPerSet != maxWays {
		t.Errorf("%s %s: plan has %d lines pressing %d ways; reference %d lines, %d ways",
			label, p.Name(), plan.TotalLines, plan.MaxWaysPerSet, total, maxWays)
	}
	for _, wayCap := range []int{1, 2, 4, 16} {
		want := ref.repairs(wayCap)
		st := p.NewState()
		for i, f := range faults {
			if got := p.TryRepair(st, f, wayCap); got != want[i] {
				t.Errorf("%s %s cap %d fault %d (%v %+v): TryRepair %v, reference %v",
					label, p.Name(), wayCap, i, f.Mode, f.Dev, got, want[i])
				break
			}
		}
	}
}

// TestDedupAcrossFaults pins hand-built nodes where lines do or do not
// coincide: each fault's charge and, where a cap is given, the
// TryRepair decisions, each also checked against the reference.
func TestDedupAcrossFaults(t *testing.T) {
	m := mapper(t)
	rf := must(NewRelaxFault(m, 16, RelaxFaultOptions{}))
	ff, ffh := must(NewFreeFault(m, 16, false)), must(NewFreeFault(m, 16, true))
	d3 := dev(0, 0, 3)
	mirrored := func(d dram.DeviceCoord, bank, row int) *fault.Fault {
		f := rowFault(d, bank, row)
		f.MirrorRanks = true
		return f
	}
	colRows := func(d dram.DeviceCoord, bank, col int, rows fault.RowSpec) *fault.Fault {
		return &fault.Fault{Dev: d, Mode: fault.SingleColumn, Extents: []fault.Extent{{
			BankLo: bank, BankHi: bank, Rows: rows, ColLo: col, ColHi: col,
		}}}
	}
	cols := m.Geometry().Columns
	twoExtents := &fault.Fault{Dev: d3, Mode: fault.SingleBank, Extents: []fault.Extent{
		{BankLo: 1, BankHi: 1, Rows: fault.RowRange(100, 101), ColLo: 0, ColHi: cols - 1},
		{BankLo: 1, BankHi: 1, Rows: fault.RowRange(101, 102), ColLo: 0, ColHi: cols - 1},
	}}
	for _, tc := range []struct {
		name   string
		p      *LLCPlanner
		faults []*fault.Fault
		lines  []int64 // each fault's charge (see charges)
		wayCap int     // 0: no TryRepair expectation
		accept []bool
	}{
		{"adjacent columns of one group", rf,
			[]*fault.Fault{bitFault(d3, 1, 100, 7), bitFault(d3, 1, 100, 8)}, []int64{1, 0}, 0, nil},
		{"adjacent columns of two blocks", ffh,
			[]*fault.Fault{bitFault(d3, 1, 100, 7), bitFault(d3, 1, 100, 8)}, []int64{1, 1}, 0, nil},
		{"adjacent columns of one block", ffh,
			[]*fault.Fault{bitFault(d3, 1, 100, 5), bitFault(d3, 1, 100, 6)}, []int64{1, 0}, 0, nil},
		{"one row on two devices", rf,
			[]*fault.Fault{rowFault(d3, 1, 100), rowFault(dev(0, 0, 5), 1, 100)}, []int64{16, 16}, 0, nil},
		{"one row on two devices", ffh,
			[]*fault.Fault{rowFault(d3, 1, 100), rowFault(dev(0, 0, 5), 1, 100)}, []int64{256, 0}, 0, nil},
		{"MirrorRanks over a single-rank fault", rf,
			[]*fault.Fault{rowFault(dev(0, 1, 3), 1, 100), mirrored(d3, 1, 100)}, []int64{16, 16}, 0, nil},
		{"single-rank fault under MirrorRanks", rf,
			[]*fault.Fault{mirrored(d3, 1, 100), rowFault(dev(0, 1, 3), 1, 100)}, []int64{32, 0}, 0, nil},
		{"MirrorRanks over a single-rank fault on another device", ffh,
			[]*fault.Fault{rowFault(dev(0, 1, 5), 1, 100), mirrored(d3, 1, 100)}, []int64{256, 256}, 0, nil},
		{"same place on another rank", ffh,
			[]*fault.Fault{rowFault(dev(0, 1, 3), 1, 100), rowFault(d3, 1, 100)}, []int64{256, 256}, 0, nil},
		{"two extents that overlap", rf, []*fault.Fault{twoExtents}, []int64{48}, 0, nil},
		{"two extents that overlap", ffh, []*fault.Fault{twoExtents}, []int64{768}, 0, nil},
		{"RowList against RowRange", rf, []*fault.Fault{
			colRows(d3, 1, 5, fault.RowList([]int{10, 20, 30})),
			colRows(d3, 1, 5, fault.RowRange(15, 25)),
		}, []int64{3, 10}, 0, nil},
		{"RowList straddling RowRange", rf, []*fault.Fault{
			colRows(d3, 1, 5, fault.RowList([]int{10, 30})),
			colRows(d3, 1, 5, fault.RowRange(15, 25)),
		}, []int64{2, 11}, 0, nil},
		// The whole bank is unmappable, so its lines are never placed.
		{"earlier unmappable fault", rf,
			[]*fault.Fault{wholeBankFault(d3, 1), rowFault(d3, 1, 100)}, []int64{0, 16}, 16, []bool{false, true}},
		// Unhashed, the column's 512 lines share one set, so it is rejected
		// at one way; the bit faults inside it then need their own lines.
		// PlanNodeInto still charges them nothing: the column was enumerated.
		{"earlier rejected candidate", ff, []*fault.Fault{
			colFault(dev(0, 0, 0), 0, 40), bitFault(dev(0, 0, 0), 0, 600, 40), bitFault(dev(0, 0, 0), 0, 601, 40),
		}, []int64{512, 0, 0}, 1, []bool{false, true, false}},
	} {
		t.Run(tc.p.Name()+"/"+tc.name, func(t *testing.T) {
			for i, got := range charges(tc.p, tc.faults) {
				if got != tc.lines[i] {
					t.Errorf("fault %d charged %d lines, want %d", i, got, tc.lines[i])
				}
			}
			if tc.wayCap > 0 {
				st := tc.p.NewState()
				for i, f := range tc.faults {
					if got := tc.p.TryRepair(st, f, tc.wayCap); got != tc.accept[i] {
						t.Errorf("cap %d fault %d: TryRepair %v, want %v", tc.wayCap, i, got, tc.accept[i])
					}
				}
			}
			checkDedup(t, "", tc.p, tc.faults)
		})
	}
}

// TestDedupMatchesMapReference samples faulty nodes as the Monte Carlo
// kernels do (substream n of one Forker; 1x and 10x FIT; plain and
// boost-16 sampling) on four geometries, and checks every LLC planner's
// extent dedup against the map-based reference.
func TestDedupMatchesMapReference(t *testing.T) {
	perCell := 400 // faulty nodes per (geometry, FIT, sampler)
	if testing.Short() {
		perCell = 25
	}
	for _, geo := range []struct {
		name string
		g    dram.Geometry
	}{
		{"ddr3-8gib", dram.Default8GiBNode()},
		{"ddr4-16gib", dram.DDR4Node()},
		{"hbm-stack", dram.HBMStackNode()},
		{"lpddr4", dram.LPDDR4Node()},
	} {
		m, err := addrmap.New(geo.g, 8192)
		if err != nil {
			t.Fatal(err)
		}
		planners := []*LLCPlanner{
			must(NewRelaxFault(m, 16, RelaxFaultOptions{})),
			must(NewRelaxFault(m, 16, RelaxFaultOptions{NoCoalescing: true})),
			must(NewRelaxFault(m, 16, RelaxFaultOptions{NoSpread: true})),
			must(NewFreeFault(m, 16, false)),
			must(NewFreeFault(m, 16, true)),
		}
		for _, fit := range []float64{1, 10} {
			for _, boost := range []float64{1, 16} {
				t.Run(fmt.Sprintf("%s/fit%gx/boost%g", geo.name, fit, boost), func(t *testing.T) {
					t.Parallel()
					cfg := fault.DefaultConfig()
					cfg.Geometry = geo.g
					cfg.Rates = cfg.Rates.Scale(fit)
					model, err := fault.NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fk := stats.NewRNG(9).Forker()
					var rng stats.RNG
					var sc fault.SampleScratch
					var perm []*fault.Fault
					for node, faulty := uint64(0), 0; faulty < perCell && !t.Failed(); node++ {
						fk.Substream(node, &rng)
						var nf fault.NodeFaults
						if boost == 1 {
							nf = model.SampleNodeScratch(&rng, &sc)
						} else {
							nf, _ = model.SampleNodeBiased(&rng, &sc, boost)
						}
						if perm = nf.PermanentFaultsInto(perm); len(perm) == 0 {
							continue
						}
						faulty++
						for _, p := range planners {
							checkDedup(t, fmt.Sprintf("node %d", node), p, perm)
						}
					}
				})
			}
		}
	}
}
