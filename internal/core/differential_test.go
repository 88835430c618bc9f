package core

import (
	"fmt"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/fault"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// The planner-vs-controller differential. repair's analytic LLC planners
// decide every coverage, DUE and SDC number the paper's figures report; the
// controller repairs real data. Fed one node's permanent faults in arrival
// order, the two must agree on every accept/reject decision, on the repair
// lines resident after each fault, and on whether the whole node repairs.

// diffPlanner pairs an LLC planner with the controller mode that
// implements it functionally.
type diffPlanner struct {
	name string
	mode Mode
	hash bool
}

var diffPlanners = []diffPlanner{
	{"RelaxFault", RelaxFaultMode, true},
	{"FreeFault+hash", FreeFaultMode, true},
	{"FreeFault", FreeFaultMode, false},
}

// diffModel returns the default fault model with every rate scaled by fit.
func diffModel(t *testing.T, fit float64) *fault.Model {
	t.Helper()
	cfg := fault.DefaultConfig()
	cfg.Rates = cfg.Rates.Scale(fit)
	m, err := fault.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// diffNode feeds perm in arrival order to a fresh controller capped at
// wayCap repair lines per set and to the matching planner's TryRepair,
// reporting every disagreement under label. It returns the controller's
// per-fault outcomes.
func diffNode(t *testing.T, label string, dp diffPlanner, wayCap int, perm []*fault.Fault) []RepairOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode, cfg.HashSetIndex, cfg.MaxRepairWaysPerSet = dp.mode, dp.hash, wayCap
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repair.NewRelaxFault(c.Mapper(), cfg.LLCWays, repair.RelaxFaultOptions{})
	if dp.mode == FreeFaultMode {
		p, err = repair.NewFreeFault(c.Mapper(), cfg.LLCWays, dp.hash)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := p.NewState()
	var accepted []*fault.Fault
	outs := make([]RepairOutcome, len(perm))
	for i, f := range perm {
		out, err := c.RepairFault(f)
		if err != nil {
			t.Fatalf("%s fault %d: %v", label, i, err)
		}
		outs[i] = out
		if want := p.TryRepair(st, f, wayCap); out.Accepted != want {
			t.Errorf("%s fault %d (%v %v): controller accepted=%v (%s), TryRepair %v",
				label, i, f.Mode, f.Dev, out.Accepted, out.Reason, want)
		}
		if out.Accepted {
			accepted = append(accepted, f)
		}
		plan := repair.PlanInto(p, nil, accepted)
		if plan.TotalLines != int64(c.RepairedLines()) {
			t.Errorf("%s after fault %d: plan of the accepted faults has %d lines, controller holds %d",
				label, i, plan.TotalLines, c.RepairedLines())
		}
		if plan.MaxWaysPerSet > wayCap {
			t.Errorf("%s after fault %d: plan of the accepted faults presses %d ways, cap is %d",
				label, i, plan.MaxWaysPerSet, wayCap)
		}
	}
	if got, want := repair.PlanInto(p, nil, perm).RepairableUnder(wayCap), len(accepted) == len(perm); got != want {
		t.Errorf("%s: PlanInto(...).RepairableUnder(%d) = %v, controller accepted %d of %d faults",
			label, wayCap, got, len(accepted), len(perm))
	}
	return outs
}

// TestPlannerControllerDifferential samples faulty nodes at 1x and 10x FIT,
// from the plain and the importance-boosted sampler, and runs each through
// RelaxFault, FreeFault+hash and unhashed FreeFault at way caps 1, 2 and 4.
// Node RNGs are derived as the Monte Carlo kernels derive them.
func TestPlannerControllerDifferential(t *testing.T) {
	perPair := 60 // faulty nodes per (FIT, sampler) pair
	if testing.Short() {
		perPair = 10
	}
	for _, fit := range []float64{1, 10} {
		for _, boost := range []float64{1, 16} {
			t.Run(fmt.Sprintf("fit%gx/boost%g", fit, boost), func(t *testing.T) {
				model := diffModel(t, fit)
				fk := stats.NewRNG(5).Forker()
				var rng stats.RNG
				var sc fault.SampleScratch
				var perm []*fault.Fault
				arrivals := 0
				for node, faulty := uint64(0), 0; faulty < perPair; node++ {
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
					for _, dp := range diffPlanners {
						for _, wayCap := range []int{1, 2, 4} {
							diffNode(t, fmt.Sprintf("node %d %s cap %d", node, dp.name, wayCap), dp, wayCap, perm)
							arrivals += len(perm)
						}
					}
				}
				t.Logf("%d faulty nodes, %d fault arrivals compared", perPair, arrivals)
			})
		}
	}
}

// TestPlannerControllerPinnedCases pins nodes where a plan of the whole
// fault history differs from arrival-order repair: PlanNodeInto charges each
// fault only the lines no earlier fault enumerated, whether or not that
// earlier fault was repaired, so a fault's charge (the TotalLines of the
// history up to it less that of the history before it) is not a repair
// decision. The controller and TryRepair agree on every one (diffNode).
// Coordinates: fault.DefaultConfig with rates x10, SampleNodeBiased at
// boost 16, substream n of stats.NewRNG(11).Forker(); fault indices are
// 0-based arrival order.
func TestPlannerControllerPinnedCases(t *testing.T) {
	ff, ffHash := diffPlanners[2], diffPlanners[1]
	for _, tc := range []struct {
		substream uint64
		dp        diffPlanner
		wayCap    int
		faults    int
		pinned    int
		accepted  bool
		reason    string // "" skips the check
		lines     int    // lines the controller allocates for the pinned fault
		planLines int64  // lines PlanNodeInto of the history charges it
	}{
		// A single-bit/word fault whose one line was already enumerated by
		// a rejected fault: the plan charges it nothing, but its set is full.
		{5447, ffHash, 1, 148, 97, false, "set 5821 would hold 2 locked repair lines, cap is 1", 0, 0},
		{849, ff, 2, 132, 78, false, "", 0, 0},
		// Fault 1 (multi-bank, ch2/rk1/dev0) is rejected; fault 2
		// (single-bank, ch2/rk1/dev7) shares 8 lines with it, which the
		// controller must allocate and the plan does not charge.
		{232, ffHash, 4, 4, 2, true, "", 15360, 15352},
	} {
		t.Run(fmt.Sprintf("substream%d", tc.substream), func(t *testing.T) {
			var rng stats.RNG
			stats.NewRNG(11).Forker().Substream(tc.substream, &rng)
			nf, _ := diffModel(t, 10).SampleNodeBiased(&rng, &fault.SampleScratch{}, 16)
			perm := nf.PermanentFaults()
			if len(perm) != tc.faults {
				t.Fatalf("node has %d permanent faults, want %d", len(perm), tc.faults)
			}
			outs := diffNode(t, fmt.Sprintf("%s cap %d", tc.dp.name, tc.wayCap), tc.dp, tc.wayCap, perm)
			out := outs[tc.pinned]
			if out.Accepted != tc.accepted || out.LinesAllocated != tc.lines {
				t.Errorf("fault %d: accepted=%v with %d lines (%s), want accepted=%v with %d",
					tc.pinned, out.Accepted, out.LinesAllocated, out.Reason, tc.accepted, tc.lines)
			}
			if tc.reason != "" && out.Reason != tc.reason {
				t.Errorf("fault %d: reason %q, want %q", tc.pinned, out.Reason, tc.reason)
			}
			cfg := DefaultConfig()
			m, err := addrmap.New(cfg.Geometry, cfg.LLCSets)
			if err != nil {
				t.Fatal(err)
			}
			p, err := repair.NewFreeFault(m, cfg.LLCWays, tc.dp.hash)
			if err != nil {
				t.Fatal(err)
			}
			if got := repair.PlanInto(p, nil, perm[:tc.pinned+1]).TotalLines - repair.PlanInto(p, nil, perm[:tc.pinned]).TotalLines; got != tc.planLines {
				t.Errorf("PlanInto charges fault %d %d lines, want %d", tc.pinned, got, tc.planLines)
			}
		})
	}
}
