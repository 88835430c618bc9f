package repair

import (
	"fmt"
	"sync"

	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
)

// pprPlanner models DDR4-style post-package repair: each device carries one
// spare row per bank group, usable once. PPR can substitute a spare row for
// any single faulty row, so it repairs bit/word faults and single-row
// faults, but it cannot absorb faults that span many rows (columns, bank
// clusters, whole banks) and it runs out of spares as faults accumulate —
// which is why its coverage degrades sharply at 10x FIT (Figure 11).
type pprPlanner struct {
	geo            dram.Geometry
	banksPerGroup  int
	sparesPerGroup int
	name           string
	// scratchPool recycles planning working state; the planner itself is
	// shared by every simulation worker.
	scratchPool sync.Pool
}

// pprScratch is the reusable working state of one PlanNodeInto/TryRepair
// call: the per-node fused-spares tally and the candidate fault's demand.
// Maps are cleared, not reallocated, so steady-state planning allocates
// nothing.
type pprScratch struct {
	used map[pprGroupKey]int
	need map[pprGroupKey]int
}

func (p *pprPlanner) scratch() *pprScratch {
	if sc, ok := p.scratchPool.Get().(*pprScratch); ok {
		clear(sc.used)
		clear(sc.need)
		return sc
	}
	return &pprScratch{used: make(map[pprGroupKey]int), need: make(map[pprGroupKey]int)}
}

// NewPPR returns a PPR planner. For the evaluated 8-bank DDR3-like devices
// the paper applies the DDR4 allowance of one spare row per bank group; we
// model 4 bank groups per device (banksPerGroup = Banks/4) with one spare
// each.
func NewPPR(g dram.Geometry) Planner {
	return NewPPRWithBudget(g, max(g.Banks/4, 1), 1)
}

// NewPPRWithBudget returns a PPR planner with an explicit spare-row budget:
// banksPerGroup banks share sparesPerGroup one-shot spare rows per device.
// LPDDR4 exposes one spare per bank (banksPerGroup = 1); hypothetical
// future devices may fuse more.
//
// The planner is named "PPR" at NewPPR's budget and by its budget
// otherwise, e.g. "PPR-2spare-per-2banks": the name labels results and
// enters configuration fingerprints, so two budgets never share either.
func NewPPRWithBudget(g dram.Geometry, banksPerGroup, sparesPerGroup int) Planner {
	if banksPerGroup < 1 {
		banksPerGroup = 1
	}
	if sparesPerGroup < 1 {
		sparesPerGroup = 1
	}
	name := "PPR"
	if banksPerGroup != max(g.Banks/4, 1) || sparesPerGroup != 1 {
		name = fmt.Sprintf("PPR-%dspare-per-%dbanks", sparesPerGroup, banksPerGroup)
	}
	return &pprPlanner{geo: g, banksPerGroup: banksPerGroup, sparesPerGroup: sparesPerGroup, name: name}
}

func (p *pprPlanner) Name() string { return p.name }

// pprGroupKey identifies one (device, bank group) spare-row pool.
type pprGroupKey struct {
	dev   dram.DeviceCoord
	group int
}

// PlanNode allocates spare rows to faults in arrival order. A fault is
// mappable when every extent covers at most one row per affected bank and
// the needed spares are still unused.
func (p *pprPlanner) PlanNode(faults []*fault.Fault) *Plan {
	plan := &Plan{}
	p.PlanNodeInto(plan, faults)
	return plan
}

// PlanNodeInto implements ReusablePlanner: identical results to PlanNode,
// planning into a caller-owned Plan whose buffers are recycled.
func (p *pprPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(p.Name(), len(faults), false)
	sc := p.scratch()
	defer p.scratchPool.Put(sc)
	for i, f := range faults {
		fp := &plan.PerFault[i]
		ok := p.sparesNeeded(f, sc)
		if !ok {
			plan.AllMappable = false
			continue
		}
		// Check availability of every group before fusing any.
		for key, n := range sc.need {
			if sc.used[key]+n > p.sparesPerGroup {
				ok = false
				break
			}
		}
		if !ok {
			plan.AllMappable = false
			continue
		}
		for key, n := range sc.need {
			sc.used[key] += n
			fp.SpareRows += n
		}
		fp.Mappable = true
	}
}

// sparesNeeded fills sc.need with the spare rows per (device, bank group)
// the fault requires, returning false when the fault is not row-shaped.
func (p *pprPlanner) sparesNeeded(f *fault.Fault, sc *pprScratch) bool {
	clear(sc.need)
	need := sc.need
	lo, hi := f.Ranks(p.geo)
	for _, e := range f.Extents {
		rows := e.Rows.Count(p.geo.Rows)
		if rows > p.sparesPerGroup*p.banksPerGroup {
			// Even the most favourable packing cannot cover this many
			// rows per bank; reject early (also catches All-rows).
			return false
		}
		for rank := lo; rank < hi; rank++ {
			for b := e.BankLo; b <= e.BankHi; b++ {
				dev := f.Dev
				dev.Rank = rank
				key := pprGroupKey{dev: dev, group: b / p.banksPerGroup}
				need[key] += rows
				if need[key] > p.sparesPerGroup {
					return false
				}
			}
		}
	}
	return true
}
