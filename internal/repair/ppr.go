package repair

import (
	"fmt"

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
}

// NewPPR returns a PPR planner: banksPerGroup banks of each device share
// sparesPerGroup one-shot spare rows. Zero selects the default: for the
// evaluated 8-bank DDR3-like devices the paper applies the DDR4 allowance
// of one spare row per bank group, modelled as Banks/4 banks per group with
// one spare. LPDDR4 exposes one spare per bank (banksPerGroup = 1). A
// negative budget, more banks per group than the device has, and an
// invalid geometry are errors, so a budget sweep cannot quietly evaluate
// the wrong point.
//
// The planner is named "PPR" at the default budget and by its budget
// otherwise, e.g. "PPR-2spare-per-2banks": the name labels results and
// enters configuration fingerprints, so two budgets never share either.
func NewPPR(g dram.Geometry, banksPerGroup, sparesPerGroup int) (Planner, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("repair: PPR: %w", err)
	}
	defaultBanks := max(g.Banks/4, 1)
	if banksPerGroup == 0 {
		banksPerGroup = defaultBanks
	}
	if sparesPerGroup == 0 {
		sparesPerGroup = 1
	}
	if banksPerGroup < 1 {
		return nil, fmt.Errorf("repair: PPR: banks per group must be positive, got %d", banksPerGroup)
	}
	if banksPerGroup > g.Banks {
		return nil, fmt.Errorf("repair: PPR: banks per group %d exceeds the device's %d banks", banksPerGroup, g.Banks)
	}
	if sparesPerGroup < 1 {
		return nil, fmt.Errorf("repair: PPR: spares per group must be positive, got %d", sparesPerGroup)
	}
	name := "PPR"
	if banksPerGroup != defaultBanks || sparesPerGroup != 1 {
		name = fmt.Sprintf("PPR-%dspare-per-%dbanks", sparesPerGroup, banksPerGroup)
	}
	return &pprPlanner{geo: g, banksPerGroup: banksPerGroup, sparesPerGroup: sparesPerGroup, name: name}, nil
}

func (p *pprPlanner) Name() string { return p.name }

// pprGroupKey identifies one (device, bank group) spare-row pool.
type pprGroupKey struct {
	dev   dram.DeviceCoord
	group int
}

// PlanNodeInto allocates spare rows to faults in arrival order, as
// TryRepair does. A fault is mappable when every extent covers at most one
// row per affected bank and the needed spares are still unused.
func (p *pprPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(false)
	s := &plan.spares
	if s.used == nil {
		*s = newPPRState()
	}
	s.Reset()
	for _, f := range faults {
		plan.AllMappable = p.fuse(s, f) && plan.AllMappable
	}
}

// fuse fuses the spare rows f needs into s when f is row-shaped and every
// (device, bank group) it touches still has them, and reports whether it
// did; otherwise s is unchanged.
func (p *pprPlanner) fuse(s *pprState, f *fault.Fault) bool {
	if !p.sparesNeeded(f, s.need) {
		return false
	}
	// Check availability of every group before fusing any.
	for key, n := range s.need {
		if s.used[key]+n > p.sparesPerGroup {
			return false
		}
	}
	for key, n := range s.need {
		s.used[key] += n
	}
	return true
}

// sparesNeeded fills need with the spare rows per (device, bank group) the
// fault requires, returning false when the fault is not row-shaped.
func (p *pprPlanner) sparesNeeded(f *fault.Fault, need map[pprGroupKey]int) bool {
	clear(need)
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
