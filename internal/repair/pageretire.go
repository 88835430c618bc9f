package repair

import (
	"fmt"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
)

// pageRetirePlanner models OS page retirement (Section 6: AIX, Solaris,
// NVIDIA dynamic page retirement): the operating system unmaps every 4KiB
// physical frame that contains a faulty location. Because the physical→DRAM
// mapping interleaves aggressively, a fault confined to one device's row or
// column spreads across many frames — the mismatch the paper cites as page
// retirement's weakness. The planner reports the capacity lost (retired
// frames) instead of LLC lines, and refuses faults whose retirement cost
// exceeds the configured budget, mirroring real OS caps on retired memory.
type pageRetirePlanner struct {
	mapper *addrmap.Mapper
	// pageBytes is the frame size (4KiB default; huge pages make the
	// spreading dramatically worse).
	pageBytes int64
	// maxLossBytes is the retirement budget per node; IBM AIX-style
	// limits cap how much physical memory the OS may unmap.
	maxLossBytes int64
}

// NewPageRetirement returns the OS page-retirement baseline with the given
// frame size and per-node retirement budget (bytes). A zero budget defaults
// to 1% of node capacity, a typical operational cap.
func NewPageRetirement(m *addrmap.Mapper, pageBytes, maxLossBytes int64) Planner {
	if pageBytes <= 0 {
		pageBytes = 4 << 10
	}
	if maxLossBytes <= 0 {
		maxLossBytes = int64(m.Geometry().NodeDataBytes() / 100)
	}
	return &pageRetirePlanner{mapper: m, pageBytes: pageBytes, maxLossBytes: maxLossBytes}
}

func (p *pageRetirePlanner) Name() string {
	if p.pageBytes >= 1<<20 {
		return fmt.Sprintf("PageRetire-%dMiB", p.pageBytes>>20)
	}
	return fmt.Sprintf("PageRetire-%dKiB", p.pageBytes>>10)
}

// linesPerPage returns how many cachelines one frame holds.
func (p *pageRetirePlanner) linesPerPage() int64 { return p.pageBytes / 64 }

// PlanNode computes the retired-frame footprint. The Plan reuses the LLC
// plan structure with Bytes meaning lost DRAM capacity; MaxWaysPerSet stays
// zero because way pressure does not apply.
func (p *pageRetirePlanner) PlanNode(faults []*fault.Fault) *Plan {
	plan := &Plan{Engine: p.Name(), AllMappable: true, PerFault: make([]FaultPlan, len(faults))}
	seen := make(map[uint64]struct{})
	var budget int64
	g := p.mapper.Geometry()
	lpp := p.linesPerPage()
	for i, f := range faults {
		fp := &plan.PerFault[i]
		// Minimum possible loss: perfect packing of the fault's 64B lines
		// into frames; beyond the budget, skip the enumeration entirely.
		if f.LineCount(g, g.ColumnsPerBlk)*64 > p.maxLossBytes {
			fp.Mappable = false
			plan.AllMappable = false
			continue
		}
		var pages int64
		newPages := make(map[uint64]struct{})
		lo, hi := f.Ranks(g)
		for rank := lo; rank < hi; rank++ {
			for _, e := range f.Extents {
				e.ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
					loc := dram.Location{Channel: f.Dev.Channel, Rank: rank, Bank: bank, Row: row, ColBlock: cb}
					page := uint64(p.mapper.Encode(loc)) / uint64(lpp)
					if _, dup := seen[page]; dup {
						return true
					}
					if _, dup := newPages[page]; dup {
						return true
					}
					newPages[page] = struct{}{}
					pages++
					return true
				})
			}
		}
		if budget+pages*p.pageBytes > p.maxLossBytes {
			fp.Mappable = false
			plan.AllMappable = false
			continue
		}
		for page := range newPages {
			seen[page] = struct{}{}
		}
		budget += pages * p.pageBytes
		fp.Mappable = true
		fp.Lines = pages
		plan.TotalLines += pages
	}
	plan.Bytes = budget
	return plan
}

// prState tracks retired pages incrementally.
type prState struct {
	seen map[uint64]struct{}
	loss int64
}

// Reset implements NodeState.
func (s *prState) Reset() {
	clear(s.seen)
	s.loss = 0
}

// NewState implements Incremental.
func (p *pageRetirePlanner) NewState() NodeState {
	return &prState{seen: make(map[uint64]struct{})}
}

// TryRepair implements Incremental for page retirement; the way limit is
// ignored (frames are not cache ways).
func (p *pageRetirePlanner) TryRepair(st NodeState, f *fault.Fault, _ int) bool {
	s := st.(*prState)
	g := p.mapper.Geometry()
	lpp := p.linesPerPage()
	if f.LineCount(g, g.ColumnsPerBlk)*64 > p.maxLossBytes {
		return false
	}
	newPages := make(map[uint64]struct{})
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for _, e := range f.Extents {
			e.ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
				loc := dram.Location{Channel: f.Dev.Channel, Rank: rank, Bank: bank, Row: row, ColBlock: cb}
				page := uint64(p.mapper.Encode(loc)) / uint64(lpp)
				if _, dup := s.seen[page]; !dup {
					newPages[page] = struct{}{}
				}
				return true
			})
		}
	}
	loss := int64(len(newPages)) * p.pageBytes
	if s.loss+loss > p.maxLossBytes {
		return false
	}
	for page := range newPages {
		s.seen[page] = struct{}{}
	}
	s.loss += loss
	return true
}

// mirrorPlanner models channel mirroring / DIMM sparing (Section 6): every
// fault is absorbed by the mirror, at the standing cost of half the node's
// capacity. It exists as the expensive upper baseline for the availability
// comparison.
type mirrorPlanner struct {
	geo dram.Geometry
}

// NewMirroring returns the channel-mirroring baseline.
func NewMirroring(g dram.Geometry) Planner { return &mirrorPlanner{geo: g} }

func (p *mirrorPlanner) Name() string { return "Mirroring" }

// PlanNode: everything repairs; Bytes reports the mirroring capacity cost.
func (p *mirrorPlanner) PlanNode(faults []*fault.Fault) *Plan {
	plan := &Plan{Engine: p.Name(), AllMappable: true, PerFault: make([]FaultPlan, len(faults))}
	for i := range plan.PerFault {
		plan.PerFault[i].Mappable = true
	}
	plan.Bytes = int64(p.geo.NodeDataBytes() / 2)
	return plan
}

// mirrorState needs no state.
type mirrorState struct{}

// Reset implements NodeState.
func (mirrorState) Reset() {}

// NewState implements Incremental.
func (p *mirrorPlanner) NewState() NodeState { return mirrorState{} }

// TryRepair implements Incremental: mirroring absorbs everything.
func (p *mirrorPlanner) TryRepair(NodeState, *fault.Fault, int) bool { return true }
