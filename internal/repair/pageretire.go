package repair

import (
	"fmt"
	"slices"

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
	name         string
}

// NewPageRetirement returns the OS page-retirement baseline with the given
// frame size and per-node retirement budget (bytes). A zero frame size
// selects 4KiB frames, and a zero budget 1% of node capacity, a typical
// operational cap. A nil mapper, an invalid geometry, a frame size that is
// not a multiple of the 64B line and a negative budget are errors.
func NewPageRetirement(m *addrmap.Mapper, pageBytes, maxLossBytes int64) (Planner, error) {
	if m == nil {
		return nil, fmt.Errorf("repair: page retirement: nil address mapper")
	}
	if err := m.Geometry().Validate(); err != nil {
		return nil, fmt.Errorf("repair: page retirement: %w", err)
	}
	if pageBytes < 0 || pageBytes%64 != 0 {
		return nil, fmt.Errorf("repair: page retirement: frame size %dB must be a positive multiple of the 64B line", pageBytes)
	}
	if maxLossBytes < 0 {
		return nil, fmt.Errorf("repair: page retirement: negative retirement budget %dB", maxLossBytes)
	}
	if pageBytes == 0 {
		pageBytes = 4 << 10
	}
	if maxLossBytes == 0 {
		maxLossBytes = int64(m.Geometry().NodeDataBytes() / 100)
	}
	name := fmt.Sprintf("PageRetire-%dKiB", pageBytes>>10)
	if pageBytes >= 1<<20 {
		name = fmt.Sprintf("PageRetire-%dMiB", pageBytes>>20)
	}
	return &pageRetirePlanner{mapper: m, pageBytes: pageBytes, maxLossBytes: maxLossBytes, name: name}, nil
}

func (p *pageRetirePlanner) Name() string { return p.name }

// linesPerPage returns how many cachelines one frame holds.
func (p *pageRetirePlanner) linesPerPage() int64 { return p.pageBytes / 64 }

// PlanNodeInto computes the retired-frame footprint, retiring the faults'
// frames in arrival order as TryRepair does. The Plan reuses the LLC plan
// structure with Bytes meaning lost DRAM capacity; MaxWaysPerSet stays zero
// because way pressure does not apply.
func (p *pageRetirePlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(false)
	s := &plan.retired
	s.Reset()
	for _, f := range faults {
		pages, ok := p.retire(s, f)
		plan.AllMappable = ok && plan.AllMappable
		plan.TotalLines += pages
	}
	plan.Bytes = s.loss
}

// prState tracks retired pages incrementally. Its page lists are kept
// across calls and truncated, so retiring allocates nothing once they have
// grown. (Sets kept as maps would cost their capacity on every clear: a
// column fault's tens of thousands of frames made each later fault pay for
// clearing them.)
type prState struct {
	retired []uint64 // sorted
	fresh   []uint64 // the frames a fault adds, while it is tried
	loss    int64
}

// Reset implements NodeState.
func (s *prState) Reset() {
	s.retired = s.retired[:0]
	s.loss = 0
}

// NewState implements Planner.
func (p *pageRetirePlanner) NewState() NodeState { return &prState{} }

// TryRepair implements Planner for page retirement; the way limit is
// ignored (frames are not cache ways).
func (p *pageRetirePlanner) TryRepair(st NodeState, f *fault.Fault, _ int) bool {
	_, ok := p.retire(st.(*prState), f)
	return ok
}

// retire retires the frames f touches that s has not, unless the loss
// would exceed the budget. It returns how many frames it retired and
// whether it did.
func (p *pageRetirePlanner) retire(s *prState, f *fault.Fault) (int64, bool) {
	g := p.mapper.Geometry()
	// Minimum possible loss: perfect packing of the fault's 64B lines
	// into frames; beyond the budget, skip the enumeration entirely.
	if f.LineCount(g, g.ColumnsPerBlk)*64 > p.maxLossBytes {
		return 0, false
	}
	s.fresh = s.fresh[:0]
	lpp := uint64(p.linesPerPage())
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for _, e := range f.Extents {
			e.ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
				loc := dram.Location{Channel: f.Dev.Channel, Rank: rank, Bank: bank, Row: row, ColBlock: cb}
				page := uint64(p.mapper.Encode(loc)) / lpp
				if n := len(s.fresh); n > 0 && s.fresh[n-1] == page {
					return true // the line before shares the frame
				}
				if _, dup := slices.BinarySearch(s.retired, page); !dup {
					s.fresh = append(s.fresh, page)
				}
				return true
			})
		}
	}
	slices.Sort(s.fresh)
	s.fresh = slices.Compact(s.fresh)
	pages := int64(len(s.fresh))
	if s.loss+pages*p.pageBytes > p.maxLossBytes {
		return 0, false
	}
	s.retired = append(s.retired, s.fresh...)
	slices.Sort(s.retired)
	s.loss += pages * p.pageBytes
	return pages, true
}

// mirrorPlanner models channel mirroring / DIMM sparing (Section 6): every
// fault is absorbed by the mirror, at the standing cost of half the node's
// capacity. It exists as the expensive upper baseline for the availability
// comparison.
type mirrorPlanner struct {
	geo dram.Geometry
}

// NewMirroring returns the channel-mirroring baseline; an invalid geometry
// is an error.
func NewMirroring(g dram.Geometry) (Planner, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("repair: mirroring: %w", err)
	}
	return &mirrorPlanner{geo: g}, nil
}

func (p *mirrorPlanner) Name() string { return "Mirroring" }

// PlanNodeInto: everything repairs; Bytes reports the mirroring capacity
// cost.
func (p *mirrorPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(false)
	plan.Bytes = int64(p.geo.NodeDataBytes() / 2)
}

// mirrorState needs no state.
type mirrorState struct{}

// Reset implements NodeState.
func (mirrorState) Reset() {}

// NewState implements Planner.
func (p *mirrorPlanner) NewState() NodeState { return mirrorState{} }

// TryRepair implements Planner: mirroring absorbs everything.
func (p *mirrorPlanner) TryRepair(NodeState, *fault.Fault, int) bool { return true }
