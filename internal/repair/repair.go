// Package repair implements the three fine-grained memory-repair mechanisms
// the paper compares:
//
//   - RelaxFault: remaps data from faulty devices into LLC lines using the
//     coalescing repair mapping of Figure 7c, so a fault confined to one
//     device needs 16x fewer lines than FreeFault and the lines spread
//     across sets by construction.
//   - FreeFault (Kim & Erez, HPCA'15): locks every cacheline whose physical
//     address touches a faulty location, placed by the LLC's own (optionally
//     XOR-hashed) set mapping.
//   - PPR: DDR4/LPDDR4 post-package repair — one spare row per bank group,
//     permanent once fused.
//
// Each planner turns a node's accumulated permanent faults into a Plan that
// reports, per fault and jointly, how many LLC lines the repair needs and
// how hard it presses on individual sets, which is what the paper's
// "at most N ways in any set" repair-coverage metric queries.
package repair

import (
	"slices"
	"sync"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
)

// FaultPlan is the repair footprint of a single fault.
type FaultPlan struct {
	// Mappable is false for faults whose footprint exceeds the whole LLC
	// (the "massive" faults) or, for PPR, faults that are not row-shaped.
	Mappable bool
	// Lines is the number of repair cachelines the fault needs (after
	// dedup against lines the node already uses); 0 for PPR.
	Lines int64
	// SpareRows, for PPR, is the number of (device, bank-group) spare rows
	// the fault consumes.
	SpareRows int
}

// Plan is the joint repair footprint of all permanent faults on a node.
type Plan struct {
	Engine string
	// PerFault follows the input fault order.
	PerFault []FaultPlan
	// AllMappable is true when every fault can be expressed by the engine
	// at all (ignoring way limits).
	AllMappable bool
	// TotalLines is the deduplicated number of repair lines for the whole
	// node; Bytes is the LLC capacity those lines occupy.
	TotalLines int64
	Bytes      int64
	// MaxWaysPerSet is the largest number of repair lines mapped into any
	// single LLC set when all mappable faults are repaired.
	MaxWaysPerSet int
	// llcPlan marks plans produced by the LLC-based planners, whose repairs
	// press on cache sets; PPR-style plans carry no set pressure.
	llcPlan bool
}

// RepairableUnder reports whether the node is *fully* repairable when the
// engine may use at most wayLimit ways in any LLC set: every fault must be
// mappable and the joint per-set pressure must fit.
func (p *Plan) RepairableUnder(wayLimit int) bool {
	if !p.AllMappable {
		return false
	}
	if !p.llcPlan { // PPR-style plans carry no set pressure
		return true
	}
	return p.MaxWaysPerSet <= wayLimit
}

// Planner plans node-level repairs.
type Planner interface {
	Name() string
	// PlanNode computes the joint footprint of the given permanent faults.
	PlanNode(faults []*fault.Fault) *Plan
}

// ReusablePlanner is implemented by planners that can plan into a
// caller-owned Plan, recycling its PerFault backing. The batched
// Monte Carlo kernels keep one Plan per (worker, planner) so steady-state
// planning allocates nothing.
type ReusablePlanner interface {
	Planner
	// PlanNodeInto computes the same result PlanNode would, overwriting
	// plan in place. The plan's buffers are reused; its previous contents
	// are invalid afterwards.
	PlanNodeInto(plan *Plan, faults []*fault.Fault)
}

// PlanInto plans into plan when the planner supports buffer reuse and plan
// is non-nil, falling back to a fresh PlanNode otherwise. It returns the
// plan holding the result.
func PlanInto(p Planner, plan *Plan, faults []*fault.Fault) *Plan {
	if rp, ok := p.(ReusablePlanner); ok && plan != nil {
		rp.PlanNodeInto(plan, faults)
		return plan
	}
	return p.PlanNode(faults)
}

// reset rewinds a reused Plan for n faults, keeping its PerFault backing.
func (p *Plan) reset(engine string, n int, llc bool) {
	perFault := slices.Grow(p.PerFault[:0], n)[:n]
	clear(perFault)
	*p = Plan{Engine: engine, PerFault: perFault, AllMappable: true, llcPlan: llc}
}

// lineKey identifies one repair cacheline uniquely across the node.
type lineKey struct {
	set int32
	tag uint64
}

// LLCPlanner is the shared machinery of RelaxFault and FreeFault: both
// enumerate repair lines per fault, differing only in how a faulty
// (device, bank, row, column-block) maps to an LLC (set, tag). ForEachLine
// is the one place that decides where a fault's repair lines go; the
// planners and core.Controller all allocate through it.
type LLCPlanner struct {
	name   string
	mapper *addrmap.Mapper
	// colsPerGroup is the column granularity one repair line covers for a
	// single device: 8 columns (one block) for FreeFault, 128 columns (16
	// blocks) for RelaxFault.
	colsPerGroup int
	// target maps one faulty line group to its LLC placement.
	target func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64)
	// maxEnumerate bounds enumeration: a fault needing more lines than the
	// entire LLC can hold is unmappable regardless of way limit, so there
	// is no reason to enumerate it.
	maxEnumerate int64
	// scratchPool recycles PlanNode working state. Planners are shared by
	// all simulation workers (CoverageStudy hands one planner to the whole
	// pool), so the scratch must not live on the planner itself.
	scratchPool sync.Pool
}

// planScratch is the reusable working state of one PlanNode call.
type planScratch struct {
	seen    lineSet
	load    []int32 // dense per-set line count, cleared via touched
	touched []int32
}

func (p *LLCPlanner) scratch() *planScratch {
	if sc, ok := p.scratchPool.Get().(*planScratch); ok {
		return sc
	}
	return &planScratch{load: make([]int32, 1<<p.mapper.SetBits())}
}

func (p *LLCPlanner) release(sc *planScratch) {
	for _, set := range sc.touched {
		sc.load[set] = 0
	}
	sc.touched = sc.touched[:0]
	p.scratchPool.Put(sc)
}

// RelaxFaultOptions ablate individual design choices of the repair mapping
// for the sensitivity benchmarks; the zero value disables nothing.
type RelaxFaultOptions struct {
	// NoCoalescing allocates one remap line per column block (8 columns)
	// instead of per 16-block group, discarding the 16x footprint
	// reduction of Section 3.2.
	NoCoalescing bool
	// NoSpread drops the identity fold from the set index, so repairs of
	// different structures collide in the same sets.
	NoSpread bool
}

// NewRelaxFault returns the RelaxFault planner for the given mapper and LLC
// way count.
func NewRelaxFault(m *addrmap.Mapper, llcWays int) *LLCPlanner {
	return NewRelaxFaultAblated(m, llcWays, RelaxFaultOptions{})
}

// NewRelaxFaultAblated returns a RelaxFault planner with selected design
// choices disabled (ablation studies).
func NewRelaxFaultAblated(m *addrmap.Mapper, llcWays int, opts RelaxFaultOptions) *LLCPlanner {
	g := m.Geometry()
	name := "RelaxFault"
	colsPerGroup := g.ColumnsPerBlk * addrmap.SubBlocksPerLine
	if opts.NoCoalescing {
		name += "-nocoalesce"
		colsPerGroup = g.ColumnsPerBlk
	}
	index := m.RFIndex
	if opts.NoSpread {
		name += "-nospread"
		index = m.RFIndexNoSpread
	}
	setMask := (int64(1) << m.SetBits()) - 1
	return &LLCPlanner{
		name:         name,
		mapper:       m,
		colsPerGroup: colsPerGroup,
		maxEnumerate: int64(1) << m.SetBits() * int64(llcWays),
		target: func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64) {
			key := addrmap.RFKey{
				Channel: f.Dev.Channel,
				Rank:    rank,
				Device:  f.Dev.Device,
				Bank:    bank,
				Row:     row,
				CbHi:    cg,
			}
			if !opts.NoCoalescing {
				t := index(key)
				return int32(t.Set), t.Tag
			}
			// One line per column block: cg here is a block index, so the
			// group field carries cg>>4 and the block-within-group bits
			// extend the tag (keeping placements injective) and perturb
			// the set (keeping blocks of one row spread).
			sub := cg & (addrmap.SubBlocksPerLine - 1)
			key.CbHi = cg >> addrmap.SubBlockBits
			t := index(key)
			set := (int64(t.Set) ^ int64(sub)) & setMask
			return int32(set), t.Tag<<addrmap.SubBlockBits | uint64(sub)
		},
	}
}

// NewFreeFault returns the FreeFault planner. hash selects whether the LLC
// applies XOR set-index hashing (Figure 8 evaluates both).
func NewFreeFault(m *addrmap.Mapper, llcWays int, hash bool) *LLCPlanner {
	name := "FreeFault"
	if hash {
		name = "FreeFault+hash"
	}
	g := m.Geometry()
	return &LLCPlanner{
		name:         name,
		mapper:       m,
		colsPerGroup: g.ColumnsPerBlk,
		maxEnumerate: int64(1) << m.SetBits() * int64(llcWays),
		target: func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64) {
			loc := dram.Location{
				Channel:  f.Dev.Channel,
				Rank:     rank,
				Bank:     bank,
				Row:      row,
				ColBlock: cg,
			}
			set, tag := m.CacheIndex(m.Encode(loc), hash)
			return int32(set), tag
		},
	}
}

func (p *LLCPlanner) Name() string { return p.name }

// PlanNode enumerates, for each fault, the deduplicated repair lines it
// adds on top of earlier faults (FreeFault lines repair all devices of a
// location at once; RelaxFault lines are per device, and the key includes
// the device, so lines shared between faults on the same device dedup too).
func (p *LLCPlanner) PlanNode(faults []*fault.Fault) *Plan {
	plan := &Plan{}
	p.PlanNodeInto(plan, faults)
	return plan
}

// ForEachLine calls fn for every repair line of f, across every rank f
// applies to, until fn returns false: fn gets the line group of f's device
// the line covers (rank, bank, row, column group) and the line's LLC (set,
// tag). It returns false without calling fn when f needs more lines than
// the whole LLC holds: such a fault is unmappable under any way limit, so
// it is not enumerated.
//
// This runs per line in the Monte Carlo kernels, so it costs two indirect
// calls per line (target and fn): it walks each extent's rows itself rather
// than nesting fn inside Extent.ForEachLine's callback, and passes the line
// as scalars, since a six-field struct argument is not kept in registers.
// Either of those costs slowed the coverage kernel by 20-40% on a 2-vCPU
// x86-64 host.
func (p *LLCPlanner) ForEachLine(f *fault.Fault, fn func(rank, bank, row, cg int, set int32, tag uint64) bool) bool {
	g := p.mapper.Geometry()
	if f.LineCount(g, p.colsPerGroup) > p.maxEnumerate {
		return false
	}
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for _, e := range f.Extents {
			cgLo, cgHi := e.ColLo/p.colsPerGroup, e.ColHi/p.colsPerGroup
			for bank := e.BankLo; bank <= e.BankHi; bank++ {
				more := true
				e.Rows.ForEach(g.Rows, func(row int) bool {
					for cg := cgLo; cg <= cgHi && more; cg++ {
						set, tag := p.target(f, rank, bank, row, cg)
						more = fn(rank, bank, row, cg, set, tag)
					}
					return more
				})
				if !more {
					return true
				}
			}
		}
	}
	return true
}

// PlanNodeInto implements ReusablePlanner: identical results to PlanNode,
// planning into a caller-owned Plan whose buffers are recycled.
func (p *LLCPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(p.name, len(faults), true)
	sc := p.scratch()
	defer p.release(sc)
	sc.seen.reset()
	for i, f := range faults {
		fp := &plan.PerFault[i]
		fp.Mappable = p.ForEachLine(f, func(_, _, _, _ int, set int32, tag uint64) bool {
			if !sc.seen.insert(lineKey{set: set, tag: tag}) {
				return true
			}
			fp.Lines++
			if sc.load[set] == 0 {
				sc.touched = append(sc.touched, set)
			}
			sc.load[set]++
			plan.MaxWaysPerSet = max(plan.MaxWaysPerSet, int(sc.load[set]))
			return true
		})
		plan.AllMappable = plan.AllMappable && fp.Mappable
		plan.TotalLines += fp.Lines
	}
	plan.Bytes = plan.TotalLines * int64(p.mapper.Geometry().LineBytes)
}
