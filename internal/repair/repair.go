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
	"fmt"
	"slices"

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
	// placed and retired are the working state of the LLC planners and of
	// page retirement, kept across reuse.
	placed  placed
	retired prState
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

// Planner is a node-level repair engine. It answers both questions the
// paper asks: is a node's set of faults repairable within a way limit
// (PlanNodeInto), and does each newly arrived fault fit (TryRepair).
type Planner interface {
	Name() string
	// PlanNodeInto computes the joint footprint of the given permanent
	// faults into plan, recycling its buffers: the batched Monte Carlo
	// kernels keep one Plan per (worker, planner), so steady-state planning
	// allocates nothing. The plan's previous contents are invalid
	// afterwards.
	PlanNodeInto(plan *Plan, faults []*fault.Fault)
	// NewState returns empty per-node state for TryRepair.
	NewState() NodeState
	// TryRepair attempts to repair f on top of the repairs recorded in st
	// under the per-set way limit. On success the state is updated and
	// true is returned; on failure the state is unchanged. The state keeps
	// the accepted faults until Reset, so they must not change until then.
	// The reliability simulation repairs faults as they arrive: planning
	// the whole node per arrival would be quadratic in its fault count.
	TryRepair(st NodeState, f *fault.Fault, wayLimit int) bool
}

// PlanInto plans faults into plan, or into a fresh Plan when plan is nil,
// and returns the plan holding the result.
func PlanInto(p Planner, plan *Plan, faults []*fault.Fault) *Plan {
	if plan == nil {
		plan = &Plan{}
	}
	p.PlanNodeInto(plan, faults)
	return plan
}

// reset rewinds a reused Plan for n faults, keeping its PerFault backing.
func (p *Plan) reset(engine string, n int, llc bool) {
	perFault := slices.Grow(p.PerFault[:0], n)[:n]
	clear(perFault)
	*p = Plan{Engine: engine, PerFault: perFault, AllMappable: true, llcPlan: llc, placed: p.placed, retired: p.retired}
}

// setLoad counts lines per LLC set in a dense table, cleared through the
// sets it touched.
type setLoad struct {
	n       []int32
	touched []int32
}

// reset empties the table, sizing it for sets sets.
func (l *setLoad) reset(sets int) {
	for _, set := range l.touched {
		l.n[set] = 0
	}
	l.touched = l.touched[:0]
	if len(l.n) != sets {
		l.n = make([]int32, sets)
	}
}

// add adds k lines to set and returns its new count.
func (l *setLoad) add(set, k int32) int32 {
	if l.n[set] == 0 {
		l.touched = append(l.touched, set)
	}
	l.n[set] += k
	return l.n[set]
}

// placed is the line dedup of a planning pass. Every placement is
// injective in the line group: (channel, rank, bank, row, column group),
// plus the device for RelaxFault, whose RFIndex tag packs the whole key
// (FreeFault's (set, tag) inverts to the line address). So a line repeats
// exactly when an extent walked before it covers its line group, and the
// walk tests extents, not lines: a walked extent checks its lines only
// when it meets a placed one, and then only against those it meets.
type placed struct {
	faults []*fault.Fault // faults whose lines are placed
	met    []fault.Extent // in line groups: what the walked extent meets
	load   setLoad        // placed lines per set
}

func (d *placed) reset(sets int) {
	d.faults = d.faults[:0]
	d.load.reset(sets)
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
	// perDevice is set when a line holds one device's data (RelaxFault),
	// so faults on different devices never share a line.
	perDevice bool
	// target maps one faulty line group to its LLC placement.
	target func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64)
	// maxEnumerate bounds enumeration: a fault needing more lines than the
	// entire LLC can hold is unmappable regardless of way limit, so there
	// is no reason to enumerate it.
	maxEnumerate int64
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
// way count; opts disables design choices for the ablation studies. It
// reports a nil mapper, a non-positive way count and an invalid geometry
// as errors.
func NewRelaxFault(m *addrmap.Mapper, llcWays int, opts RelaxFaultOptions) (*LLCPlanner, error) {
	if err := checkLLCPlanner("RelaxFault", m, llcWays); err != nil {
		return nil, err
	}
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
		perDevice:    true,
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
	}, nil
}

// NewFreeFault returns the FreeFault planner. hash selects whether the LLC
// applies XOR set-index hashing (Figure 8 evaluates both). It rejects the
// inputs NewRelaxFault rejects.
func NewFreeFault(m *addrmap.Mapper, llcWays int, hash bool) (*LLCPlanner, error) {
	if err := checkLLCPlanner("FreeFault", m, llcWays); err != nil {
		return nil, err
	}
	name := "FreeFault"
	if hash {
		name = "FreeFault+hash"
	}
	return &LLCPlanner{
		name:         name,
		mapper:       m,
		colsPerGroup: m.Geometry().ColumnsPerBlk,
		maxEnumerate: int64(1) << m.SetBits() * int64(llcWays),
		target:       freeFaultTarget(m, hash),
	}, nil
}

// freeFaultTarget is FreeFault's per-line placement, built outside
// NewFreeFault because the compiler's inlining decides its speed: this way
// the closure calls Encode. Written inside NewFreeFault, the closure had
// Encode inlined into it, and BenchmarkCoverageTrial ran 15-25% slower on
// a 2-vCPU x86-64 host with Go 1.24.
func freeFaultTarget(m *addrmap.Mapper, hash bool) func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64) {
	return func(f *fault.Fault, rank, bank, row, cg int) (int32, uint64) {
		loc := dram.Location{
			Channel:  f.Dev.Channel,
			Rank:     rank,
			Bank:     bank,
			Row:      row,
			ColBlock: cg,
		}
		set, tag := m.CacheIndex(m.Encode(loc), hash)
		return int32(set), tag
	}
}

// checkLLCPlanner validates the inputs shared by RelaxFault and FreeFault.
func checkLLCPlanner(engine string, m *addrmap.Mapper, llcWays int) error {
	if m == nil {
		return fmt.Errorf("repair: %s: nil address mapper", engine)
	}
	if llcWays <= 0 {
		return fmt.Errorf("repair: %s: LLC ways must be positive, got %d", engine, llcWays)
	}
	if err := m.Geometry().Validate(); err != nil {
		return fmt.Errorf("repair: %s: %w", engine, err)
	}
	return nil
}

func (p *LLCPlanner) Name() string { return p.name }

// ForEachLine calls fn for every repair line of f, across every rank f
// applies to, until fn returns false: fn gets the line group of f's device
// the line covers (rank, bank, row, column group) and the line's LLC (set,
// tag). It returns false without calling fn when f needs more lines than
// the whole LLC holds: such a fault is unmappable under any way limit, so
// it is not enumerated.
//
// This runs per line in the Monte Carlo kernels, so a line costs two
// indirect calls (target and fn) and, in the planners' dedup, a length test
// of the met extents, which is zero for nearly every extent. It walks each
// extent's rows itself rather than nesting fn inside Extent.ForEachLine's
// callback, and passes the line as scalars, since a six-field struct
// argument is not kept in registers. Either of those costs slowed the
// coverage kernel by 20-40% on a 2-vCPU x86-64 host.
func (p *LLCPlanner) ForEachLine(f *fault.Fault, fn func(rank, bank, row, cg int, set int32, tag uint64) bool) bool {
	return p.walk(f, nil, fn)
}

// walk is ForEachLine. With d non-nil it skips every line that a fault
// placed in d, or an earlier extent of f at the same rank, already covers,
// so fn sees each new line once.
func (p *LLCPlanner) walk(f *fault.Fault, d *placed, fn func(rank, bank, row, cg int, set int32, tag uint64) bool) bool {
	g := p.mapper.Geometry()
	if f.LineCount(g, p.colsPerGroup) > p.maxEnumerate {
		return false
	}
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for i := range f.Extents {
			e := p.groups(f.Extents[i])
			var met []fault.Extent
			if d != nil {
				met = d.meet(p, f, e, i, rank)
			}
			for bank := e.BankLo; bank <= e.BankHi; bank++ {
				more := true
				e.Rows.ForEach(g.Rows, func(row int) bool {
					for cg := e.ColLo; cg <= e.ColHi && more; cg++ {
						if len(met) == 0 || !covers(met, bank, row, cg) {
							set, tag := p.target(f, rank, bank, row, cg)
							more = fn(rank, bank, row, cg, set, tag)
						}
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

// groups returns e with its columns replaced by the column groups they
// span, the coordinates a line group is named in.
func (p *LLCPlanner) groups(e fault.Extent) fault.Extent {
	e.ColLo, e.ColHi = e.ColLo/p.colsPerGroup, e.ColHi/p.colsPerGroup
	return e
}

// meet returns, in line groups, the extents that share a line group with e,
// f's extent i at rank: those of the placed faults on f's channel that
// cover rank (and, for RelaxFault, sit on f's device), and f's extents
// before i. Two extents are tested once per walked extent, never per line.
func (d *placed) meet(p *LLCPlanner, f *fault.Fault, e fault.Extent, i, rank int) []fault.Extent {
	g := p.mapper.Geometry()
	d.met = d.met[:0]
	add := func(o fault.Extent) {
		if o = p.groups(o); o.Intersects(e, g) {
			d.met = append(d.met, o)
		}
	}
	for _, pf := range d.faults {
		lo, hi := pf.Ranks(g)
		if pf.Dev.Channel == f.Dev.Channel && lo <= rank && rank < hi &&
			(!p.perDevice || pf.Dev.Device == f.Dev.Device) {
			for _, o := range pf.Extents {
				add(o)
			}
		}
	}
	for _, o := range f.Extents[:i] {
		add(o)
	}
	return d.met
}

// covers reports whether an extent of met covers the line group.
func covers(met []fault.Extent, bank, row, cg int) bool {
	for i := range met {
		if met[i].Contains(bank, row, cg) {
			return true
		}
	}
	return false
}

// PlanNodeInto enumerates, for each fault, the deduplicated repair lines it
// adds on top of the earlier mappable faults (FreeFault lines repair all
// devices of a location at once; RelaxFault lines are per device, and the
// key includes the device, so lines shared between faults on the same
// device dedup too).
func (p *LLCPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(p.name, len(faults), true)
	d := &plan.placed
	d.reset(1 << p.mapper.SetBits())
	for i, f := range faults {
		fp := &plan.PerFault[i]
		fp.Mappable = p.walk(f, d, func(_, _, _, _ int, set int32, _ uint64) bool {
			fp.Lines++
			plan.MaxWaysPerSet = max(plan.MaxWaysPerSet, int(d.load.add(set, 1)))
			return true
		})
		if fp.Mappable {
			d.faults = append(d.faults, f)
		}
		plan.AllMappable = plan.AllMappable && fp.Mappable
		plan.TotalLines += fp.Lines
	}
	plan.Bytes = plan.TotalLines * int64(p.mapper.Geometry().LineBytes)
}
