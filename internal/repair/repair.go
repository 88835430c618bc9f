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
// reports how many LLC lines the joint repair needs and how hard it presses
// on individual sets, which is what the paper's "at most N ways in any set"
// repair-coverage metric queries.
package repair

import (
	"fmt"
	"math/bits"
	"slices"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
)

// Plan is the joint repair footprint of all permanent faults on a node.
type Plan struct {
	// AllMappable is true when every fault can be expressed by the engine
	// at all (ignoring way limits). A fault is not mappable when its
	// footprint exceeds the whole LLC (the "massive" faults) or, for PPR,
	// when it is not row-shaped or its spare rows are used up.
	AllMappable bool
	// TotalLines is the deduplicated number of repair lines for the whole
	// node: each fault adds the lines no earlier fault enumerated, so the
	// total of a prefix of the faults less that of the prefix before it is
	// that fault's charge. Bytes is the LLC capacity those lines occupy.
	TotalLines int64
	Bytes      int64
	// MaxWaysPerSet is the largest number of repair lines mapped into any
	// single LLC set when all mappable faults are repaired.
	MaxWaysPerSet int
	// llcPlan marks plans produced by the LLC-based planners, whose repairs
	// press on cache sets; PPR-style plans carry no set pressure.
	llcPlan bool
	// placed, spares and retired are the working state of the LLC
	// planners, PPR and page retirement, kept across reuse.
	placed  placed
	spares  pprState
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

// reset rewinds a reused Plan, keeping its planners' working state.
func (p *Plan) reset(llc bool) {
	*p = Plan{AllMappable: true, llcPlan: llc, placed: p.placed, spares: p.spares, retired: p.retired}
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

// reserve makes room for k more touched sets, so that the next k adds
// run without a call; no more sets than the table holds are ever touched.
func (l *setLoad) reserve(k int) {
	l.touched = slices.Grow(l.touched, min(k, len(l.n)-len(l.touched)))
}

// add adds k lines to set and returns its new count. A set it touches
// first takes room reserve made.
func (l *setLoad) add(set, k int32) int32 {
	c := l.n[set]
	if c == 0 {
		t := len(l.touched)
		l.touched = l.touched[:t+1]
		l.touched[t] = set
	}
	c += k
	l.n[set] = c
	return c
}

// placed is the working state of a walk: its dedup and its batch. It lives
// in the per-worker Plan or NodeState (ForEachLine makes its own), never
// on the shared planner. Every
// placement is injective in the line group: (channel, rank, bank, row,
// column group), plus the device for RelaxFault, whose RFIndex tag packs
// the whole key (FreeFault's (set, tag) inverts to the line address). So a
// line repeats exactly when an extent walked before it covers its line
// group, and the walk tests extents, not lines: a walked extent checks its
// lines only when it meets a placed one, and then only against those it
// meets.
type placed struct {
	faults []*fault.Fault // faults whose lines are placed
	met    []fault.Extent // in line groups: what the walked extent meets
	load   setLoad        // placed lines per set
	// sets is the walk's batch: the sets of up to batchLines lines, handed
	// to the walk's consumer when full and at the end of the fault.
	sets []int32
	// With lines set, runs names the line groups of the batch's lines in
	// order. ForEachLine reads them; the planners need sets alone.
	lines bool
	runs  []lineRun
}

// lineRun is n consecutive lines of a batch: column groups cg to cg+n-1 of
// one (rank, bank, row), the first of them placed with tag tag.
type lineRun struct {
	rank, bank, row, cg, n int
	tag                    uint64
}

// batchLines is the capacity of a walk's batch.
const batchLines = 256

func (d *placed) reset(sets int) {
	d.faults = d.faults[:0]
	d.load.reset(sets)
}

// eachLine calls fn for the lines of a batch walked with d.lines set, in
// order, until fn returns false, and reports whether fn never did.
func (d *placed) eachLine(p *LLCPlanner, sets []int32, fn func(rank, bank, row, cg int, set int32, tag uint64) bool) bool {
	for _, r := range d.runs {
		for j, set := range sets[:r.n] {
			if !fn(r.rank, r.bank, r.row, r.cg+j, set, r.tag^delta(&p.basis.cgTag, (r.cg+j)^r.cg)) {
				return false
			}
		}
		sets = sets[r.n:]
	}
	return true
}

// LLCPlanner is the shared machinery of RelaxFault and FreeFault: both
// enumerate repair lines per fault, differing only in how a faulty
// (device, bank, row, column-block) maps to an LLC (set, tag). Its walk is
// the one place that decides where a fault's repair lines go: the
// planners and, through ForEachLine, core.Controller all allocate through
// it.
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
	// hash is FreeFault's set-index hashing; noSpread and noCoalesce are
	// RelaxFault's ablations. With perDevice they select place's rule.
	hash, noSpread, noCoalesce bool
	// maxEnumerate bounds enumeration: a fault needing more lines than the
	// entire LLC can hold is unmappable regardless of way limit, so there
	// is no reason to enumerate it.
	maxEnumerate int64
	// basis splits place into block bases and per-bit XOR deltas, by which
	// the walk places lines.
	basis lineBasis
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
	p := &LLCPlanner{
		name:         "RelaxFault",
		mapper:       m,
		colsPerGroup: m.Geometry().ColumnsPerBlk * addrmap.SubBlocksPerLine,
		perDevice:    true,
		noSpread:     opts.NoSpread,
		noCoalesce:   opts.NoCoalescing,
		maxEnumerate: int64(1) << m.SetBits() * int64(llcWays),
	}
	if opts.NoCoalescing {
		p.name += "-nocoalesce"
		p.colsPerGroup = m.Geometry().ColumnsPerBlk
	}
	if opts.NoSpread {
		p.name += "-nospread"
	}
	p.setBasis()
	return p, nil
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
	p := &LLCPlanner{
		name:         name,
		mapper:       m,
		colsPerGroup: m.Geometry().ColumnsPerBlk,
		hash:         hash,
		maxEnumerate: int64(1) << m.SetBits() * int64(llcWays),
	}
	p.setBasis()
	return p, nil
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

// place is the placement rule: the LLC (set, tag) of the repair line of
// line group (rank, bank, row, cg) of device dev on channel ch. FreeFault
// locks the line at its own address's (optionally hashed) placement;
// RelaxFault puts it at the RFIndex (or RFIndexNoSpread) target of its
// remap key. The walk evaluates it once per block, not per line.
func (p *LLCPlanner) place(ch, dev, rank, bank, row, cg int) (int32, uint64) {
	m := p.mapper
	if !p.perDevice {
		set, tag := m.FreeFaultTarget(dram.Location{Channel: ch, Rank: rank, Bank: bank, Row: row, ColBlock: cg}, p.hash)
		return int32(set), tag
	}
	index := m.RFIndex
	if p.noSpread {
		index = m.RFIndexNoSpread
	}
	key := addrmap.RFKey{Channel: ch, Rank: rank, Device: dev, Bank: bank, Row: row, CbHi: cg}
	if !p.noCoalesce {
		t := index(key)
		return int32(t.Set), t.Tag
	}
	// One line per column block: cg here is a block index, so the group
	// field carries cg>>4 and the block-within-group bits extend the tag
	// (keeping placements injective) and perturb the set (keeping blocks
	// of one row spread).
	sub := cg & (addrmap.SubBlocksPerLine - 1)
	key.CbHi = cg >> addrmap.SubBlockBits
	t := index(key)
	set := (t.Set ^ sub) & (1<<m.SetBits() - 1)
	return int32(set), t.Tag<<addrmap.SubBlockBits | uint64(sub)
}

// lineBasis splits place into XOR parts, so that the walk places lines
// without evaluating it per line. A row index splits at bit rowHi and a
// column-group index at bit cgHi into low and high bits. A line group's
// (set, tag) is that of its block, the line group with those low bits
// cleared, XOR one delta per set low bit. FreeFault is XOR-linear in every
// bit (Encode places disjoint fields; CacheIndex and its fold are
// XOR-linear), so its blocks are whole (rank, bank)s. RelaxFault's set is
// XOR-linear in the low RFLowRowBits row bits and in CbHi's low
// SubBlockBits bits; the other key bits enter it through the Fibonacci
// spread, which is not linear, so they are block bits and the walk
// evaluates place again wherever they change.
type lineBasis struct {
	rowHi, cgHi uint
	// rowSet[i] and cgSet[i] are the set deltas of low bit i. rowStep[t]
	// and cgStep[t] are those of the step from an index with t trailing
	// ones to the next index: the XOR of the deltas of bits 0 to t.
	rowSet, rowStep, cgSet, cgStep [64]int32
	// rowTag and cgTag are the tag deltas of the low bits.
	rowTag, cgTag [64]uint64
}

// setBasis derives p's lineBasis from place: a low bit's delta is the
// placement of the line group at rank, bank, channel and device 0 with
// only that bit set, whose block places at (0, 0).
func (p *LLCPlanner) setBasis() {
	b := &p.basis
	fb := p.mapper.Geometry().Bits()
	b.rowHi, b.cgHi = fb.Row, fb.ColBlock
	if p.perDevice {
		b.rowHi, b.cgHi = p.mapper.RFLowRowBits(), addrmap.SubBlockBits
		if p.noCoalesce {
			b.cgHi += addrmap.SubBlockBits
		}
	}
	var row, cg int32
	for i := range uint(64) {
		if i < b.rowHi {
			b.rowSet[i], b.rowTag[i] = p.place(0, 0, 0, 0, 1<<i, 0)
		}
		if i < b.cgHi {
			b.cgSet[i], b.cgTag[i] = p.place(0, 0, 0, 0, 0, 1<<i)
		}
		row ^= b.rowSet[i]
		cg ^= b.cgSet[i]
		b.rowStep[i], b.cgStep[i] = row, cg
	}
}

// delta returns the XOR of the deltas of x's set bits.
func delta[T int32 | uint64](deltas *[64]T, x int) T {
	var v T
	for u := uint64(x); u != 0; u &= u - 1 {
		v ^= deltas[bits.TrailingZeros64(u)&63]
	}
	return v
}

// ForEachLine calls fn for every repair line of f, across every rank f
// applies to, until fn returns false: fn gets the line group of f's device
// the line covers (rank, bank, row, column group) and the line's LLC (set,
// tag). It returns false without calling fn when f needs more lines than
// the whole LLC holds: such a fault is unmappable under any way limit, so
// it is not enumerated. It is the planners' walk without their dedup, so
// core.Controller allocates the lines the planners count.
func (p *LLCPlanner) ForEachLine(f *fault.Fault, fn func(rank, bank, row, cg int, set int32, tag uint64) bool) bool {
	d := &placed{lines: true}
	return p.walk(f, d, false, func(sets []int32) bool { return d.eachLine(p, sets, fn) })
}

// walk places f's repair lines, across every rank f applies to, and hands
// their sets to emit in order, at most batchLines at a time, until emit
// returns false. With dedup set it skips every line that a fault placed in
// d, or an earlier extent of f at the same rank, already covers. It
// returns false without placing a line when f needs more lines than the
// whole LLC holds: such a fault is unmappable under any way limit.
//
// A line costs the store of its set and the XOR of a column-group step; a
// row costs the XOR of a row step (of a delta per set bit for a RowList
// row), and place runs once per block. So the loop over a row's lines, and
// the planners' loops over a batch, make no call, and emit runs once per
// batch.
func (p *LLCPlanner) walk(f *fault.Fault, d *placed, dedup bool, emit func(sets []int32) bool) bool {
	g := p.mapper.Geometry()
	if f.LineCount(g, p.colsPerGroup) > p.maxEnumerate {
		return false
	}
	if d.sets == nil {
		d.sets = make([]int32, batchLines)
	}
	b := &p.basis
	buf, n := d.sets, 0
	d.runs = d.runs[:0]
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for i := range f.Extents {
			e := p.groups(f.Extents[i])
			var met []fault.Extent
			if dedup {
				met = d.meet(p, f, e, i, rank)
			}
			first, rows := e.Rows.Lo, e.Rows.Count(g.Rows)
			if e.Rows.All {
				first = 0
			}
			c0 := delta(&b.cgSet, e.ColLo)
			for bank := e.BankLo; bank <= e.BankHi; bank++ {
				rb, cb := -1, -1 // the block whose placement base and baseTag hold
				var base int32
				var baseTag uint64
				var rd int32 // the row's low-bit set delta
				for k := 0; k < rows; k++ {
					row := first + k
					switch {
					case e.Rows.List != nil:
						row = e.Rows.List[k]
						rd = delta(&b.rowSet, row)
					case k == 0:
						rd = delta(&b.rowSet, row)
					default:
						rd ^= b.rowStep[bits.TrailingZeros64(^uint64(row-1))&63]
					}
					for a := e.ColLo; a <= e.ColHi; {
						z := e.ColHi
						if len(met) > 0 {
							if a, z = uncovered(met, bank, row, a, z); a > z {
								break
							}
						}
						if row>>b.rowHi != rb || a>>b.cgHi != cb {
							rb, cb = row>>b.rowHi, a>>b.cgHi
							base, baseTag = p.place(f.Dev.Channel, f.Dev.Device, rank, bank, rb<<b.rowHi, cb<<b.cgHi)
						}
						z = min(z, (cb+1)<<b.cgHi-1)
						s := base ^ rd ^ c0
						if a != e.ColLo {
							s = base ^ rd ^ delta(&b.cgSet, a)
						}
						for a <= z {
							m := min(z-a+1, len(buf)-n)
							out := buf[n : n+m]
							for j := range out {
								out[j] = s
								s ^= b.cgStep[bits.TrailingZeros64(^uint64(a+j))&63]
							}
							if d.lines {
								d.runs = append(d.runs, lineRun{rank: rank, bank: bank, row: row, cg: a, n: m,
									tag: baseTag ^ delta(&b.rowTag, row) ^ delta(&b.cgTag, a)})
							}
							a, n = a+m, n+m
							if n == len(buf) {
								if !emit(buf) {
									return true
								}
								n = 0
								d.runs = d.runs[:0]
							}
						}
					}
				}
			}
		}
	}
	if n > 0 {
		emit(buf[:n])
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

// uncovered returns the first run [a', z'] of column groups within [a, z]
// at (bank, row) that no extent of met covers, with a' > z' when met
// covers them all: a' is the first group no extent covers, and z' the
// last before the next extent that starts after a'.
func uncovered(met []fault.Extent, bank, row, a, z int) (int, int) {
	for moved := true; moved && a <= z; {
		moved = false
		for i := range met {
			if o := &met[i]; o.ColLo <= a && a <= o.ColHi && o.BankLo <= bank && bank <= o.BankHi && o.Rows.Contains(row) {
				a, moved = o.ColHi+1, true
			}
		}
	}
	for i := range met {
		if o := &met[i]; a < o.ColLo && o.ColLo <= z && o.BankLo <= bank && bank <= o.BankHi && o.Rows.Contains(row) {
			z = o.ColLo - 1
		}
	}
	return a, z
}

// PlanNodeInto enumerates, for each fault, the deduplicated repair lines it
// adds on top of the earlier mappable faults (FreeFault lines repair all
// devices of a location at once; RelaxFault lines are per device, and the
// key includes the device, so lines shared between faults on the same
// device dedup too).
func (p *LLCPlanner) PlanNodeInto(plan *Plan, faults []*fault.Fault) {
	plan.reset(true)
	d := &plan.placed
	d.reset(1 << p.mapper.SetBits())
	for _, f := range faults {
		mappable := p.walk(f, d, true, func(sets []int32) bool {
			plan.TotalLines += int64(len(sets))
			d.load.reserve(len(sets))
			ways := plan.MaxWaysPerSet
			for _, set := range sets {
				ways = max(ways, int(d.load.add(set, 1)))
			}
			plan.MaxWaysPerSet = ways
			return true
		})
		if mappable {
			d.faults = append(d.faults, f)
		}
		plan.AllMappable = mappable && plan.AllMappable
	}
	plan.Bytes = plan.TotalLines * int64(p.mapper.Geometry().LineBytes)
}
