package repair

import (
	"fmt"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

// walkLine is one repair line as the walk yields it.
type walkLine struct {
	rank, bank, row, cg int
	set                 int32
	tag                 uint64
}

// placeRef is a per-line reference placement: the (set, tag) of line group
// (rank, bank, row, cg) of f's device, straight from the address mapper.
type placeRef func(f *fault.Fault, rank, bank, row, cg int) (int, uint64)

// refPlacements returns each LLC planner over m with its reference
// placement: FreeFaultTarget unhashed and hashed, RFIndex, RFIndexNoSpread,
// and the -nocoalesce rule over each of those two.
func refPlacements(m *addrmap.Mapper) []struct {
	p   *LLCPlanner
	ref placeRef
} {
	ff := func(hash bool) placeRef {
		return func(f *fault.Fault, rank, bank, row, cg int) (int, uint64) {
			return m.FreeFaultTarget(dram.Location{Channel: f.Dev.Channel, Rank: rank, Bank: bank, Row: row, ColBlock: cg}, hash)
		}
	}
	key := func(f *fault.Fault, rank, bank, row, cbHi int) addrmap.RFKey {
		return addrmap.RFKey{Channel: f.Dev.Channel, Rank: rank, Device: f.Dev.Device, Bank: bank, Row: row, CbHi: cbHi}
	}
	rf := func(index func(addrmap.RFKey) addrmap.RFTarget) placeRef {
		return func(f *fault.Fault, rank, bank, row, cg int) (int, uint64) {
			t := index(key(f, rank, bank, row, cg))
			return t.Set, t.Tag
		}
	}
	// One line per column block: the group field holds cg>>4, and the
	// block within the group extends the tag and perturbs the set.
	noCoalesce := func(index func(addrmap.RFKey) addrmap.RFTarget) placeRef {
		return func(f *fault.Fault, rank, bank, row, cg int) (int, uint64) {
			sub := cg % addrmap.SubBlocksPerLine
			t := index(key(f, rank, bank, row, cg/addrmap.SubBlocksPerLine))
			return (t.Set ^ sub) % (1 << m.SetBits()), t.Tag*addrmap.SubBlocksPerLine + uint64(sub)
		}
	}
	return []struct {
		p   *LLCPlanner
		ref placeRef
	}{
		{must(NewFreeFault(m, 16, false)), ff(false)},
		{must(NewFreeFault(m, 16, true)), ff(true)},
		{must(NewRelaxFault(m, 16, RelaxFaultOptions{})), rf(m.RFIndex)},
		{must(NewRelaxFault(m, 16, RelaxFaultOptions{NoSpread: true})), rf(m.RFIndexNoSpread)},
		{must(NewRelaxFault(m, 16, RelaxFaultOptions{NoCoalescing: true})), noCoalesce(m.RFIndex)},
		{must(NewRelaxFault(m, 16, RelaxFaultOptions{NoCoalescing: true, NoSpread: true})), noCoalesce(m.RFIndexNoSpread)},
	}
}

// refLines appends to out f's repair lines under p, enumerated with
// Extent.ForEachLine and placed with ref.
func refLines(out []walkLine, p *LLCPlanner, ref placeRef, f *fault.Fault) []walkLine {
	g := p.mapper.Geometry()
	lo, hi := f.Ranks(g)
	for rank := lo; rank < hi; rank++ {
		for _, e := range f.Extents {
			e.ForEachLine(g, p.colsPerGroup, func(bank, row, cg int) bool {
				set, tag := ref(f, rank, bank, row, cg)
				out = append(out, walkLine{rank, bank, row, cg, int32(set), tag})
				return true
			})
		}
	}
	return out
}

// randomNode draws 1-5 faults on one channel and rank, on one of two
// devices, whose extents cluster around one bank and row so that they often
// share line groups. The extents vary in every way the walk branches on:
// All, range and List rows; ranges across RelaxFault's row blocks; one to
// three banks; one cell, one block, a whole row or a random column span;
// one to three extents; MirrorRanks.
func randomNode(rng *stats.RNG, g dram.Geometry) []*fault.Fault {
	ch, rank := rng.Intn(g.Channels), rng.Intn(g.DIMMsPerChan)
	devs := [2]int{rng.Intn(g.DevicesPerDIMM()), rng.Intn(g.DevicesPerDIMM())}
	bank0 := rng.Intn(g.Banks)
	row0 := rng.Intn(g.Rows - 4096)
	faults := make([]*fault.Fault, 1+rng.Intn(5))
	for i := range faults {
		f := &fault.Fault{
			Dev:         dram.DeviceCoord{Channel: ch, Rank: rank, Device: devs[rng.Intn(2)]},
			MirrorRanks: rng.Bool(0.2),
		}
		for range 1 + rng.Intn(3) {
			f.Extents = append(f.Extents, randomExtent(rng, g, bank0, row0))
		}
		faults[i] = f
	}
	return faults
}

func randomExtent(rng *stats.RNG, g dram.Geometry, bank0, row0 int) fault.Extent {
	e := fault.Extent{BankLo: min(g.Banks-1, bank0+rng.Intn(2))}
	e.BankHi = min(g.Banks-1, e.BankLo+rng.Intn(3))
	narrow := true
	switch rng.Intn(4) {
	case 0: // one cell
		e.ColLo = rng.Intn(g.Columns)
		e.ColHi = e.ColLo
	case 1: // one block
		e.ColLo = rng.Intn(g.ColBlocks()) * g.ColumnsPerBlk
		e.ColHi = e.ColLo + g.ColumnsPerBlk - 1
	case 2: // a whole row
		e.ColLo, e.ColHi, narrow = 0, g.Columns-1, false
	default:
		e.ColLo = rng.Intn(g.Columns)
		e.ColHi = min(g.Columns-1, e.ColLo+rng.Intn(g.Columns/2))
		narrow = false
	}
	switch r := rng.Intn(40); {
	case r == 0 && narrow:
		e.Rows = fault.AllRows()
		e.BankHi = e.BankLo
	case r < 20:
		lo := row0 + rng.Intn(2048)
		n := 1 + rng.Intn(4)
		if narrow || rng.Bool(0.2) {
			n = 1 + rng.Intn(1200) // crosses 512-row blocks
		}
		e.Rows = fault.RowRange(lo, lo+n-1)
	default:
		rows := make([]int, 1+rng.Intn(40))
		for i := range rows {
			rows[i] = row0 + rng.Intn(4096)
		}
		e.Rows = fault.RowList(rows)
	}
	return e
}

// lineKey names a line group: RelaxFault's lines are per device, FreeFault's
// are shared by every device of a location.
type lineKey struct{ ch, dev, rank, bank, row, cg int }

func keyOf(p *LLCPlanner, f *fault.Fault, l walkLine) lineKey {
	k := lineKey{ch: f.Dev.Channel, rank: l.rank, bank: l.bank, row: l.row, cg: l.cg}
	if p.perDevice {
		k.dev = f.Dev.Device
	}
	return k
}

// checkLines reports the first difference between the lines a walk yielded
// and the reference's.
func checkLines(t *testing.T, label string, got, want []walkLine) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("%s: line %d is %+v, reference %+v", label, i, got[i], want[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, reference %d", label, len(got), len(want))
	}
}

// TestLineWalkMatchesReference checks every line the walk places, raw
// (ForEachLine) and deduplicated (the walk PlanNodeInto and TryRepair run),
// against the per-line placement it is derived from, on random nodes of the
// four shipped geometries, one wider than 2,048 columns (RelaxFault's
// column-group high bits then enter the spread) and LLCs of 16 and 8 sets
// (RFLowRowBits 0, and the wrap to every row bit). It also checks the raw
// line count against Fault.LineCount, the refusal of a fault larger than
// the LLC, and early stop.
func TestLineWalkMatchesReference(t *testing.T) {
	nodes := 40
	if testing.Short() {
		nodes = 8
	}
	wide := dram.Default8GiBNode()
	wide.Columns = 1 << 13
	for gi, geo := range []struct {
		name string
		g    dram.Geometry
		sets int
	}{
		{"ddr3-8gib", dram.Default8GiBNode(), 8192},
		{"ddr4-16gib", dram.DDR4Node(), 8192},
		{"hbm-stack", dram.HBMStackNode(), 8192},
		{"lpddr4", dram.LPDDR4Node(), 8192},
		{"8192-columns", wide, 8192},
		{"16-set-llc", dram.Default8GiBNode(), 16},
		{"8-set-llc", dram.Default8GiBNode(), 8},
	} {
		t.Run(geo.name, func(t *testing.T) {
			t.Parallel()
			m, err := addrmap.New(geo.g, geo.sets)
			if err != nil {
				t.Fatal(err)
			}
			planners := refPlacements(m)
			rng := stats.NewRNG(uint64(gi) + 1)
			var raw, want, fresh, dedup []walkLine
			for node := 0; node < nodes && !t.Failed(); node++ {
				faults := randomNode(rng, geo.g)
				for _, pr := range planners {
					p := pr.p
					label := fmt.Sprintf("node %d %s", node, p.Name())
					held := map[lineKey]bool{}
					d := &placed{lines: true}
					d.reset(1 << m.SetBits())
					for i, f := range faults {
						label := fmt.Sprintf("%s fault %d (%+v)", label, i, f.Dev)
						fits := f.LineCount(geo.g, p.colsPerGroup) <= p.maxEnumerate
						raw = raw[:0]
						mappable := p.ForEachLine(f, func(rank, bank, row, cg int, set int32, tag uint64) bool {
							raw = append(raw, walkLine{rank, bank, row, cg, set, tag})
							return true
						})
						if mappable != fits || (!fits && len(raw) > 0) {
							t.Errorf("%s: ForEachLine mappable %v after %d lines; LineCount %d against %d",
								label, mappable, len(raw), f.LineCount(geo.g, p.colsPerGroup), p.maxEnumerate)
							continue
						}
						want = want[:0]
						if fits {
							want = refLines(want, p, pr.ref, f)
							if int64(len(want)) != f.LineCount(geo.g, p.colsPerGroup) {
								t.Fatalf("%s: reference has %d lines, LineCount %d", label, len(want), f.LineCount(geo.g, p.colsPerGroup))
							}
						}
						checkLines(t, label+" raw", raw, want)

						// Deduplicated: the lines neither an earlier placed
						// fault nor an earlier line of f holds. A fault the
						// walk refuses has no reference lines, so every
						// line held comes from a placed fault.
						fresh, dedup = fresh[:0], dedup[:0]
						for _, l := range want {
							if k := keyOf(p, f, l); !held[k] {
								held[k] = true
								fresh = append(fresh, l)
							}
						}
						if p.walk(f, d, true, func(sets []int32) bool {
							return d.eachLine(p, sets, func(rank, bank, row, cg int, set int32, tag uint64) bool {
								dedup = append(dedup, walkLine{rank, bank, row, cg, set, tag})
								return true
							})
						}) {
							d.faults = append(d.faults, f)
						}
						checkLines(t, label+" deduplicated", dedup, fresh)

						// Early stop: fn returning false at line k ends the
						// walk there, across batch boundaries too.
						if len(want) >= 2 {
							k, calls := 1+rng.Intn(len(want)-1), 0
							if !p.ForEachLine(f, func(int, int, int, int, int32, uint64) bool { calls++; return calls < k }) || calls != k {
								t.Errorf("%s: a walk told to stop at line %d of %d made %d calls", label, k, len(want), calls)
							}
						}
					}
				}
			}
		})
	}
}
