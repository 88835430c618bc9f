package fault

import (
	"sort"

	"relaxfault/internal/dram"
)

// RowSpec selects the rows an extent affects within each of its banks.
// Exactly one representation is active: All, a contiguous [Lo, Hi] range,
// or an explicit sorted List.
type RowSpec struct {
	All    bool
	Lo, Hi int   // inclusive; used when All == false and List == nil
	List   []int // sorted, distinct; overrides Lo/Hi when non-nil
}

// AllRows selects every row.
func AllRows() RowSpec { return RowSpec{All: true} }

// RowRange selects the inclusive range [lo, hi].
func RowRange(lo, hi int) RowSpec { return RowSpec{Lo: lo, Hi: hi} }

// OneRow selects a single row.
func OneRow(r int) RowSpec { return RowSpec{Lo: r, Hi: r} }

// RowList selects an explicit set of rows; the slice is sorted and
// deduplicated in place.
func RowList(rows []int) RowSpec {
	sort.Ints(rows)
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			out = append(out, r)
		}
	}
	return RowSpec{List: out}
}

// Count returns how many rows the spec selects given the bank's row count.
func (rs RowSpec) Count(totalRows int) int {
	switch {
	case rs.All:
		return totalRows
	case rs.List != nil:
		return len(rs.List)
	default:
		if rs.Hi < rs.Lo {
			return 0
		}
		return rs.Hi - rs.Lo + 1
	}
}

// Contains reports whether row r is selected.
func (rs RowSpec) Contains(r int) bool {
	switch {
	case rs.All:
		return true
	case rs.List != nil:
		i := sort.SearchInts(rs.List, r)
		return i < len(rs.List) && rs.List[i] == r
	default:
		return r >= rs.Lo && r <= rs.Hi
	}
}

// ForEach calls fn for every selected row in increasing order, stopping
// early if fn returns false. totalRows bounds the All case.
func (rs RowSpec) ForEach(totalRows int, fn func(r int) bool) {
	switch {
	case rs.All:
		for r := 0; r < totalRows; r++ {
			if !fn(r) {
				return
			}
		}
	case rs.List != nil:
		for _, r := range rs.List {
			if !fn(r) {
				return
			}
		}
	default:
		for r := rs.Lo; r <= rs.Hi; r++ {
			if !fn(r) {
				return
			}
		}
	}
}

// Intersects reports whether two specs share any row.
func (rs RowSpec) Intersects(other RowSpec, totalRows int) bool {
	if rs.Count(totalRows) == 0 || other.Count(totalRows) == 0 {
		return false
	}
	if rs.All || other.All {
		return true
	}
	if rs.List == nil && other.List == nil {
		return rs.Lo <= other.Hi && other.Lo <= rs.Hi
	}
	// Ensure rs has the list (symmetric).
	if rs.List == nil {
		rs, other = other, rs
	}
	if other.List == nil {
		for _, r := range rs.List {
			if r >= other.Lo && r <= other.Hi {
				return true
			}
		}
		return false
	}
	// Both lists: march in order.
	i, j := 0, 0
	for i < len(rs.List) && j < len(other.List) {
		switch {
		case rs.List[i] == other.List[j]:
			return true
		case rs.List[i] < other.List[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Extent describes one contiguous-by-structure region of faulty cells
// within a single device: a bank range, a row selection applied to each of
// those banks, and an inclusive column range applied to each selected row.
type Extent struct {
	BankLo, BankHi int // inclusive bank range
	Rows           RowSpec
	ColLo, ColHi   int // inclusive column range
}

// Banks returns the number of banks the extent touches.
func (e Extent) Banks() int { return e.BankHi - e.BankLo + 1 }

// Cols returns the number of columns per affected row.
func (e Extent) Cols() int { return e.ColHi - e.ColLo + 1 }

// Contains reports whether the cell (bank, row, col) is inside the extent.
func (e Extent) Contains(bank, row, col int) bool {
	return bank >= e.BankLo && bank <= e.BankHi &&
		col >= e.ColLo && col <= e.ColHi &&
		e.Rows.Contains(row)
}

// CellCount returns the number of affected column-cells (each cell is
// dram.BitsPerColumn bits wide).
func (e Extent) CellCount(g dram.Geometry) int64 {
	return int64(e.Banks()) * int64(e.Rows.Count(g.Rows)) * int64(e.Cols())
}

// colBlockRange returns the inclusive column-block range [lo, hi] the
// extent's columns span given the grouping factor (columns per block).
func (e Extent) colBlockRange(colsPerBlock int) (int, int) {
	return e.ColLo / colsPerBlock, e.ColHi / colsPerBlock
}

// LineCount returns how many distinct cacheline-granularity groups the
// extent spans: (bank, row, column-block) triples with the given grouping
// factor. FreeFault uses colsPerGroup = dram.ColumnsPerBlock (one locked
// LLC line per spanned cacheline); RelaxFault uses 16x that, because one
// remap line covers 16 column blocks of one device (Section 3.2).
func (e Extent) LineCount(g dram.Geometry, colsPerGroup int) int64 {
	lo, hi := e.colBlockRange(colsPerGroup)
	return int64(e.Banks()) * int64(e.Rows.Count(g.Rows)) * int64(hi-lo+1)
}

// ForEachLine enumerates the distinct (bank, row, colGroup) triples of the
// extent, stopping early if fn returns false.
func (e Extent) ForEachLine(g dram.Geometry, colsPerGroup int, fn func(bank, row, cg int) bool) {
	lo, hi := e.colBlockRange(colsPerGroup)
	for b := e.BankLo; b <= e.BankHi; b++ {
		stop := false
		e.Rows.ForEach(g.Rows, func(r int) bool {
			for cg := lo; cg <= hi; cg++ {
				if !fn(b, r, cg) {
					stop = true
					return false
				}
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Intersects reports whether two extents share at least one cell
// coordinate. The devices holding the extents are irrelevant here; the
// DUE/SDC analysis calls this for extents on *different* devices of the
// same rank, where sharing a (bank, row, col) coordinate means sharing an
// ECC codeword.
func (e Extent) Intersects(other Extent, g dram.Geometry) bool {
	if e.BankHi < other.BankLo || other.BankHi < e.BankLo {
		return false
	}
	if e.ColHi < other.ColLo || other.ColHi < e.ColLo {
		return false
	}
	return e.Rows.Intersects(other.Rows, g.Rows)
}

// Predicate returns a dram.CellPredicate equivalent to the extent.
func (e Extent) Predicate() dram.CellPredicate {
	return func(bank, row, col int) bool { return e.Contains(bank, row, col) }
}

// Fault is one fault event on one device.
type Fault struct {
	Dev  dram.DeviceCoord
	Mode Mode
	// Transient faults corrupt data once and leave the cells healthy;
	// permanent faults persist.
	Transient bool
	// Intermittent marks hard faults that are only active part of the
	// time; ActivationsPerHour is their expected activation rate.
	Intermittent       bool
	ActivationsPerHour float64
	// AtHours is the arrival time of the fault within the simulated
	// horizon.
	AtHours float64
	// Extents are the affected regions within the device. MultiRank
	// faults additionally mirror these extents onto the same device
	// position of every other rank in the channel (see MirrorRanks).
	Extents []Extent
	// MirrorRanks is set for faults in shared circuitry whose extents
	// apply to this device position in every rank of the channel.
	MirrorRanks bool
}

// Permanent reports whether the fault persists (hard-intermittent or
// hard-permanent).
func (f *Fault) Permanent() bool { return !f.Transient }

// Ranks returns the half-open range [lo, hi) of ranks the fault applies to:
// its own rank, or every rank of its channel for MirrorRanks faults.
func (f *Fault) Ranks(g dram.Geometry) (lo, hi int) {
	if f.MirrorRanks {
		return 0, g.DIMMsPerChan
	}
	return f.Dev.Rank, f.Dev.Rank + 1
}

// LineCount sums Extent.LineCount over the fault's extents and ranks.
func (f *Fault) LineCount(g dram.Geometry, colsPerGroup int) int64 {
	var n int64
	for _, e := range f.Extents {
		n += e.LineCount(g, colsPerGroup)
	}
	lo, hi := f.Ranks(g)
	return n * int64(hi-lo)
}

// Contains reports whether the fault covers cell (bank, row, col) on its
// own device.
func (f *Fault) Contains(bank, row, col int) bool {
	for _, e := range f.Extents {
		if e.Contains(bank, row, col) {
			return true
		}
	}
	return false
}

// Predicate returns a cell predicate spanning all extents.
func (f *Fault) Predicate() dram.CellPredicate {
	return f.Contains
}

// CellCount sums the affected cells over all extents (extents are disjoint
// by construction of the sampler).
func (f *Fault) CellCount(g dram.Geometry) int64 {
	var n int64
	for _, e := range f.Extents {
		n += e.CellCount(g)
	}
	return n
}

// Overlaps reports whether two faults share an ECC codeword: they must
// affect different devices of at least one common rank (MirrorRanks faults
// affect their device position in every rank of the channel) and their
// extents must intersect in (bank, row, col) space.
func Overlaps(a, b *Fault, g dram.Geometry) bool {
	if a.Dev.Channel != b.Dev.Channel {
		return false
	}
	if !a.MirrorRanks && !b.MirrorRanks && a.Dev.Rank != b.Dev.Rank {
		return false
	}
	if a.Dev.Device == b.Dev.Device {
		return false
	}
	for _, ea := range a.Extents {
		for _, eb := range b.Extents {
			if ea.Intersects(eb, g) {
				return true
			}
		}
	}
	return false
}
