package dram

import "fmt"

// CellPredicate reports whether a fault covers the cell at (bank, row, col)
// within one device. Predicates must be pure: the array may evaluate them in
// any order and any number of times.
type CellPredicate func(bank, row, col int) bool

// StuckFault describes a permanent fault in one device as a region of cells
// that no longer store data. Reads of covered cells return the stuck value
// instead of the stored bits; writes to covered cells are lost.
type StuckFault struct {
	Dev      DeviceCoord
	Covers   CellPredicate
	StuckVal uint8 // low BitsPerColumn bits are the value every covered column reads as
}

// SubBlock is the 4-byte contribution of a single device to one cacheline:
// BurstLength consecutive columns of BitsPerColumn bits each, packed
// little-endian (column i occupies bits [4i, 4i+4)).
type SubBlock uint32

// Line is the per-device decomposition of one cacheline access across a
// rank: element i is device i's sub-block (data devices first, then check
// devices).
type Line []SubBlock

// Array is a functional DRAM store for one node. It holds only lines that
// have been written (sparse map), which keeps multi-GiB geometries cheap to
// model, and applies stuck-bit corruption from registered faults on every
// read. Array is not safe for concurrent use; the simulators own one array
// per goroutine.
type Array struct {
	geo    Geometry
	lines  map[Location]Line
	faults map[DeviceCoord][]*StuckFault
}

// NewArray creates an empty array for the given geometry.
func NewArray(g Geometry) (*Array, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:    g,
		lines:  make(map[Location]Line),
		faults: make(map[DeviceCoord][]*StuckFault),
	}, nil
}

// InjectFault registers a permanent stuck-at fault. Cells already written
// are corrupted retroactively (their stored value is unchanged, but reads
// will see the stuck value), exactly as a real fault would behave.
func (a *Array) InjectFault(f *StuckFault) error {
	if f == nil || f.Covers == nil {
		return fmt.Errorf("dram: nil fault or predicate")
	}
	if f.Dev.Channel < 0 || f.Dev.Channel >= a.geo.Channels ||
		f.Dev.Rank < 0 || f.Dev.Rank >= a.geo.DIMMsPerChan ||
		f.Dev.Device < 0 || f.Dev.Device >= a.geo.DevicesPerDIMM() {
		return fmt.Errorf("dram: fault device %v out of range", f.Dev)
	}
	a.faults[f.Dev] = append(a.faults[f.Dev], f)
	return nil
}

// Write stores the cacheline at loc. len(line) must equal the device count
// per DIMM. The stored value is the written value; corruption is applied at
// read time so that repairs which stop reading faulty cells observe clean
// data again.
func (a *Array) Write(loc Location, line Line) error {
	if !loc.Valid(a.geo) {
		return fmt.Errorf("dram: write to invalid location %v", loc)
	}
	if len(line) != a.geo.DevicesPerDIMM() {
		return fmt.Errorf("dram: write with %d sub-blocks, want %d", len(line), a.geo.DevicesPerDIMM())
	}
	stored := make(Line, len(line))
	copy(stored, line)
	a.lines[loc] = stored
	return nil
}

// Read returns the cacheline at loc with fault corruption applied.
// Unwritten lines read as zero (before corruption). The returned slice is
// freshly allocated and owned by the caller.
func (a *Array) Read(loc Location) (Line, error) {
	if !loc.Valid(a.geo) {
		return nil, fmt.Errorf("dram: read from invalid location %v", loc)
	}
	ndev := a.geo.DevicesPerDIMM()
	out := make(Line, ndev)
	if stored, ok := a.lines[loc]; ok {
		copy(out, stored)
	}
	for dev := 0; dev < ndev; dev++ {
		dc := DeviceCoord{Channel: loc.Channel, Rank: loc.Rank, Device: dev}
		faults := a.faults[dc]
		if len(faults) == 0 {
			continue
		}
		out[dev] = corrupt(out[dev], loc, faults)
	}
	return out, nil
}

// corrupt replaces each faulty column's nibble with the fault's stuck value.
func corrupt(sb SubBlock, loc Location, faults []*StuckFault) SubBlock {
	for _, f := range faults {
		for c := 0; c < BurstLength; c++ {
			col := loc.ColBlock*ColumnsPerBlock + c
			if f.Covers(loc.Bank, loc.Row, col) {
				shift := uint(c * BitsPerColumn)
				mask := SubBlock((1<<BitsPerColumn)-1) << shift
				sb = (sb &^ mask) | (SubBlock(f.StuckVal&0xF) << shift)
			}
		}
	}
	return sb
}

// LineToBytes flattens the data-device sub-blocks of a line into the 64-byte
// cacheline image the processor sees. Device d contributes bytes
// [d*DeviceBytesPerLine, (d+1)*DeviceBytesPerLine).
func LineToBytes(g Geometry, line Line) []byte {
	out := make([]byte, g.LineBytes)
	for d := 0; d < g.DataDevices; d++ {
		sb := line[d]
		for b := 0; b < DeviceBytesPerLine; b++ {
			out[d*DeviceBytesPerLine+b] = byte(sb >> (8 * uint(b)))
		}
	}
	return out
}

// BytesToLine packs a 64-byte cacheline image into data-device sub-blocks,
// leaving check-device sub-blocks zero (the ECC layer fills them).
func BytesToLine(g Geometry, data []byte) (Line, error) {
	if len(data) != g.LineBytes {
		return nil, fmt.Errorf("dram: cacheline must be %d bytes, got %d", g.LineBytes, len(data))
	}
	line := make(Line, g.DevicesPerDIMM())
	for d := 0; d < g.DataDevices; d++ {
		var sb SubBlock
		for b := 0; b < DeviceBytesPerLine; b++ {
			sb |= SubBlock(data[d*DeviceBytesPerLine+b]) << (8 * uint(b))
		}
		line[d] = sb
	}
	return line, nil
}
