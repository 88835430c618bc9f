// Package dram models the organisation of a DIMM-based DDR3/DDR4 memory
// system at the granularity the RelaxFault paper reasons about: channels,
// DIMMs (one rank per DIMM in the evaluated configuration), x4 devices,
// banks, subarrays, rows, and columns.
//
// Two views are provided:
//
//   - Geometry: pure arithmetic over the hierarchy (sizes, index ranges,
//     conversions) used by the address-mapping and fault-injection code.
//   - Array: a functional store that actually holds data per device and
//     applies stuck-bit corruption from injected faults, used by the
//     end-to-end repair pipeline in internal/core.
package dram

import "fmt"

// Standard dimensions of the evaluated system (paper §4, Figure 7):
// 8GiB ECC DIMMs built from 18 x4 4Gb DDR3 devices (16 data + 2 check),
// 8 banks per device, 64Ki rows, 2Ki columns per row, 4 bits per column.
const (
	// BitsPerColumn is the data width of one x4 device: one column address
	// selects 4 bits.
	BitsPerColumn = 4

	// BurstLength is the DDR3 burst: one CAS transfers 8 consecutive
	// columns, so each device contributes 32 bits = 4 bytes per burst.
	BurstLength = 8

	// ColumnsPerBlock is the number of columns a single cacheline transfer
	// consumes from each device (equal to the burst length).
	ColumnsPerBlock = BurstLength

	// DeviceBytesPerLine is the number of bytes a single x4 device
	// contributes to one 64B cacheline (the RelaxFault sub-block size).
	DeviceBytesPerLine = BitsPerColumn * BurstLength / 8 // 4 bytes

	// SubarrayRows is the number of rows per subarray (tile); a column
	// (bitline) fault is physically confined to one subarray.
	SubarrayRows = 512

	// CachelineBytes is the memory transfer block size.
	CachelineBytes = 64
)

// Geometry describes one node's memory system. All counts must be powers of
// two; Validate enforces this so the bit-slicing address maps are exact.
type Geometry struct {
	Channels      int // memory channels per node
	DIMMsPerChan  int // DIMMs (= ranks) per channel
	DataDevices   int // data devices per rank (16 for x4 chipkill DIMMs)
	CheckDevices  int // ECC devices per rank (2 for chipkill)
	Banks         int // banks per device
	Rows          int // rows per bank
	Columns       int // columns per row (per device)
	LineBytes     int // cacheline / transfer block size in bytes
	ColumnsPerBlk int // columns consumed per cacheline from each device
}

// Default8GiBNode returns the configuration evaluated throughout the paper:
// 4 channels x 2 DIMMs of 8GiB, each DIMM 18 x4 devices (16 data + 2 check),
// 8 banks, 64Ki rows, 2Ki columns.
func Default8GiBNode() Geometry {
	return Geometry{
		Channels:      4,
		DIMMsPerChan:  2,
		DataDevices:   16,
		CheckDevices:  2,
		Banks:         8,
		Rows:          1 << 16,
		Columns:       1 << 11,
		LineBytes:     CachelineBytes,
		ColumnsPerBlk: ColumnsPerBlock,
	}
}

// PerfNode returns the 2-channel configuration used by the performance
// simulator (Table 3: 2 channels, 2 ranks/channel, 8 banks/rank).
func PerfNode() Geometry {
	g := Default8GiBNode()
	g.Channels = 2
	return g
}

// Validate checks that every dimension is a positive power of two (except
// CheckDevices, which only needs to be non-negative) and that derived
// quantities are consistent.
func (g Geometry) Validate() error {
	pow2 := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("dram: %s must be a positive power of two, got %d", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"DIMMsPerChan", g.DIMMsPerChan},
		{"DataDevices", g.DataDevices},
		{"Banks", g.Banks},
		{"Rows", g.Rows},
		{"Columns", g.Columns},
		{"LineBytes", g.LineBytes},
		{"ColumnsPerBlk", g.ColumnsPerBlk},
	} {
		if err := pow2(f.name, f.v); err != nil {
			return err
		}
	}
	if g.CheckDevices < 0 {
		return fmt.Errorf("dram: CheckDevices must be >= 0, got %d", g.CheckDevices)
	}
	if g.Columns%g.ColumnsPerBlk != 0 {
		return fmt.Errorf("dram: Columns (%d) not divisible by ColumnsPerBlk (%d)", g.Columns, g.ColumnsPerBlk)
	}
	wantLine := g.DataDevices * g.ColumnsPerBlk * BitsPerColumn / 8
	if wantLine != g.LineBytes {
		return fmt.Errorf("dram: LineBytes %d inconsistent with %d data devices x %d columns (%d)",
			g.LineBytes, g.DataDevices, g.ColumnsPerBlk, wantLine)
	}
	return nil
}

// DIMMs returns the number of DIMMs (ranks) per node.
func (g Geometry) DIMMs() int { return g.Channels * g.DIMMsPerChan }

// DevicesPerDIMM returns the total devices per DIMM including check devices.
func (g Geometry) DevicesPerDIMM() int { return g.DataDevices + g.CheckDevices }

// DevicesPerNode returns the total device count in the node.
func (g Geometry) DevicesPerNode() int { return g.DIMMs() * g.DevicesPerDIMM() }

// ColBlocks returns the number of cacheline-granularity column blocks per
// row (Columns / ColumnsPerBlk).
func (g Geometry) ColBlocks() int { return g.Columns / g.ColumnsPerBlk }

// LinesPerBank returns the number of cachelines stored per (rank, bank):
// one line per (row, column block).
func (g Geometry) LinesPerBank() int { return g.Rows * g.ColBlocks() }

// NodeDataBytes returns the usable (non-ECC) capacity of the node in bytes.
func (g Geometry) NodeDataBytes() uint64 {
	return uint64(g.DIMMs()) * g.DIMMDataBytes()
}

// DIMMDataBytes returns the usable capacity of a single DIMM in bytes.
func (g Geometry) DIMMDataBytes() uint64 {
	bitsPerDevice := uint64(g.Banks) * uint64(g.Rows) * uint64(g.Columns) * BitsPerColumn
	return uint64(g.DataDevices) * bitsPerDevice / 8
}

// NumLineAddresses returns how many cacheline addresses the node decodes.
func (g Geometry) NumLineAddresses() uint64 {
	return g.NodeDataBytes() / uint64(g.LineBytes)
}

// Bits reports the widths of each coordinate field.
func (g Geometry) Bits() FieldBits {
	return FieldBits{
		Channel:  log2(g.Channels),
		Rank:     log2(g.DIMMsPerChan),
		Bank:     log2(g.Banks),
		Row:      log2(g.Rows),
		ColBlock: log2(g.ColBlocks()),
	}
}

// FieldBits holds the bit width of each DRAM coordinate field.
type FieldBits struct {
	Channel  uint
	Rank     uint
	Bank     uint
	Row      uint
	ColBlock uint
}

// LineAddrBits returns the total number of cacheline-address bits.
func (fb FieldBits) LineAddrBits() uint {
	return fb.Channel + fb.Rank + fb.Bank + fb.Row + fb.ColBlock
}

func log2(v int) uint {
	var n uint
	for 1<<n < v {
		n++
	}
	return n
}

// Location identifies one cacheline-granularity DRAM location: the set of
// cells across all devices of a rank that a single 64B access touches.
type Location struct {
	Channel  int
	Rank     int // DIMM within the channel
	Bank     int
	Row      int
	ColBlock int // column / ColumnsPerBlk
}

// Valid reports whether l is within the geometry's bounds.
func (l Location) Valid(g Geometry) bool {
	return l.Channel >= 0 && l.Channel < g.Channels &&
		l.Rank >= 0 && l.Rank < g.DIMMsPerChan &&
		l.Bank >= 0 && l.Bank < g.Banks &&
		l.Row >= 0 && l.Row < g.Rows &&
		l.ColBlock >= 0 && l.ColBlock < g.ColBlocks()
}

// DIMMIndex returns the node-global DIMM index of the location.
func (l Location) DIMMIndex(g Geometry) int {
	return l.Channel*g.DIMMsPerChan + l.Rank
}

// String formats the location for diagnostics.
func (l Location) String() string {
	return fmt.Sprintf("ch%d/rk%d/bk%d/row%d/cb%d", l.Channel, l.Rank, l.Bank, l.Row, l.ColBlock)
}

// DeviceCoord identifies a single device in the node.
type DeviceCoord struct {
	Channel int
	Rank    int
	Device  int // 0..DevicesPerDIMM-1; indices >= DataDevices are check devices
}

// DIMMIndex returns the node-global DIMM index of the device.
func (d DeviceCoord) DIMMIndex(g Geometry) int {
	return d.Channel*g.DIMMsPerChan + d.Rank
}

// IsCheck reports whether the device stores ECC check symbols.
func (d DeviceCoord) IsCheck(g Geometry) bool { return d.Device >= g.DataDevices }

// String formats the device coordinate.
func (d DeviceCoord) String() string {
	return fmt.Sprintf("ch%d/rk%d/dev%d", d.Channel, d.Rank, d.Device)
}

// SubarrayOfRow returns the subarray (tile) index containing the given row.
func SubarrayOfRow(row int) int { return row / SubarrayRows }
