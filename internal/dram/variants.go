package dram

// Alternative memory organisations. Section 2 of the paper argues that from
// RelaxFault's perspective DDR3/DDR4 DIMMs, GDDR5, LPDDR4, WideIO2, HMC and
// HBM are "almost equivalent because all inherently use the same device
// organisation"; these constructors let the experiments back that claim by
// re-running coverage studies on other geometries.

// DDR4Node returns an 8-DIMM node of 16GiB DDR4 DIMMs: 18 x4 8Gb devices,
// 16 banks in 4 bank groups, 128Ki rows of 1KiB device-row each
// (2Ki columns x4). Capacity doubles relative to the DDR3 node; the bank
// count doubles too, halving per-bank fault blast radius.
func DDR4Node() Geometry {
	return Geometry{
		Channels:      4,
		DIMMsPerChan:  2,
		DataDevices:   16,
		CheckDevices:  2,
		Banks:         16,
		Rows:          1 << 17,
		Columns:       1 << 10,
		LineBytes:     CachelineBytes,
		ColumnsPerBlk: ColumnsPerBlock,
	}
}

// HBMStackNode returns a node built from 4 HBM-like stacks: each "DIMM" is
// one stack channel group with 16 pseudo-device slices (plus 2 ECC slices,
// mirroring the chipkill layout), 16 banks, 32Ki rows, 1Ki columns. The
// point is not pin-accuracy — it is that the (bank, row, column) fault
// structure and therefore RelaxFault's coalescing behave identically.
func HBMStackNode() Geometry {
	return Geometry{
		Channels:      4,
		DIMMsPerChan:  2,
		DataDevices:   16,
		CheckDevices:  2,
		Banks:         16,
		Rows:          1 << 15,
		Columns:       1 << 10,
		LineBytes:     CachelineBytes,
		ColumnsPerBlk: ColumnsPerBlock,
	}
}

// LPDDR4Node returns a soldered-down LPDDR4-style node: 2 channels, one
// rank each, 8 banks, 64Ki rows. LPDDR4 PPR allows one spare row per bank
// (not per bank group).
func LPDDR4Node() Geometry {
	return Geometry{
		Channels:      2,
		DIMMsPerChan:  1,
		DataDevices:   16,
		CheckDevices:  2,
		Banks:         8,
		Rows:          1 << 16,
		Columns:       1 << 11,
		LineBytes:     CachelineBytes,
		ColumnsPerBlk: ColumnsPerBlock,
	}
}
