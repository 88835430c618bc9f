// Package core implements the paper's primary contribution as a working
// library: a RelaxFault memory controller that serves reads and writes over
// faulty DRAM by remapping each faulty device's data into locked last-level
// cache lines addressed by the coalescing repair mapping (Sections 3.1-3.2,
// Figures 3-6).
//
// The controller owns a functional DRAM array (which corrupts data under
// injected faults), a data-bearing LLC with the RelaxFault tag-extension
// bit, the faulty-bank table filter, and the chipkill ECC pipeline. Repairs
// really move data: after Repair, reads of faulty addresses return the
// correct bytes because the faulty device's sub-blocks are sourced from the
// cache and merged with the DRAM burst by the coalescer masks before ECC
// decoding.
package core

import (
	"fmt"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/cache"
	"relaxfault/internal/dram"
	"relaxfault/internal/ecc"
	"relaxfault/internal/fault"
	"relaxfault/internal/repair"
)

// Mode selects the repair mechanism the controller implements.
type Mode int

const (
	// RelaxFaultMode remaps each faulty device's data into coalesced,
	// repair-addressed LLC lines (the paper's contribution).
	RelaxFaultMode Mode = iota
	// FreeFaultMode locks every cacheline that touches a faulty location
	// in place in the LLC (Kim & Erez, HPCA'15) — the prior mechanism
	// RelaxFault improves on, kept for functional comparison.
	FreeFaultMode
)

// String names the mode.
func (m Mode) String() string {
	if m == FreeFaultMode {
		return "FreeFault"
	}
	return "RelaxFault"
}

// Config parameterises a controller.
type Config struct {
	Geometry dram.Geometry
	// LLCSets/LLCWays describe the shared LLC (paper: 8192 x 16 x 64B).
	LLCSets int
	LLCWays int
	// HashSetIndex enables XOR set-index hashing for normal lines.
	HashSetIndex bool
	// MaxRepairWaysPerSet caps repair lines per set (paper: RelaxFault
	// needs at most 1 way in the common case, up to 4 for full coverage).
	MaxRepairWaysPerSet int
	// Mode selects RelaxFault (default) or FreeFault repair.
	Mode Mode
}

// DefaultConfig returns the evaluated system: 8MiB 16-way LLC over the
// 8-DIMM node, with up to 4 repair ways per set.
func DefaultConfig() Config {
	return Config{
		Geometry:            dram.Default8GiBNode(),
		LLCSets:             8192,
		LLCWays:             16,
		HashSetIndex:        true,
		MaxRepairWaysPerSet: 4,
	}
}

// Stats counts controller events.
type Stats struct {
	Reads             uint64
	Writes            uint64
	LLCHits           uint64
	LLCMisses         uint64
	DRAMReads         uint64
	DRAMWrites        uint64
	CorrectedErrors   uint64
	DUEs              uint64
	RFLineFills       uint64 // remap lines allocated
	RFMerges          uint64 // reads that merged remapped sub-blocks
	RFWriteUpdates    uint64 // writebacks that updated remap lines
	BankTableProbes   uint64
	BankTableHits     uint64
	RepairedFaults    uint64
	RepairsRejected   uint64
	SubBlocksRemapped uint64
}

// Controller is a functional RelaxFault-aware memory controller plus LLC.
// It is not safe for concurrent use.
type Controller struct {
	cfg    Config
	mapper *addrmap.Mapper
	mem    *dram.Array
	llc    *cache.Cache

	// faultyBank is the faulty-bank table of Figure 5: one bit per
	// (DIMM, bank) indicating that some locations of that bank are
	// remapped. It filters the RelaxFault probe off the common path.
	faultyBank []uint64 // one bitmap word per DIMM

	// planner places repair lines: RelaxFault's coalescing mapping, or
	// FreeFault's in-place lines.
	planner *repair.LLCPlanner

	// rfWays tracks repair pressure per set to enforce the way cap.
	rfWays []uint8

	Stats Stats
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Geometry.DevicesPerDIMM() != ecc.TotalSymbols {
		return nil, fmt.Errorf("core: geometry has %d devices per DIMM; the chipkill code needs %d",
			cfg.Geometry.DevicesPerDIMM(), ecc.TotalSymbols)
	}
	if cfg.MaxRepairWaysPerSet <= 0 || cfg.MaxRepairWaysPerSet > cfg.LLCWays {
		return nil, fmt.Errorf("core: MaxRepairWaysPerSet %d outside [1, %d]", cfg.MaxRepairWaysPerSet, cfg.LLCWays)
	}
	mapper, err := addrmap.New(cfg.Geometry, cfg.LLCSets)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewArray(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLCSets, cfg.LLCWays, cfg.Geometry.LineBytes)
	if err != nil {
		return nil, err
	}
	if cfg.Geometry.Banks > 64 {
		return nil, fmt.Errorf("core: faulty-bank table supports up to 64 banks, got %d", cfg.Geometry.Banks)
	}
	planner := repair.NewRelaxFault(mapper, cfg.LLCWays)
	if cfg.Mode == FreeFaultMode {
		planner = repair.NewFreeFault(mapper, cfg.LLCWays, cfg.HashSetIndex)
	}
	return &Controller{
		cfg:        cfg,
		mapper:     mapper,
		mem:        mem,
		llc:        llc,
		faultyBank: make([]uint64, cfg.Geometry.DIMMs()),
		planner:    planner,
		rfWays:     make([]uint8, cfg.LLCSets),
	}, nil
}

// Mapper exposes the controller's address mapper.
func (c *Controller) Mapper() *addrmap.Mapper { return c.mapper }

// LLC exposes the cache for inspection.
func (c *Controller) LLC() *cache.Cache { return c.llc }

// InjectFault registers a fault's stuck-cell behaviour in the DRAM array
// (one StuckFault per affected rank for MirrorRanks faults). StuckVal 0xF
// is used: covered columns read all-ones.
func (c *Controller) InjectFault(f *fault.Fault) error {
	lo, hi := f.Ranks(c.cfg.Geometry)
	for rk := lo; rk < hi; rk++ {
		dev := f.Dev
		dev.Rank = rk
		if err := c.mem.InjectFault(&dram.StuckFault{Dev: dev, Covers: f.Predicate(), StuckVal: 0xF}); err != nil {
			return err
		}
	}
	return nil
}

// bankBit returns the faulty-bank table coordinates of a location.
func (c *Controller) bankBit(loc dram.Location) (dimm int, bit uint64) {
	return loc.DIMMIndex(c.cfg.Geometry), 1 << uint(loc.Bank)
}

// ReadLine returns the 64 data bytes at the given cacheline address along
// with the ECC status observed (OK, Corrected, or DUE; on DUE the returned
// data is the uncorrectable best effort).
func (c *Controller) ReadLine(la addrmap.LineAddr) ([]byte, ecc.Status, error) {
	c.Stats.Reads++
	set, tag := c.mapper.CacheIndex(la, c.cfg.HashSetIndex)
	if way := c.llc.Access(set, tag, false); way >= 0 {
		c.Stats.LLCHits++
		data := make([]byte, c.cfg.Geometry.LineBytes)
		copy(data, c.llc.DataAt(set, way))
		return data, ecc.OK, nil
	}
	c.Stats.LLCMisses++
	loc := c.mapper.Decode(la)
	line, status, err := c.fetchAndMerge(loc)
	if err != nil {
		return nil, ecc.DUE, err
	}
	data := dram.LineToBytes(c.cfg.Geometry, line)
	if status != ecc.DUE {
		c.fillNormal(set, tag, data, false)
	}
	return data, status, nil
}

// WriteLine stores 64 bytes at the cacheline address through the LLC
// (write-allocate, write-back).
func (c *Controller) WriteLine(la addrmap.LineAddr, data []byte) error {
	if len(data) != c.cfg.Geometry.LineBytes {
		return fmt.Errorf("core: WriteLine needs %d bytes, got %d", c.cfg.Geometry.LineBytes, len(data))
	}
	c.Stats.Writes++
	set, tag := c.mapper.CacheIndex(la, c.cfg.HashSetIndex)
	if way := c.llc.Access(set, tag, false); way >= 0 {
		c.Stats.LLCHits++
		c.llc.SetData(set, way, data)
		c.llc.MarkDirty(set, way)
		return nil
	}
	c.Stats.LLCMisses++
	c.fillNormal(set, tag, data, true)
	return nil
}

// fillNormal installs a normal line, handling the writeback of the victim.
func (c *Controller) fillNormal(set int, tag uint64, data []byte, dirty bool) {
	way, evicted := c.llc.Fill(set, tag, false)
	if way < 0 {
		// Every way locked for repair: bypass the cache. The repair-way
		// cap makes this impossible in practice, but bypassing keeps the
		// controller correct under any configuration.
		if dirty {
			c.writeBack(tag, set, data)
		}
		return
	}
	if evicted.Valid && evicted.Dirty && !evicted.RF {
		c.writeBack(evicted.Tag, set, evicted.Data)
	}
	c.llc.SetData(set, way, data)
	if dirty {
		c.llc.MarkDirty(set, way)
	}
}

// lineAddrFromIndex reconstructs the line address of a normal line from its
// (set, tag) placement, inverting the optional XOR hash.
func (c *Controller) lineAddrFromIndex(set int, tag uint64) addrmap.LineAddr {
	la := tag << c.mapper.SetBits()
	low := uint64(set)
	if c.cfg.HashSetIndex {
		for rest := tag; rest != 0; rest >>= c.mapper.SetBits() {
			low ^= rest & ((1 << c.mapper.SetBits()) - 1)
		}
	}
	return addrmap.LineAddr(la | low)
}

// writeBack encodes and writes a 64B line to DRAM, updating any remap lines
// that shadow faulty devices at that location (LLC Writebacks, Section 3.1).
func (c *Controller) writeBack(tag uint64, set int, data []byte) {
	la := c.lineAddrFromIndex(set, tag)
	loc := c.mapper.Decode(la)
	line, err := dram.BytesToLine(c.cfg.Geometry, data)
	if err != nil {
		return
	}
	if err := ecc.EncodeLine(line); err != nil {
		return
	}
	c.Stats.DRAMWrites++
	_ = c.mem.Write(loc, line)

	// Masked write into remap lines for repaired devices at this location.
	dimm, bit := c.bankBit(loc)
	c.Stats.BankTableProbes++
	if c.faultyBank[dimm]&bit == 0 {
		return
	}
	c.Stats.BankTableHits++
	for dev := 0; dev < c.cfg.Geometry.DevicesPerDIMM(); dev++ {
		key, sub := c.mapper.RFKeyFor(loc, dev)
		t := c.mapper.RFIndex(key)
		way := c.llc.Probe(t.Set, t.Tag, true)
		if way < 0 {
			continue
		}
		buf := c.llc.DataAt(t.Set, way)
		writeSubBlock(buf, sub, line[dev])
		c.Stats.RFWriteUpdates++
	}
}

// fetchAndMerge reads a line from DRAM, substitutes remapped sub-blocks
// from the LLC (Figure 6a/6b), and ECC-decodes the result.
func (c *Controller) fetchAndMerge(loc dram.Location) (dram.Line, ecc.Status, error) {
	c.Stats.DRAMReads++
	line, err := c.mem.Read(loc)
	if err != nil {
		return nil, ecc.DUE, err
	}
	dimm, bit := c.bankBit(loc)
	c.Stats.BankTableProbes++
	if c.faultyBank[dimm]&bit != 0 {
		c.Stats.BankTableHits++
		merged := false
		for dev := 0; dev < c.cfg.Geometry.DevicesPerDIMM(); dev++ {
			key, sub := c.mapper.RFKeyFor(loc, dev)
			t := c.mapper.RFIndex(key)
			way := c.llc.Probe(t.Set, t.Tag, true)
			if way < 0 {
				continue
			}
			// Coalescer merge: clear the faulty device's field and OR in
			// the remapped sub-block (Figure 6a/6b).
			buf := c.llc.DataAt(t.Set, way)
			line[dev] = readSubBlock(buf, sub)
			merged = true
		}
		if merged {
			c.Stats.RFMerges++
		}
	}
	res, err := ecc.DecodeLine(line)
	if err != nil {
		return nil, ecc.DUE, err
	}
	switch res.Status {
	case ecc.Corrected:
		c.Stats.CorrectedErrors++
	case ecc.DUE:
		c.Stats.DUEs++
	}
	return line, res.Status, nil
}

// readForRepair returns the freshest corrected view of a line: a dirty copy
// in the LLC if present, otherwise the merged-and-decoded DRAM contents.
func (c *Controller) readForRepair(loc dram.Location) (dram.Line, ecc.Status) {
	la := c.mapper.Encode(loc)
	set, tag := c.mapper.CacheIndex(la, c.cfg.HashSetIndex)
	if way := c.llc.Probe(set, tag, false); way >= 0 {
		data := c.llc.DataAt(set, way)
		line, err := dram.BytesToLine(c.cfg.Geometry, data)
		if err == nil {
			_ = ecc.EncodeLine(line)
			return line, ecc.OK
		}
	}
	line, status, err := c.fetchAndMerge(loc)
	if err != nil {
		// Treat hard errors as uncorrectable fills.
		line = make(dram.Line, c.cfg.Geometry.DevicesPerDIMM())
		status = ecc.DUE
	}
	return line, status
}

// readSubBlock extracts sub-block i (4 bytes) from a remap line payload.
func readSubBlock(buf []byte, i int) dram.SubBlock {
	off := i * dram.DeviceBytesPerLine
	var sb dram.SubBlock
	for b := 0; b < dram.DeviceBytesPerLine; b++ {
		sb |= dram.SubBlock(buf[off+b]) << (8 * uint(b))
	}
	return sb
}

// writeSubBlock stores sub-block i into a remap line payload.
func writeSubBlock(buf []byte, i int, sb dram.SubBlock) {
	off := i * dram.DeviceBytesPerLine
	for b := 0; b < dram.DeviceBytesPerLine; b++ {
		buf[off+b] = byte(sb >> (8 * uint(b)))
	}
}

// Flush writes every dirty, unlocked normal line back to DRAM and
// invalidates it. Locked repair lines — RelaxFault remap lines and
// FreeFault in-place lines alike — stay resident: pinning them in the LLC
// is the repair.
func (c *Controller) Flush() {
	for set := 0; set < c.llc.Sets(); set++ {
		for way := 0; way < c.llc.Ways(); way++ {
			l := c.llc.Line(set, way)
			if !l.Valid || l.RF || l.Locked {
				continue
			}
			if l.Dirty {
				c.writeBack(l.Tag, set, l.Data)
			}
			c.llc.Invalidate(set, way)
		}
	}
}

// RepairedLines returns the number of locked remap lines resident in the
// LLC.
func (c *Controller) RepairedLines() int { return c.llc.LockedLines() }

// RepairedBytes returns the LLC capacity consumed by repair.
func (c *Controller) RepairedBytes() int {
	return c.RepairedLines() * c.cfg.Geometry.LineBytes
}
