package core

import (
	"fmt"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/ecc"
	"relaxfault/internal/fault"
)

// RepairOutcome reports what a repair attempt did.
type RepairOutcome struct {
	// Accepted is false when the fault exceeded the per-set way cap or
	// needs more lines than the LLC holds; nothing is allocated in that
	// case (repair is all-or-nothing per fault).
	Accepted bool
	Reason   string
	// LinesAllocated counts new remap lines locked for this fault (lines
	// already resident from earlier repairs are reused, not recounted).
	LinesAllocated int
	// FillDUEs counts sub-block fills whose DRAM read was uncorrectable;
	// the remap line then holds best-effort data.
	FillDUEs int
}

// repairLine is one repair line of a fault as repair's planner places it:
// the line group of the fault's device it covers and its LLC (set, tag).
type repairLine struct {
	rank, bank, row, cg, set int
	tag                      uint64
}

// RepairFault allocates, locks, and fills repair lines covering every
// extent of a permanent fault (Faulty Memory Region Repair Allocation,
// Section 3.1). repair's planner for the controller's mode decides where
// the lines go: in RelaxFault mode they are coalesced remap lines; in
// FreeFault mode (Kim & Erez) every spanned cacheline is locked in place at
// its own (set, tag), one full line per spanned cacheline — 16x more for
// single-device faults, the overhead the paper's mapping eliminates. The
// repaired regions are immediately masked from subsequent reads.
func (c *Controller) RepairFault(f *fault.Fault) (RepairOutcome, error) {
	if f.Transient {
		return RepairOutcome{}, fmt.Errorf("core: transient faults are not repaired (ECC handles them)")
	}
	rf := c.cfg.Mode == RelaxFaultMode
	wayCap := c.cfg.MaxRepairWaysPerSet

	// Collect the new lines (dedup against lines already locked) and
	// enforce the per-set repair-way cap before allocating anything.
	var newLines []repairLine
	seen := make(map[repairLine]bool)
	setDemand := make(map[int]int)
	var reason string
	mappable := c.planner.ForEachLine(f, func(rank, bank, row, cg int, set int32, tag uint64) bool {
		l := repairLine{rank: rank, bank: bank, row: row, cg: cg, set: int(set), tag: tag}
		if seen[l] {
			return true
		}
		if w := c.llc.Probe(l.set, tag, rf); w >= 0 && c.llc.Line(l.set, w).Locked {
			return true // locked by an earlier repair
		}
		seen[l] = true
		newLines = append(newLines, l)
		setDemand[l.set]++
		if n := int(c.rfWays[l.set]) + setDemand[l.set]; n > wayCap {
			reason = fmt.Sprintf("set %d would hold %d locked repair lines, cap is %d", l.set, n, wayCap)
			return false
		}
		return true
	})
	if !mappable {
		reason = "fault needs more repair lines than the LLC holds"
	}
	if reason != "" {
		c.Stats.RepairsRejected++
		return RepairOutcome{Reason: reason}, nil
	}

	out := RepairOutcome{Accepted: true}
	for _, l := range newLines {
		payload, dues := c.repairPayload(f, l)
		out.FillDUEs += dues
		way, evicted := c.llc.Fill(l.set, l.tag, rf)
		if way < 0 {
			// Unreachable given the cap check, but fail safe.
			c.Stats.RepairsRejected++
			return out, fmt.Errorf("core: no victim available in set %d", l.set)
		}
		if evicted.Valid && evicted.Dirty && !evicted.RF {
			c.writeBack(evicted.Tag, l.set, evicted.Data)
		}
		c.llc.SetData(l.set, way, payload)
		if !c.llc.Line(l.set, way).Locked { // FreeFault may lock a cached copy
			c.llc.Lock(l.set, way)
			c.rfWays[l.set]++
		}
		out.LinesAllocated++
		c.Stats.RFLineFills++
		if rf {
			c.Stats.SubBlocksRemapped += addrmap.SubBlocksPerLine
			// Publish the repair in the faulty-bank table.
			dimm, bit := c.bankBit(dram.Location{Channel: f.Dev.Channel, Rank: l.rank, Bank: l.bank})
			c.faultyBank[dimm] |= bit
		}
	}
	c.Stats.RepairedFaults++
	return out, nil
}

// repairPayload gathers the corrected data repair line l of f holds and
// counts the fills whose DRAM read was uncorrectable (the line then holds
// best-effort data). A FreeFault line holds its own cacheline; a RelaxFault
// remap line holds the faulty device's 16 sub-blocks of the line group,
// read back-to-back over the open row (one-time fill cost).
func (c *Controller) repairPayload(f *fault.Fault, l repairLine) (payload []byte, dues int) {
	if c.cfg.Mode == FreeFaultMode {
		line, status := c.readForRepair(dram.Location{
			Channel: f.Dev.Channel, Rank: l.rank, Bank: l.bank, Row: l.row, ColBlock: l.cg,
		})
		if status == ecc.DUE {
			dues++
		}
		return dram.LineToBytes(c.cfg.Geometry, line), dues
	}
	key := addrmap.RFKey{
		Channel: f.Dev.Channel, Rank: l.rank, Device: f.Dev.Device,
		Bank: l.bank, Row: l.row, CbHi: l.cg,
	}
	payload = make([]byte, c.cfg.Geometry.LineBytes)
	for sub := 0; sub < addrmap.SubBlocksPerLine; sub++ {
		line, status := c.readForRepair(c.mapper.LocationFor(key, sub))
		if status == ecc.DUE {
			dues++
		}
		writeSubBlock(payload, sub, line[f.Dev.Device])
	}
	return payload, dues
}

// FaultyBankTableBytes returns the size of the faulty-bank table in bytes
// (Table 1: one bit per bank per DIMM).
func (c *Controller) FaultyBankTableBytes() int {
	return c.cfg.Geometry.DIMMs() * c.cfg.Geometry.Banks / 8
}

// TagExtensionBytes returns the storage added by the 1-bit-per-tag
// RelaxFault indicator (Table 1).
func (c *Controller) TagExtensionBytes() int {
	return c.cfg.LLCSets * c.cfg.LLCWays / 8
}

// CoalescerBytes returns the pre-computed bitmask storage of the data
// coalescer (Table 1: one 64B clear mask and one 64B set mask per device
// position pair, folded to 128 bytes in the paper's accounting).
func (c *Controller) CoalescerBytes() int { return 128 }

// MetadataBytes returns the total added storage (Table 1).
func (c *Controller) MetadataBytes() int {
	return c.FaultyBankTableBytes() + c.TagExtensionBytes() + c.CoalescerBytes()
}
