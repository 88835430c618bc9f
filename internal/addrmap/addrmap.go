// Package addrmap implements the three address mappings the RelaxFault
// paper reasons about (Figure 7):
//
//  1. the physical-address -> DRAM-location bit swizzle a performance-
//     oriented memory controller uses (Figure 7a, Nehalem-style),
//  2. the canonical LLC set/tag mapping of a physical address, with an
//     optional XOR-folded set-index hash (Figure 7b),
//  3. the RelaxFault repair mapping, which addresses the LLC by DRAM
//     coordinates plus a device ID so that all bits a single faulty device
//     serves coalesce into few cachelines (Figure 7c).
//
// All mappings are exact bit-slicing functions and are invertible; the
// package is pure arithmetic with no state beyond the configuration.
package addrmap

import (
	"fmt"

	"relaxfault/internal/dram"
)

// LineAddr is a node-local cacheline address: the physical address divided
// by the cacheline size.
type LineAddr uint64

// Mapper performs address translation for one node configuration.
type Mapper struct {
	geo  dram.Geometry
	bits dram.FieldBits

	// Field shifts within a line address, LSB upward:
	// channel | colblock-low | bank | colblock-high | rank | row.
	chShift, cbLoShift, bankShift, cbHiShift, rankShift, rowShift uint
	cbLoBits, cbHiBits                                            uint

	setBits uint // log2 of LLC set count

	// fold[i][b] is the XOR-fold contribution of byte b at byte position i
	// of a tag. The set-index fold is XOR-linear in the tag bits, so the
	// fold of any tag is the XOR of eight table reads; the tables replace
	// the data-dependent shift loop on the cache-index hot path.
	fold [8][256]uint32
}

// SubBlocksPerLine is how many per-device 4-byte sub-blocks a RelaxFault
// remap cacheline holds: 64B line / 4B sub-block.
const SubBlocksPerLine = dram.CachelineBytes / dram.DeviceBytesPerLine // 16

// SubBlockBits is log2(SubBlocksPerLine): the number of column-block bits
// folded into the extended RelaxFault line offset.
const SubBlockBits = 4

// New creates a mapper for the given geometry and LLC set count (which must
// be a power of two, e.g. 8192 for an 8MiB 16-way 64B LLC).
func New(g dram.Geometry, llcSets int) (*Mapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if llcSets <= 0 || llcSets&(llcSets-1) != 0 {
		return nil, fmt.Errorf("addrmap: llcSets must be a positive power of two, got %d", llcSets)
	}
	b := g.Bits()
	m := &Mapper{geo: g, bits: b}
	// Split the column-block field so that up to 5 column bits interleave
	// below the bank bits (preserving row-buffer locality for consecutive
	// lines) and the remainder sits just above, below the rank bit. This
	// keeps every column bit inside a 13-bit set index for the default
	// geometry, which is what makes un-hashed FreeFault able to spread a
	// single-row fault across sets (Section 3.2 discussion).
	m.cbLoBits = b.ColBlock
	if m.cbLoBits > 5 {
		m.cbLoBits = 5
	}
	m.cbHiBits = b.ColBlock - m.cbLoBits

	m.chShift = 0
	m.cbLoShift = m.chShift + b.Channel
	m.bankShift = m.cbLoShift + m.cbLoBits
	m.cbHiShift = m.bankShift + b.Bank
	m.rankShift = m.cbHiShift + m.cbHiBits
	m.rowShift = m.rankShift + b.Rank

	for 1<<m.setBits < llcSets {
		m.setBits++
	}
	// The fold is XOR-linear, so each table is its eight single-bit
	// entries and XORs of them: v's entry is its lowest set bit's entry
	// XOR the entry of v without that bit, which a smaller v already has.
	for i := 0; i < 8; i++ {
		t := &m.fold[i]
		for b := 0; b < 8; b++ {
			t[1<<b] = uint32(m.foldRef(uint64(1) << (8*i + b)))
		}
		for v := 1; v < 256; v++ {
			low := v & -v
			t[v] = t[low] ^ t[v^low]
		}
	}
	return m, nil
}

// foldRef is the straightforward shift-and-XOR fold of a tag into a
// set-index-sized value. It is the reference the lookup tables are built
// from (and property-tested against); FoldTag is the fast path.
func (m *Mapper) foldRef(tag uint64) int {
	if m.setBits == 0 {
		return 0
	}
	set := 0
	for rest := tag; rest != 0; rest >>= m.setBits {
		set ^= int(rest & mask(m.setBits))
	}
	return set
}

// FoldTag XOR-folds every set-index-sized chunk of tag into one set-index
// value. It equals foldRef but costs eight table reads regardless of tag
// width or set count.
func (m *Mapper) FoldTag(tag uint64) int {
	f := &m.fold
	return int(f[0][byte(tag)] ^ f[1][byte(tag>>8)] ^ f[2][byte(tag>>16)] ^
		f[3][byte(tag>>24)] ^ f[4][byte(tag>>32)] ^ f[5][byte(tag>>40)] ^
		f[6][byte(tag>>48)] ^ f[7][byte(tag>>56)])
}

// Geometry returns the mapper's DRAM geometry.
func (m *Mapper) Geometry() dram.Geometry { return m.geo }

// LineAddrBits returns the number of significant bits in a line address.
func (m *Mapper) LineAddrBits() uint { return m.rowShift + m.bits.Row }

// SetBits returns log2 of the LLC set count.
func (m *Mapper) SetBits() uint { return m.setBits }

// mask returns a value with the low n bits set.
func mask(n uint) uint64 { return (1 << n) - 1 }

// Encode maps a DRAM location to its cacheline address (Figure 7a inverse
// direction: this is the mapping the memory controller implements).
func (m *Mapper) Encode(loc dram.Location) LineAddr {
	cb := uint64(loc.ColBlock)
	la := uint64(loc.Channel) << m.chShift
	la |= (cb & mask(m.cbLoBits)) << m.cbLoShift
	la |= uint64(loc.Bank) << m.bankShift
	la |= (cb >> m.cbLoBits) << m.cbHiShift
	la |= uint64(loc.Rank) << m.rankShift
	la |= uint64(loc.Row) << m.rowShift
	return LineAddr(la)
}

// Decode maps a cacheline address back to its DRAM location.
func (m *Mapper) Decode(la LineAddr) dram.Location {
	v := uint64(la)
	cb := (v >> m.cbLoShift) & mask(m.cbLoBits)
	cb |= ((v >> m.cbHiShift) & mask(m.cbHiBits)) << m.cbLoBits
	return dram.Location{
		Channel:  int((v >> m.chShift) & mask(m.bits.Channel)),
		Rank:     int((v >> m.rankShift) & mask(m.bits.Rank)),
		Bank:     int((v >> m.bankShift) & mask(m.bits.Bank)),
		Row:      int((v >> m.rowShift) & mask(m.bits.Row)),
		ColBlock: int(cb),
	}
}

// CacheIndex returns the canonical LLC (set, tag) of a line address
// (Figure 7b). With hash=true the set index is XOR-folded with every
// higher-order set-index-sized chunk of the address, the classic
// conflict-reducing hash the paper evaluates.
func (m *Mapper) CacheIndex(la LineAddr, hash bool) (set int, tag uint64) {
	v := uint64(la)
	set = int(v & mask(m.setBits))
	tag = v >> m.setBits
	if hash {
		set ^= m.FoldTag(tag)
	}
	return set, tag
}

// RFKey identifies one RelaxFault remap cacheline: all data a single device
// serves for 16 consecutive column blocks of one row.
type RFKey struct {
	Channel int
	Rank    int
	Device  int // device within the DIMM, including check devices
	Bank    int
	Row     int
	CbHi    int // ColBlock >> SubBlockBits
}

// RFTarget is the LLC placement of a remap line: the set index, the
// repair-mode tag (unique per RFKey within a set), and nothing else —
// RelaxFault lines are distinguished from normal lines by the per-line
// indicator bit, so tags live in a separate namespace.
type RFTarget struct {
	Set int
	Tag uint64
}

// RFKeyFor returns the remap key and sub-block index for device dev's
// contribution to the cacheline at loc.
func (m *Mapper) RFKeyFor(loc dram.Location, dev int) (RFKey, int) {
	return RFKey{
		Channel: loc.Channel,
		Rank:    loc.Rank,
		Device:  dev,
		Bank:    loc.Bank,
		Row:     loc.Row,
		CbHi:    loc.ColBlock >> SubBlockBits,
	}, loc.ColBlock & (SubBlocksPerLine - 1)
}

// LocationFor inverts RFKeyFor: the DRAM location whose data occupies the
// given sub-block of the remap line identified by key.
func (m *Mapper) LocationFor(key RFKey, subBlock int) dram.Location {
	return dram.Location{
		Channel:  key.Channel,
		Rank:     key.Rank,
		Bank:     key.Bank,
		Row:      key.Row,
		ColBlock: key.CbHi<<SubBlockBits | (subBlock & (SubBlocksPerLine - 1)),
	}
}

// RFIndexNoSpread is the ablated repair placement: the set index is only
// the fault-local bits (low row bits and high column-block bits) without
// the identity fold, so faults on different devices, banks, and channels
// that share row positions collide in the same sets. It exists to quantify
// how much of RelaxFault's coverage comes from the deliberate spreading of
// Section 3.2.
func (m *Mapper) RFIndexNoSpread(key RFKey) RFTarget {
	full := m.RFIndex(key)
	rowLo := uint64(key.Row) & mask(m.RFLowRowBits())
	base := rowLo<<SubBlockBits | uint64(key.CbHi)&mask(SubBlockBits)
	full.Set = int(base & mask(m.setBits))
	return full
}

// RFIndex computes the LLC placement of a remap line (Figure 7c). The set
// index is built from the coordinates that vary *within* a single fault —
// low row bits and high column-block bits — so that the lines repairing one
// faulty row, column, or row-cluster land in distinct sets by construction;
// the device/bank/rank/channel identity and high row bits are XOR-folded on
// top to spread repairs of different structures across the cache. The tag
// packs the full key, so the mapping is injective.
func (m *Mapper) RFIndex(key RFKey) RFTarget {
	b := m.bits
	rowLoBits := m.RFLowRowBits()
	rowLo := uint64(key.Row) & mask(rowLoBits)
	base := rowLo<<SubBlockBits | uint64(key.CbHi)&mask(SubBlockBits)

	// Spread key: identity bits that are constant within one fault.
	spread := uint64(key.Device)
	spread = spread<<b.Bank | uint64(key.Bank)
	spread = spread<<b.Rank | uint64(key.Rank)
	spread = spread<<b.Channel | uint64(key.Channel)
	spread = spread<<(b.Row-rowLoBits) | uint64(key.Row)>>rowLoBits
	if m.bits.ColBlock > SubBlockBits {
		spread = spread<<(b.ColBlock-SubBlockBits) | uint64(key.CbHi)>>SubBlockBits
	}
	// Multiply-fold the spread key into set-index width (Fibonacci hashing
	// keeps nearby identities well separated).
	h := spread * 0x9e3779b97f4a7c15
	set := int((base ^ (h >> (64 - m.setBits))) & mask(m.setBits))

	// Tag: pack the complete key; any set-width prefix could be dropped in
	// hardware, keeping the full key here preserves injectivity trivially.
	tag := uint64(key.Device)
	tag = tag<<b.Channel | uint64(key.Channel)
	tag = tag<<b.Rank | uint64(key.Rank)
	tag = tag<<b.Bank | uint64(key.Bank)
	tag = tag<<b.Row | uint64(key.Row)
	tag = tag<<m.cbHiTagBits() | uint64(key.CbHi)
	return RFTarget{Set: set, Tag: tag}
}

// RFLowRowBits returns how many low row bits RFIndex places in the set
// index directly: the set-index width less SubBlockBits (9 for 8192 sets),
// capped at the row width (an LLC of fewer than 16 sets wraps the
// difference, so it takes every row bit). The set is XOR-linear in these
// bits and in CbHi's low SubBlockBits bits; the key's other bits enter it
// only through the multiplicative spread.
func (m *Mapper) RFLowRowBits() uint {
	n := m.setBits - SubBlockBits
	if n > m.bits.Row {
		n = m.bits.Row
	}
	return n
}

// cbHiTagBits returns the width of the CbHi field (zero for geometries with
// fewer column blocks than sub-blocks per line, where CbHi is always 0).
func (m *Mapper) cbHiTagBits() uint {
	if m.bits.ColBlock <= SubBlockBits {
		return 0
	}
	return m.bits.ColBlock - SubBlockBits
}

// RFKeyFromTarget inverts RFIndex's tag packing.
func (m *Mapper) RFKeyFromTarget(t RFTarget) RFKey {
	b := m.bits
	v := t.Tag
	cbHiBits := m.cbHiTagBits()
	key := RFKey{}
	key.CbHi = int(v & mask(cbHiBits))
	v >>= cbHiBits
	key.Row = int(v & mask(b.Row))
	v >>= b.Row
	key.Bank = int(v & mask(b.Bank))
	v >>= b.Bank
	key.Rank = int(v & mask(b.Rank))
	v >>= b.Rank
	key.Channel = int(v & mask(b.Channel))
	v >>= b.Channel
	key.Device = int(v)
	return key
}

// FreeFaultTarget returns the LLC placement FreeFault uses for the line at
// loc: simply the canonical (optionally hashed) placement of the line's own
// physical address, because FreeFault locks the line in place.
func (m *Mapper) FreeFaultTarget(loc dram.Location, hash bool) (set int, tag uint64) {
	return m.CacheIndex(m.Encode(loc), hash)
}

// BankXORHash applies permutation-based page interleaving (Zhang et al.):
// the bank index is XORed with the low row bits, which the performance
// simulator's memory controller uses to spread row-conflict streams.
func (m *Mapper) BankXORHash(loc dram.Location) dram.Location {
	loc.Bank ^= loc.Row & (m.geo.Banks - 1)
	return loc
}
