package addrmap

import (
	"testing"
	"testing/quick"

	"relaxfault/internal/dram"
	"relaxfault/internal/stats"
)

func defaultMapper(t *testing.T) *Mapper {
	t.Helper()
	m, err := New(dram.Default8GiBNode(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	g := dram.Default8GiBNode()
	if _, err := New(g, 0); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New(g, 3000); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	g.Columns = 1000
	if _, err := New(g, 8192); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestLineAddrBits(t *testing.T) {
	m := defaultMapper(t)
	// 64GiB node => 2^30 cachelines.
	if got := m.LineAddrBits(); got != 30 {
		t.Errorf("LineAddrBits = %d, want 30", got)
	}
	if got := m.Geometry().NumLineAddresses(); got != 1<<30 {
		t.Errorf("NumLineAddresses = %d, want 2^30", got)
	}
}

// TestEncodeDecodeRoundTrip is the bijectivity property of the DRAM map:
// Decode(Encode(loc)) == loc for every location, and Encode(Decode(la)) ==
// la for every line address.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	rng := stats.NewRNG(11)
	fwd := func(ch, rk, bk, row, cb uint32) bool {
		loc := dram.Location{
			Channel:  int(ch) % g.Channels,
			Rank:     int(rk) % g.DIMMsPerChan,
			Bank:     int(bk) % g.Banks,
			Row:      int(row) % g.Rows,
			ColBlock: int(cb) % g.ColBlocks(),
		}
		return m.Decode(m.Encode(loc)) == loc
	}
	if err := quick.Check(fwd, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for i := 0; i < 2000; i++ {
		la := LineAddr(rng.Uint64n(g.NumLineAddresses()))
		if got := m.Encode(m.Decode(la)); got != la {
			t.Fatalf("Encode(Decode(%#x)) = %#x", uint64(la), uint64(got))
		}
	}
}

// TestEncodeBijectionExhaustiveSmall exhaustively verifies bijectivity on a
// scaled-down geometry.
func TestEncodeBijectionExhaustiveSmall(t *testing.T) {
	g := dram.Geometry{
		Channels: 2, DIMMsPerChan: 2, DataDevices: 16, CheckDevices: 2,
		Banks: 4, Rows: 64, Columns: 128, LineBytes: 64, ColumnsPerBlk: 8,
	}
	m, err := New(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[LineAddr]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.DIMMsPerChan; rk++ {
			for bk := 0; bk < g.Banks; bk++ {
				for row := 0; row < g.Rows; row++ {
					for cb := 0; cb < g.ColBlocks(); cb++ {
						loc := dram.Location{Channel: ch, Rank: rk, Bank: bk, Row: row, ColBlock: cb}
						la := m.Encode(loc)
						if seen[la] {
							t.Fatalf("line address %#x hit twice (at %v)", uint64(la), loc)
						}
						seen[la] = true
						if m.Decode(la) != loc {
							t.Fatalf("round trip failed at %v", loc)
						}
					}
				}
			}
		}
	}
	if uint64(len(seen)) != g.NumLineAddresses() {
		t.Fatalf("covered %d of %d line addresses", len(seen), g.NumLineAddresses())
	}
}

// TestCacheIndexInvertible checks that (set, tag) uniquely identifies a
// line address under both plain and hashed indexing.
func TestCacheIndexInvertible(t *testing.T) {
	m := defaultMapper(t)
	rng := stats.NewRNG(12)
	for _, hash := range []bool{false, true} {
		seen := make(map[[2]uint64]LineAddr)
		for i := 0; i < 5000; i++ {
			la := LineAddr(rng.Uint64n(m.Geometry().NumLineAddresses()))
			set, tag := m.CacheIndex(la, hash)
			key := [2]uint64{uint64(set), tag}
			if prev, dup := seen[key]; dup && prev != la {
				t.Fatalf("hash=%v: (set,tag) collision between %#x and %#x", hash, uint64(prev), uint64(la))
			}
			seen[key] = la
		}
	}
}

// TestRowFaultSpreadsAcrossSets: the repair-relevant property of the DRAM +
// LLC mappings. A single device row (256 column blocks) must land in 256
// distinct sets both un-hashed and hashed — this is what lets FreeFault
// repair row faults at 1 way (Figure 8's un-hashed 74% includes them).
func TestRowFaultSpreadsAcrossSets(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	for _, hash := range []bool{false, true} {
		sets := make(map[int]bool)
		for cb := 0; cb < g.ColBlocks(); cb++ {
			loc := dram.Location{Channel: 1, Rank: 1, Bank: 3, Row: 777, ColBlock: cb}
			set, _ := m.CacheIndex(m.Encode(loc), hash)
			sets[set] = true
		}
		if len(sets) != g.ColBlocks() {
			t.Errorf("hash=%v: row fault covers %d distinct sets, want %d", hash, len(sets), g.ColBlocks())
		}
	}
}

// TestColumnFaultSetBehaviour: without hashing, all rows of a column fault
// collide in one set (row bits sit above the set index); XOR hashing
// spreads them. This asymmetry is exactly the FreeFault 74% -> 84% gain of
// Figure 8.
func TestColumnFaultSetBehaviour(t *testing.T) {
	m := defaultMapper(t)
	setsPlain := make(map[int]bool)
	setsHash := make(map[int]bool)
	for r := 0; r < dram.SubarrayRows; r++ {
		loc := dram.Location{Channel: 0, Rank: 0, Bank: 2, Row: 512 + r, ColBlock: 40}
		sp, _ := m.CacheIndex(m.Encode(loc), false)
		sh, _ := m.CacheIndex(m.Encode(loc), true)
		setsPlain[sp] = true
		setsHash[sh] = true
	}
	if len(setsPlain) != 1 {
		t.Errorf("un-hashed column fault spans %d sets, want 1", len(setsPlain))
	}
	if len(setsHash) != dram.SubarrayRows {
		t.Errorf("hashed column fault spans %d sets, want %d", len(setsHash), dram.SubarrayRows)
	}
}

// TestRFKeyRoundTrip checks RFKeyFor/LocationFor and the tag packing.
func TestRFKeyRoundTrip(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	prop := func(ch, rk, dev, bk, row, cb uint32) bool {
		loc := dram.Location{
			Channel:  int(ch) % g.Channels,
			Rank:     int(rk) % g.DIMMsPerChan,
			Bank:     int(bk) % g.Banks,
			Row:      int(row) % g.Rows,
			ColBlock: int(cb) % g.ColBlocks(),
		}
		d := int(dev) % g.DevicesPerDIMM()
		key, sub := m.RFKeyFor(loc, d)
		if m.LocationFor(key, sub) != loc {
			return false
		}
		target := m.RFIndex(key)
		return m.RFKeyFromTarget(target) == key
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestRFIndexInjective: distinct keys must never share (set, tag).
func TestRFIndexInjective(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	rng := stats.NewRNG(13)
	seen := make(map[RFTarget]RFKey)
	for i := 0; i < 20000; i++ {
		key := RFKey{
			Channel: rng.Intn(g.Channels),
			Rank:    rng.Intn(g.DIMMsPerChan),
			Device:  rng.Intn(g.DevicesPerDIMM()),
			Bank:    rng.Intn(g.Banks),
			Row:     rng.Intn(g.Rows),
			CbHi:    rng.Intn(g.ColBlocks() / SubBlocksPerLine),
		}
		tgt := m.RFIndex(key)
		if prev, dup := seen[tgt]; dup && prev != key {
			t.Fatalf("RFIndex collision: %+v and %+v -> %+v", prev, key, tgt)
		}
		seen[tgt] = key
	}
}

// TestRFRowFaultCoalescing: one device row needs exactly 16 remap lines
// (2048 columns / 128 columns per line), all in distinct sets — the core
// coalescing claim of Section 3.2.
func TestRFRowFaultCoalescing(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	sets := make(map[int]bool)
	lines := make(map[RFTarget]bool)
	for cb := 0; cb < g.ColBlocks(); cb++ {
		loc := dram.Location{Channel: 2, Rank: 0, Bank: 5, Row: 4242, ColBlock: cb}
		key, _ := m.RFKeyFor(loc, 7)
		tgt := m.RFIndex(key)
		lines[tgt] = true
		sets[tgt.Set] = true
	}
	if len(lines) != 16 {
		t.Errorf("row fault coalesces to %d remap lines, want 16", len(lines))
	}
	if len(sets) != 16 {
		t.Errorf("row fault remap lines span %d sets, want 16", len(sets))
	}
}

// TestRFColumnFaultDistinctSets: a full-subarray column fault (512
// consecutive rows) must land in 512 distinct sets so a 1-way repair budget
// suffices — the property that makes RelaxFault's coverage insensitive to
// LLC hashing (Figure 8).
func TestRFColumnFaultDistinctSets(t *testing.T) {
	m := defaultMapper(t)
	sets := make(map[int]bool)
	base := 3 * dram.SubarrayRows
	for r := 0; r < dram.SubarrayRows; r++ {
		loc := dram.Location{Channel: 0, Rank: 1, Bank: 6, Row: base + r, ColBlock: 88}
		key, _ := m.RFKeyFor(loc, 3)
		tgt := m.RFIndex(key)
		sets[tgt.Set] = true
	}
	if len(sets) < dram.SubarrayRows*95/100 {
		t.Errorf("column fault remap lines span only %d sets, want ~%d", len(sets), dram.SubarrayRows)
	}
}

// TestSubBlockConstants ties the remap-line geometry together.
func TestSubBlockConstants(t *testing.T) {
	if SubBlocksPerLine != 16 {
		t.Errorf("SubBlocksPerLine = %d, want 16", SubBlocksPerLine)
	}
	if 1<<SubBlockBits != SubBlocksPerLine {
		t.Errorf("SubBlockBits inconsistent")
	}
}

// TestBankXORHashPermutes: the bank hash must be a permutation of banks for
// each row and preserve all other coordinates.
func TestBankXORHashPermutes(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	for row := 0; row < 16; row++ {
		seen := make(map[int]bool)
		for b := 0; b < g.Banks; b++ {
			loc := dram.Location{Channel: 1, Rank: 0, Bank: b, Row: row, ColBlock: 9}
			h := m.BankXORHash(loc)
			if h.Channel != loc.Channel || h.Rank != loc.Rank || h.Row != loc.Row || h.ColBlock != loc.ColBlock {
				t.Fatalf("bank hash changed non-bank fields: %v -> %v", loc, h)
			}
			seen[h.Bank] = true
		}
		if len(seen) != g.Banks {
			t.Errorf("row %d: bank hash not a permutation (%d distinct)", row, len(seen))
		}
	}
}

// TestFreeFaultTargetMatchesCacheIndex: FreeFault placement is by
// definition the canonical placement of the line's own address.
func TestFreeFaultTargetMatchesCacheIndex(t *testing.T) {
	m := defaultMapper(t)
	loc := dram.Location{Channel: 3, Rank: 1, Bank: 7, Row: 65535, ColBlock: 255}
	for _, hash := range []bool{false, true} {
		s1, t1 := m.FreeFaultTarget(loc, hash)
		s2, t2 := m.CacheIndex(m.Encode(loc), hash)
		if s1 != s2 || t1 != t2 {
			t.Errorf("hash=%v: FreeFaultTarget (%d,%d) != CacheIndex (%d,%d)", hash, s1, t1, s2, t2)
		}
	}
}

// TestRFIndexNoSpreadProperties: the ablated placement keeps the same tag
// (so injectivity is preserved) but exposes the raw fault-local set index.
func TestRFIndexNoSpreadProperties(t *testing.T) {
	m := defaultMapper(t)
	g := m.Geometry()
	rng := stats.NewRNG(77)
	for i := 0; i < 5000; i++ {
		key := RFKey{
			Channel: rng.Intn(g.Channels),
			Rank:    rng.Intn(g.DIMMsPerChan),
			Device:  rng.Intn(g.DevicesPerDIMM()),
			Bank:    rng.Intn(g.Banks),
			Row:     rng.Intn(g.Rows),
			CbHi:    rng.Intn(g.ColBlocks() / SubBlocksPerLine),
		}
		full := m.RFIndex(key)
		raw := m.RFIndexNoSpread(key)
		if raw.Tag != full.Tag {
			t.Fatal("ablated placement changed the tag")
		}
		want := (key.Row&511)<<4 | key.CbHi&15
		if raw.Set != want {
			t.Fatalf("no-spread set %d, want %d", raw.Set, want)
		}
	}
	// Two different devices, same (row, cbHi): distinct sets WITH spread,
	// same set WITHOUT.
	a := RFKey{Device: 1, Bank: 2, Row: 100, CbHi: 3}
	b := RFKey{Device: 7, Bank: 5, Row: 100, CbHi: 3}
	if m.RFIndexNoSpread(a).Set != m.RFIndexNoSpread(b).Set {
		t.Error("no-spread placements should collide")
	}
	if m.RFIndex(a).Set == m.RFIndex(b).Set {
		t.Error("spread placements should not collide here")
	}
}
