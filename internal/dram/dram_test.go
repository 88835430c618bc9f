package dram

import (
	"testing"
	"testing/quick"

	"relaxfault/internal/stats"
)

func TestDefaultGeometryValid(t *testing.T) {
	g := Default8GiBNode()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.DIMMs() != 8 {
		t.Errorf("DIMMs = %d, want 8", g.DIMMs())
	}
	if g.DevicesPerDIMM() != 18 {
		t.Errorf("devices per DIMM = %d, want 18", g.DevicesPerDIMM())
	}
	if g.DevicesPerNode() != 144 {
		t.Errorf("devices per node = %d, want 144", g.DevicesPerNode())
	}
	if got := g.DIMMDataBytes(); got != 8<<30 {
		t.Errorf("DIMM capacity = %d, want 8GiB", got)
	}
	if got := g.NodeDataBytes(); got != 64<<30 {
		t.Errorf("node capacity = %d, want 64GiB", got)
	}
	if g.ColBlocks() != 256 {
		t.Errorf("col blocks = %d, want 256", g.ColBlocks())
	}
	if g.LinesPerBank() != 256*65536 {
		t.Errorf("lines per bank = %d", g.LinesPerBank())
	}
	// One device contributes 4 bytes per 64B line.
	if DeviceBytesPerLine != 4 {
		t.Errorf("DeviceBytesPerLine = %d", DeviceBytesPerLine)
	}
}

func TestPerfNodeValid(t *testing.T) {
	if err := PerfNode().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidation(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.Channels = 3 },
		func(g *Geometry) { g.Banks = 0 },
		func(g *Geometry) { g.Rows = 100 },
		func(g *Geometry) { g.CheckDevices = -1 },
		func(g *Geometry) { g.LineBytes = 32 }, // inconsistent with devices
		func(g *Geometry) { g.ColumnsPerBlk = 16 },
	}
	for i, mutate := range cases {
		g := Default8GiBNode()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestFieldBits(t *testing.T) {
	b := Default8GiBNode().Bits()
	if b.Channel != 2 || b.Rank != 1 || b.Bank != 3 || b.Row != 16 || b.ColBlock != 8 {
		t.Errorf("bits = %+v", b)
	}
	if b.LineAddrBits() != 30 {
		t.Errorf("line addr bits = %d", b.LineAddrBits())
	}
}

func TestLocationValidity(t *testing.T) {
	g := Default8GiBNode()
	ok := Location{Channel: 3, Rank: 1, Bank: 7, Row: 65535, ColBlock: 255}
	if !ok.Valid(g) {
		t.Error("valid location rejected")
	}
	for _, bad := range []Location{
		{Channel: 4}, {Rank: 2}, {Bank: 8}, {Row: 65536}, {ColBlock: 256}, {Channel: -1},
	} {
		if bad.Valid(g) {
			t.Errorf("invalid location accepted: %v", bad)
		}
	}
	if ok.DIMMIndex(g) != 3*2+1 {
		t.Errorf("DIMM index = %d", ok.DIMMIndex(g))
	}
}

func TestArrayReadWriteRoundTrip(t *testing.T) {
	g := Default8GiBNode()
	a, err := NewArray(g)
	if err != nil {
		t.Fatal(err)
	}
	loc := Location{Channel: 1, Rank: 0, Bank: 2, Row: 77, ColBlock: 9}
	line := make(Line, g.DevicesPerDIMM())
	for d := range line {
		line[d] = SubBlock(0x11111111 * uint32(d+1))
	}
	if err := a.Write(loc, line); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(loc)
	if err != nil {
		t.Fatal(err)
	}
	for d := range line {
		if got[d] != line[d] {
			t.Fatalf("device %d mismatch", d)
		}
	}
	// Unwritten locations read zero.
	other, err := a.Read(Location{Channel: 0, Rank: 1, Bank: 0, Row: 0, ColBlock: 0})
	if err != nil {
		t.Fatal(err)
	}
	for d := range other {
		if other[d] != 0 {
			t.Fatal("unwritten line not zero")
		}
	}
}

func TestArrayBoundsChecks(t *testing.T) {
	g := Default8GiBNode()
	a, _ := NewArray(g)
	bad := Location{Channel: 9}
	if err := a.Write(bad, make(Line, g.DevicesPerDIMM())); err == nil {
		t.Error("out-of-range write accepted")
	}
	if _, err := a.Read(bad); err == nil {
		t.Error("out-of-range read accepted")
	}
	loc := Location{}
	if err := a.Write(loc, make(Line, 3)); err == nil {
		t.Error("short line accepted")
	}
	if err := a.InjectFault(nil); err == nil {
		t.Error("nil fault accepted")
	}
	if err := a.InjectFault(&StuckFault{Dev: DeviceCoord{Device: 99}, Covers: func(int, int, int) bool { return true }}); err == nil {
		t.Error("out-of-range fault device accepted")
	}
}

func TestStuckFaultCorruptsCoveredColumnsOnly(t *testing.T) {
	g := Default8GiBNode()
	a, _ := NewArray(g)
	loc := Location{Channel: 0, Rank: 0, Bank: 1, Row: 5, ColBlock: 3}
	line := make(Line, g.DevicesPerDIMM())
	for d := range line {
		line[d] = 0x22222222
	}
	if err := a.Write(loc, line); err != nil {
		t.Fatal(err)
	}
	// Fault covers columns [24, 27] = the first 4 columns of block 3 on
	// device 6 only.
	dev := DeviceCoord{Channel: 0, Rank: 0, Device: 6}
	err := a.InjectFault(&StuckFault{
		Dev:      dev,
		StuckVal: 0xF,
		Covers: func(bank, row, col int) bool {
			return bank == 1 && row == 5 && col >= 24 && col <= 27
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Read(loc)
	if err != nil {
		t.Fatal(err)
	}
	// Columns 24..27 are burst positions 0..3 of block 3: low 16 bits
	// become 0xFFFF.
	if got[6] != 0x2222FFFF {
		t.Errorf("device 6 = %#x, want 0x2222FFFF", uint32(got[6]))
	}
	for d := range got {
		if d != 6 && got[d] != 0x22222222 {
			t.Errorf("device %d corrupted: %#x", d, uint32(got[d]))
		}
	}
	// Other locations unaffected.
	clean, _ := a.Read(Location{Channel: 0, Rank: 0, Bank: 1, Row: 5, ColBlock: 4})
	if clean[6] != 0 {
		t.Error("fault leaked to other column block")
	}
	if other, _ := a.Read(Location{Channel: 0, Rank: 0, Bank: 1, Row: 6, ColBlock: 3}); other[6] != 0 {
		t.Error("fault leaked to other row")
	}
}

func TestFaultCorruptionIsRetroactiveAndOnRead(t *testing.T) {
	g := Default8GiBNode()
	a, _ := NewArray(g)
	loc := Location{Channel: 2, Rank: 1, Bank: 0, Row: 42, ColBlock: 0}
	line := make(Line, g.DevicesPerDIMM())
	line[0] = 0xAAAAAAAA
	_ = a.Write(loc, line)
	f := &StuckFault{
		Dev:      DeviceCoord{Channel: 2, Rank: 1, Device: 0},
		StuckVal: 0x0,
		Covers:   func(bank, row, col int) bool { return bank == 0 && row == 42 },
	}
	_ = a.InjectFault(f)
	got, _ := a.Read(loc)
	if got[0] != 0 {
		t.Errorf("retroactive corruption failed: %#x", uint32(got[0]))
	}
	// Writes to faulty cells are lost (stored, but reads keep stuck value).
	line[0] = 0xBBBBBBBB
	_ = a.Write(loc, line)
	got, _ = a.Read(loc)
	if got[0] != 0 {
		t.Errorf("write to faulty cells visible: %#x", uint32(got[0]))
	}
}

// TestLineBytesRoundTrip is the property LineToBytes/BytesToLine are
// inverses on data devices.
func TestLineBytesRoundTrip(t *testing.T) {
	g := Default8GiBNode()
	rng := stats.NewRNG(3)
	prop := func() bool {
		line := make(Line, g.DevicesPerDIMM())
		for d := 0; d < g.DataDevices; d++ {
			line[d] = SubBlock(rng.Uint32())
		}
		bytes := LineToBytes(g, line)
		back, err := BytesToLine(g, bytes)
		if err != nil {
			return false
		}
		for d := 0; d < g.DataDevices; d++ {
			if back[d] != line[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if _, err := BytesToLine(g, make([]byte, 10)); err == nil {
		t.Error("short byte buffer accepted")
	}
}

func TestCoordStrings(t *testing.T) {
	l := Location{Channel: 1, Rank: 0, Bank: 2, Row: 3, ColBlock: 4}
	if l.String() == "" {
		t.Error("empty Location string")
	}
	d := DeviceCoord{Channel: 1, Rank: 0, Device: 17}
	if d.String() == "" {
		t.Error("empty DeviceCoord string")
	}
	g := Default8GiBNode()
	if !d.IsCheck(g) {
		t.Error("device 17 should be a check device")
	}
	if (DeviceCoord{Device: 15}).IsCheck(g) {
		t.Error("device 15 should be a data device")
	}
	if d.DIMMIndex(g) != 2 {
		t.Errorf("device DIMM index %d", d.DIMMIndex(g))
	}
}
