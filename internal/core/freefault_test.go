package core

import (
	"bytes"
	"testing"

	"relaxfault/internal/dram"
	"relaxfault/internal/ecc"
)

func freeFaultController(t *testing.T) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = FreeFaultMode
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFreeFaultModeMasksRowFault(t *testing.T) {
	c := freeFaultController(t)
	g := c.cfg.Geometry
	dev := dram.DeviceCoord{Channel: 0, Rank: 0, Device: 3}
	bank, row := 2, 555
	loc := dram.Location{Channel: 0, Rank: 0, Bank: bank, Row: row, ColBlock: 99}
	la := c.Mapper().Encode(loc)

	buf := make([]byte, 64)
	fillPattern(buf, 77)
	if err := c.WriteLine(la, buf); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	f := rowFaultAt(g, dev, bank, row)
	if err := c.InjectFault(f); err != nil {
		t.Fatal(err)
	}
	out, err := c.RepairFault(f)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("repair rejected: %s", out.Reason)
	}
	// FreeFault locks one line per spanned cacheline: 256 for a full
	// device row — 16x RelaxFault's footprint.
	if out.LinesAllocated != 256 {
		t.Fatalf("FreeFault locked %d lines, want 256", out.LinesAllocated)
	}
	got, st, err := c.ReadLine(la)
	if err != nil {
		t.Fatal(err)
	}
	if st != ecc.OK {
		t.Fatalf("status %v after FreeFault repair", st)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data mismatch after FreeFault repair")
	}
	// Writes keep hitting the locked line and survive a flush (locked
	// lines are never evicted, so the dirty copy IS the data).
	fillPattern(buf, 140)
	if err := c.WriteLine(la, buf); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	got, st, _ = c.ReadLine(la)
	if st != ecc.OK || !bytes.Equal(got, buf) {
		t.Fatal("write-after-repair lost under FreeFault")
	}
}

func TestFreeFaultVsRelaxFaultFootprint(t *testing.T) {
	g := dram.Default8GiBNode()
	dev := dram.DeviceCoord{Channel: 1, Rank: 0, Device: 9}
	f := rowFaultAt(g, dev, 5, 4096)

	rfCfg := DefaultConfig()
	rf, err := New(rfCfg)
	if err != nil {
		t.Fatal(err)
	}
	ffCfg := DefaultConfig()
	ffCfg.Mode = FreeFaultMode
	ffCfg.MaxRepairWaysPerSet = 16
	ff, err := New(ffCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.InjectFault(f); err != nil {
		t.Fatal(err)
	}
	if err := ff.InjectFault(f); err != nil {
		t.Fatal(err)
	}
	or, err := rf.RepairFault(f)
	if err != nil || !or.Accepted {
		t.Fatalf("rf: %+v err=%v", or, err)
	}
	of, err := ff.RepairFault(f)
	if err != nil || !of.Accepted {
		t.Fatalf("ff: %+v err=%v", of, err)
	}
	if of.LinesAllocated != 16*or.LinesAllocated {
		t.Errorf("footprint ratio %d/%d, want 16x", of.LinesAllocated, or.LinesAllocated)
	}
}
