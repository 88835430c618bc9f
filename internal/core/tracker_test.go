package core

import (
	"testing"

	"relaxfault/internal/dram"
	"relaxfault/internal/ecc"
	"relaxfault/internal/fault"
	"relaxfault/internal/stats"
)

func trackerGeom() dram.Geometry { return dram.Default8GiBNode() }

func TestTrackerThreshold(t *testing.T) {
	g := trackerGeom()
	tr := NewTracker(g, 3)
	dev := dram.DeviceCoord{Channel: 0, Rank: 0, Device: 1}
	loc := dram.Location{Bank: 1, Row: 10, ColBlock: 2}
	if _, fired := tr.Observe(dev, loc); fired {
		t.Error("fired below threshold")
	}
	if _, fired := tr.Observe(dev, loc); fired {
		t.Error("fired below threshold")
	}
	f, fired := tr.Observe(dev, loc)
	if !fired || f == nil {
		t.Fatal("did not fire at threshold")
	}
	if tr.Observations(dev) != 3 {
		t.Errorf("observations %d", tr.Observations(dev))
	}
	tr.Reset(dev)
	if tr.Observations(dev) != 0 {
		t.Error("reset failed")
	}
}

func TestTrackerInfersWordFault(t *testing.T) {
	g := trackerGeom()
	tr := NewTracker(g, 2)
	dev := dram.DeviceCoord{Device: 4}
	loc := dram.Location{Bank: 2, Row: 99, ColBlock: 7}
	tr.Observe(dev, loc)
	f, fired := tr.Observe(dev, loc)
	if !fired {
		t.Fatal("no fault inferred")
	}
	if f.Mode != fault.SingleBit {
		t.Errorf("mode %v, want bit/word", f.Mode)
	}
	if !f.Contains(2, 99, 7*8) || f.Contains(2, 99, 8*8) {
		t.Error("word extent wrong")
	}
}

func TestTrackerInfersRowFault(t *testing.T) {
	g := trackerGeom()
	tr := NewTracker(g, 2)
	dev := dram.DeviceCoord{Device: 4}
	tr.Observe(dev, dram.Location{Bank: 2, Row: 99, ColBlock: 7})
	f, fired := tr.Observe(dev, dram.Location{Bank: 2, Row: 99, ColBlock: 200})
	if !fired || f.Mode != fault.SingleRow {
		t.Fatalf("inferred %v", f.Mode)
	}
	if !f.Contains(2, 99, 0) || !f.Contains(2, 99, g.Columns-1) {
		t.Error("row extent should span all columns")
	}
	if f.Contains(2, 98, 0) {
		t.Error("row extent leaked to other rows")
	}
}

func TestTrackerInfersColumnFault(t *testing.T) {
	g := trackerGeom()
	tr := NewTracker(g, 2)
	dev := dram.DeviceCoord{Device: 2}
	tr.Observe(dev, dram.Location{Bank: 1, Row: 600, ColBlock: 5})
	f, fired := tr.Observe(dev, dram.Location{Bank: 1, Row: 700, ColBlock: 5})
	if !fired || f.Mode != fault.SingleColumn {
		t.Fatalf("inferred %v", f.Mode)
	}
	// The inferred extent covers the whole subarray's rows at that column
	// block (rows 512..1023 here).
	if !f.Contains(1, 512, 5*8) || !f.Contains(1, 1023, 5*8) {
		t.Error("column extent should cover the subarray")
	}
	if f.Contains(1, 1024, 5*8) {
		t.Error("column extent leaked past the subarray")
	}
}

func TestTrackerInfersBankFault(t *testing.T) {
	g := trackerGeom()
	tr := NewTracker(g, 3)
	dev := dram.DeviceCoord{Device: 9}
	tr.Observe(dev, dram.Location{Bank: 3, Row: 10, ColBlock: 1})
	tr.Observe(dev, dram.Location{Bank: 3, Row: 20, ColBlock: 9})
	f, fired := tr.Observe(dev, dram.Location{Bank: 3, Row: 30, ColBlock: 100})
	if !fired || f.Mode != fault.SingleBank {
		t.Fatalf("inferred %v", f.Mode)
	}
	for _, r := range []int{10, 20, 30} {
		if !f.Contains(3, r, 0) {
			t.Errorf("row %d missing from bank-cluster extent", r)
		}
	}
	if f.Contains(3, 11, 0) {
		t.Error("bank cluster covers unobserved rows")
	}
	_ = g
}

func TestTrackerInfersMultiBank(t *testing.T) {
	tr := NewTracker(trackerGeom(), 2)
	dev := dram.DeviceCoord{Device: 0}
	tr.Observe(dev, dram.Location{Bank: 1, Row: 5, ColBlock: 0})
	f, fired := tr.Observe(dev, dram.Location{Bank: 6, Row: 9, ColBlock: 3})
	if !fired || f.Mode != fault.MultiBank {
		t.Fatalf("inferred %v", f.Mode)
	}
	if !f.Contains(1, 0, 0) || !f.Contains(6, 0, 0) {
		t.Error("multi-bank extent should span observed banks")
	}
}

// TestTrackerDrivenRepairEndToEnd: inject a real fault, read until the
// tracker infers it, repair, and verify clean reads — the full hardware
// fault-management loop.
func TestTrackerDrivenRepairEndToEnd(t *testing.T) {
	c := testController(t)
	g := c.cfg.Geometry
	tr := NewTracker(g, 2)
	dev := dram.DeviceCoord{Channel: 1, Rank: 1, Device: 8}
	real := rowFaultAt(g, dev, 4, 321)
	if err := c.InjectFault(real); err != nil {
		t.Fatal(err)
	}

	var inferred *fault.Fault
	for cb := 0; cb < 8 && inferred == nil; cb++ {
		loc := dram.Location{Channel: 1, Rank: 1, Bank: 4, Row: 321, ColBlock: cb * 31 % g.ColBlocks()}
		buf := make([]byte, 64)
		fillPattern(buf, byte(cb))
		if err := c.WriteLine(c.Mapper().Encode(loc), buf); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		_, st, err := c.ReadLine(c.Mapper().Encode(loc))
		if err != nil {
			t.Fatal(err)
		}
		if st != 1 { // ecc.Corrected
			t.Fatalf("expected corrected error, got %v", st)
		}
		if f, fired := tr.Observe(dev, loc); fired {
			inferred = f
		}
	}
	if inferred == nil {
		t.Fatal("tracker never fired")
	}
	if inferred.Mode != fault.SingleRow {
		t.Fatalf("inferred %v, want single-row", inferred.Mode)
	}
	out, err := c.RepairFault(inferred)
	if err != nil || !out.Accepted {
		t.Fatalf("repair failed: %+v err=%v", out, err)
	}
	loc := dram.Location{Channel: 1, Rank: 1, Bank: 4, Row: 321, ColBlock: 0}
	buf := make([]byte, 64)
	fillPattern(buf, 99)
	if err := c.WriteLine(c.Mapper().Encode(loc), buf); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	_, st, err := c.ReadLine(c.Mapper().Encode(loc))
	if err != nil {
		t.Fatal(err)
	}
	if st != 0 { // ecc.OK
		t.Fatalf("post-repair status %v, want OK", st)
	}
}

// TestTrackerDrivenRepairSampledNodes closes the patrol -> tracker -> repair
// loop on faults sampled from the field-data model: each patrol pass flushes
// the LLC so its reads reach DRAM, corrected errors feed the tracker, and a
// firing tracker's inferred extent is repaired online. Every fault must be
// repaired at least once, and a post-repair re-read through DRAM and the
// remap merge must come back clean.
func TestTrackerDrivenRepairSampledNodes(t *testing.T) {
	model, err := fault.NewModel(fault.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(55)
	for tested := 0; tested < 6; {
		nf := model.SampleNode(rng)
		var small []*fault.Fault
		for _, f := range nf.PermanentFaults() {
			if f.Mode == fault.SingleBit || f.Mode == fault.SingleRow {
				small = append(small, f)
			}
		}
		if len(small) == 0 {
			continue
		}
		tested++
		c := testController(t)
		g := c.cfg.Geometry
		tr := NewTracker(g, 2)
		for _, f := range small {
			if err := c.InjectFault(f); err != nil {
				t.Fatal(err)
			}
		}
		// patrol reads every line of f's first extent from DRAM.
		patrol := func(f *fault.Fault, fn func(loc dram.Location, st ecc.Status)) {
			c.Flush()
			f.Extents[0].ForEachLine(g, g.ColumnsPerBlk, func(bank, row, cb int) bool {
				loc := dram.Location{Channel: f.Dev.Channel, Rank: f.Dev.Rank, Bank: bank, Row: row, ColBlock: cb}
				_, st, err := c.ReadLine(c.Mapper().Encode(loc))
				if err != nil {
					t.Fatal(err)
				}
				fn(loc, st)
				return true
			})
		}
		// A fault can need more than one inference (a two-row fault is
		// found one row at a time), so patrol past the threshold.
		repairs := make([]int, len(small))
		for pass := 0; pass < 3; pass++ {
			for i, f := range small {
				patrol(f, func(loc dram.Location, st ecc.Status) {
					if st != ecc.Corrected {
						return
					}
					inferred, fired := tr.Observe(f.Dev, loc)
					if !fired {
						return
					}
					tr.Reset(f.Dev)
					out, err := c.RepairFault(inferred)
					if err != nil {
						t.Fatal(err)
					}
					if out.Accepted {
						repairs[i]++
					}
				})
			}
		}
		for i, f := range small {
			if repairs[i] == 0 {
				t.Fatalf("node %d: %v fault on %v never repaired", tested, f.Mode, f.Dev)
			}
			patrol(f, func(loc dram.Location, st ecc.Status) {
				if st != ecc.OK {
					t.Fatalf("node %d: %v after repair reads %v", tested, loc, st)
				}
			})
		}
	}
}
