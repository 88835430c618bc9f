package cache

import (
	"testing"

	"relaxfault/internal/stats"
)

func mustCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	c, err := New(sets, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 64); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := New(3, 4, 64); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(4, 0, 64); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(4, 4, 0); err == nil {
		t.Error("zero line bytes accepted")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := mustCache(t, 4, 2)
	if c.Access(0, 100, false) >= 0 {
		t.Error("hit in empty cache")
	}
	way, ev := c.Fill(0, 100, false)
	if way < 0 || ev.Valid {
		t.Fatalf("fill failed: way=%d evicted=%v", way, ev.Valid)
	}
	if c.Access(0, 100, false) != way {
		t.Error("miss after fill")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustCache(t, 1, 2)
	c.Fill(0, 1, false)
	c.Fill(0, 2, false)
	// Touch tag 1 so tag 2 is LRU.
	if c.Access(0, 1, false) < 0 {
		t.Fatal("tag 1 missing")
	}
	_, ev := c.Fill(0, 3, false)
	if !ev.Valid || ev.Tag != 2 {
		t.Errorf("evicted tag %d, want 2", ev.Tag)
	}
	if c.Probe(0, 1, false) < 0 {
		t.Error("MRU line evicted")
	}
}

func TestRFNamespaceSeparation(t *testing.T) {
	c := mustCache(t, 2, 2)
	c.Fill(1, 55, false)
	c.Fill(1, 55, true)
	// Same tag in both namespaces co-resides and is found separately
	// (Figure 4: the indicator bit participates in the tag match).
	if c.Probe(1, 55, false) < 0 {
		t.Error("normal line lost")
	}
	if c.Probe(1, 55, true) < 0 {
		t.Error("RF line lost")
	}
	wNorm := c.Probe(1, 55, false)
	wRF := c.Probe(1, 55, true)
	if wNorm == wRF {
		t.Error("namespaces share a frame")
	}
	// A normal access must never hit the RF line and vice versa.
	if c.Line(1, wRF).RF == false || c.Line(1, wNorm).RF == true {
		t.Error("RF flags wrong")
	}
}

func TestLockedLinesNeverEvicted(t *testing.T) {
	c := mustCache(t, 1, 4)
	for tag := uint64(0); tag < 4; tag++ {
		w, _ := c.Fill(0, tag, false)
		if tag < 3 {
			c.Lock(0, w)
		}
	}
	if c.LockedWays(0) != 3 {
		t.Fatalf("locked ways %d", c.LockedWays(0))
	}
	// Fill far more lines than capacity; only the unlocked frame churns.
	for tag := uint64(100); tag < 200; tag++ {
		w, _ := c.Fill(0, tag, false)
		if w < 0 {
			t.Fatal("fill failed with an unlocked way present")
		}
		l := c.Line(0, w)
		if l.Locked {
			t.Fatal("locked frame reused")
		}
	}
	for tag := uint64(0); tag < 3; tag++ {
		if c.Probe(0, tag, false) < 0 {
			t.Errorf("locked tag %d evicted", tag)
		}
	}
}

func TestFillFailsWhenAllLocked(t *testing.T) {
	c := mustCache(t, 1, 2)
	for tag := uint64(0); tag < 2; tag++ {
		w, _ := c.Fill(0, tag, true)
		c.Lock(0, w)
	}
	if w, _ := c.Fill(0, 99, false); w != -1 {
		t.Errorf("fill succeeded in fully locked set (way %d)", w)
	}
}

func TestInvalidateReleasesLock(t *testing.T) {
	c := mustCache(t, 1, 2)
	w, _ := c.Fill(0, 7, true)
	c.Lock(0, w)
	c.Lock(0, w) // idempotent
	if c.LockedLines() != 1 {
		t.Fatal("lock count")
	}
	old := c.Invalidate(0, w)
	if !old.Valid || old.Tag != 7 || !old.Locked {
		t.Error("invalidate returned wrong line")
	}
	if c.LockedLines() != 0 {
		t.Error("invalidate did not release lock")
	}
	if c.Probe(0, 7, true) >= 0 {
		t.Error("line still present after invalidate")
	}
}

func TestDirtyAndWritebackAccounting(t *testing.T) {
	c := mustCache(t, 1, 1)
	w, _ := c.Fill(0, 1, false)
	c.MarkDirty(0, w)
	_, ev := c.Fill(0, 2, false)
	if !ev.Valid || !ev.Dirty || ev.Tag != 1 {
		t.Errorf("dirty eviction lost: %+v", ev)
	}
	if c.Line(0, w).Dirty {
		t.Error("refilled frame still dirty")
	}
}

func TestSetData(t *testing.T) {
	c := mustCache(t, 2, 2)
	w, _ := c.Fill(1, 9, false)
	data := make([]byte, 64)
	data[0], data[63] = 0xAB, 0xCD
	c.SetData(1, w, data)
	got := c.DataAt(1, w)
	if got[0] != 0xAB || got[63] != 0xCD {
		t.Error("data round trip failed")
	}
	// Writing again reuses the buffer.
	data[0] = 0xEE
	c.SetData(1, w, data)
	if c.DataAt(1, w)[0] != 0xEE {
		t.Error("data update failed")
	}
}

func TestLockRandomWays(t *testing.T) {
	c := mustCache(t, 8, 16)
	for set := 0; set < 8; set++ {
		if n := c.LockRandomWays(set, 4); n != 4 {
			t.Fatalf("locked %d ways", n)
		}
		if c.LockedWays(set) != 4 {
			t.Fatalf("locked ways %d", c.LockedWays(set))
		}
	}
	if c.LockedLines() != 32 {
		t.Errorf("total locked %d", c.LockedLines())
	}
	if c.CapacityBytes() != 8*16*64 {
		t.Errorf("capacity %d", c.CapacityBytes())
	}
}

// TestPropertyResidencyInvariant: after any sequence of fills and accesses,
// each (tag, rf) pair appears at most once per set and the locked count
// matches the frames' flags.
func TestPropertyResidencyInvariant(t *testing.T) {
	rng := stats.NewRNG(77)
	c := mustCache(t, 16, 4)
	for op := 0; op < 20000; op++ {
		set := rng.Intn(16)
		tag := rng.Uint64n(32)
		rf := rng.Bool(0.3)
		switch rng.Intn(4) {
		case 0:
			c.Access(set, tag, rf)
		case 1:
			if w, _ := c.Fill(set, tag, rf); w >= 0 && rf && rng.Bool(0.5) && c.LockedWays(set) < 3 {
				c.Lock(set, w)
			}
		case 2:
			if w := c.Probe(set, tag, rf); w >= 0 {
				c.MarkDirty(set, w)
			}
		case 3:
			if w := c.Probe(set, tag, rf); w >= 0 && rng.Bool(0.1) {
				c.Invalidate(set, w)
			}
		}
	}
	locked := 0
	for set := 0; set < 16; set++ {
		type key struct {
			tag uint64
			rf  bool
		}
		seen := map[key]bool{}
		for w := 0; w < 4; w++ {
			l := c.Line(set, w)
			if !l.Valid {
				if l.Locked {
					t.Fatal("invalid line locked")
				}
				continue
			}
			k := key{l.Tag, l.RF}
			if seen[k] {
				t.Fatalf("duplicate (tag,rf) in set %d", set)
			}
			seen[k] = true
			if l.Locked {
				locked++
			}
		}
	}
	if locked != c.LockedLines() {
		t.Fatalf("locked count %d, flags say %d", c.LockedLines(), locked)
	}
}
