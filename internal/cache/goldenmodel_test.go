package cache

import (
	"testing"

	"relaxfault/internal/stats"
)

// refCache is a straightforward reference model of a set-associative LRU
// cache with locking and payloads, one frame struct per (set, way),
// against which the cache implementation is checked operation by
// operation.
type refCache struct {
	sets  [][]refLine
	clock uint64
}

type refLine struct {
	valid  bool
	tag    uint64
	rf     bool
	locked bool
	dirty  bool
	lru    uint64
	data   byte // payload stamp; 0 while the frame holds no payload
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: make([][]refLine, sets)}
	for s := range r.sets {
		r.sets[s] = make([]refLine, ways)
	}
	return r
}

func (r *refCache) probe(set int, tag uint64, rf bool) int {
	for i, l := range r.sets[set] {
		if l.valid && l.tag == tag && l.rf == rf {
			return i
		}
	}
	return -1
}

func (r *refCache) touch(set, way int) {
	r.clock++
	r.sets[set][way].lru = r.clock
}

func (r *refCache) access(set int, tag uint64, rf bool) int {
	w := r.probe(set, tag, rf)
	if w >= 0 {
		r.touch(set, w)
	}
	return w
}

// fill returns the way used and the evicted frame (valid false when
// nothing was evicted), like Cache.Fill.
func (r *refCache) fill(set int, tag uint64, rf bool) (int, refLine) {
	if w := r.probe(set, tag, rf); w >= 0 {
		r.touch(set, w)
		return w, refLine{}
	}
	victim := -1
	var oldest uint64
	for i, l := range r.sets[set] {
		if !l.valid {
			victim = i
			break
		}
		if l.locked {
			continue
		}
		if victim < 0 || l.lru < oldest {
			victim, oldest = i, l.lru
		}
	}
	if victim < 0 {
		return -1, refLine{}
	}
	evicted := r.sets[set][victim]
	r.sets[set][victim] = refLine{valid: true, tag: tag, rf: rf}
	r.touch(set, victim)
	return victim, evicted
}

func (r *refCache) lockedLines() int {
	n := 0
	for _, s := range r.sets {
		for _, l := range s {
			if l.locked {
				n++
			}
		}
	}
	return n
}

// payloadStamp returns the stamp a payload was written with (every byte
// holds it), or 0 for no payload.
func payloadStamp(t *testing.T, step int, data []byte) byte {
	t.Helper()
	if data == nil {
		return 0
	}
	for _, b := range data {
		if b != data[0] {
			t.Fatalf("step %d: torn payload %v", step, data)
		}
	}
	return data[0]
}

// sameLine reports whether a cache line copy matches a reference frame:
// validity and, for valid frames, tag, namespace, lock, dirtiness and
// payload.
func sameLine(t *testing.T, step int, l Line, r refLine) bool {
	if l.Valid != r.valid {
		return false
	}
	if !r.valid {
		return !l.Locked
	}
	return l.Tag == r.tag && l.RF == r.rf && l.Locked == r.locked && l.Dirty == r.dirty &&
		payloadStamp(t, step, l.Data) == r.data
}

// TestGoldenModelEquivalence drives the cache and the reference model with
// the same random operation stream over several sets and requires the
// same answers from every call — the way each Probe, Access and Fill
// returns, and the frame a Fill evicts or an Invalidate clears — and the
// same state in every frame after every step. The victim order (an invalid
// frame first, then the oldest unlocked one) decides which way a fill
// takes, and the perf model's output depends on it.
func TestGoldenModelEquivalence(t *testing.T) {
	const sets, ways = 4, 4
	c, err := New(sets, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(sets, ways)
	rng := stats.NewRNG(99)
	payload := make([]byte, 64)
	stamp := byte(0)
	nextPayload := func() []byte {
		stamp = stamp%255 + 1
		for i := range payload {
			payload[i] = stamp
		}
		return payload
	}

	compare := func(step int) {
		for set := 0; set < sets; set++ {
			for w := 0; w < ways; w++ {
				if l, r := c.Line(set, w), ref.sets[set][w]; !sameLine(t, step, l, r) {
					t.Fatalf("step %d: set %d way %d is %+v, reference %+v", step, set, w, l, r)
				}
			}
		}
		if got, want := c.LockedLines(), ref.lockedLines(); got != want {
			t.Fatalf("step %d: %d locked lines, reference %d", step, got, want)
		}
	}

	evictions, keptPayloads := 0, 0
	for step := 0; step < 30000; step++ {
		set := rng.Intn(sets)
		tag := rng.Uint64n(8)
		rf := rng.Bool(0.3)
		switch rng.Intn(5) {
		case 0: // access
			if wc, wr := c.Access(set, tag, rf), ref.access(set, tag, rf); wc != wr {
				t.Fatalf("step %d: Access returned way %d, reference %d", step, wc, wr)
			}
		case 1: // fill, then maybe write the new frame's payload
			wc, ev := c.Fill(set, tag, rf)
			wr, rev := ref.fill(set, tag, rf)
			if wc != wr {
				t.Fatalf("step %d: Fill returned way %d, reference %d", step, wc, wr)
			}
			if !sameLine(t, step, ev, rev) {
				t.Fatalf("step %d: Fill evicted %+v, reference %+v", step, ev, rev)
			}
			if ev.Valid {
				evictions++
			}
			if wc >= 0 && rng.Bool(0.5) {
				c.SetData(set, wc, nextPayload())
				ref.sets[set][wr].data = stamp
				// The evicted copy keeps the old payload: the frame's next
				// SetData writes a fresh buffer, not the one Fill handed out.
				if got := payloadStamp(t, step, ev.Data); got != rev.data {
					t.Fatalf("step %d: evicted payload %d became %d after SetData on its frame", step, rev.data, got)
				}
				if rev.data != 0 {
					keptPayloads++
				}
			}
		case 2: // write: dirty and maybe a new payload
			wc, wr := c.Probe(set, tag, rf), ref.probe(set, tag, rf)
			if wc != wr {
				t.Fatalf("step %d: Probe returned way %d, reference %d", step, wc, wr)
			}
			if wc >= 0 {
				c.MarkDirty(set, wc)
				ref.sets[set][wr].dirty = true
				if rng.Bool(0.5) {
					c.SetData(set, wc, nextPayload())
					ref.sets[set][wr].data = stamp
				}
			}
		case 3: // lock (cap locks at ways-1 per set so fills keep working)
			wc, wr := c.Probe(set, tag, rf), ref.probe(set, tag, rf)
			if wc != wr {
				t.Fatalf("step %d: Probe returned way %d, reference %d", step, wc, wr)
			}
			if wc >= 0 && rng.Bool(0.5) && c.LockedWays(set) < ways-1 {
				c.Lock(set, wc)
				ref.sets[set][wr].locked = true
			}
		case 4: // invalidate, which also releases a lock
			wc, wr := c.Probe(set, tag, rf), ref.probe(set, tag, rf)
			if wc != wr {
				t.Fatalf("step %d: Probe returned way %d, reference %d", step, wc, wr)
			}
			if wc >= 0 && rng.Bool(0.2) {
				old := c.Invalidate(set, wc)
				if !sameLine(t, step, old, ref.sets[set][wr]) {
					t.Fatalf("step %d: Invalidate returned %+v, reference %+v", step, old, ref.sets[set][wr])
				}
				ref.sets[set][wr] = refLine{}
			}
		}
		compare(step)
	}
	if evictions == 0 || keptPayloads == 0 {
		t.Fatalf("stream exercised %d evictions, %d kept payloads", evictions, keptPayloads)
	}
}
