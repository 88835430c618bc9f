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

// TestFillEdgeCases pins the set states a single-pass Fill can get wrong:
// the resident line must be found wherever it sits, whatever frames come
// before it, and only then may an invalid or least recently used unlocked
// frame be taken. Each case builds one 4-way set in the cache and in the
// reference model, fills, and checks the way, the evicted line and every
// frame afterwards.
func TestFillEdgeCases(t *testing.T) {
	type op struct {
		kind string // "fill", "access", "lock" or "invalidate"
		tag  uint64 // fill and access
		rf   bool   // fill and access
		way  int    // lock and invalidate
	}
	fill := func(tag uint64, rf bool) op { return op{kind: "fill", tag: tag, rf: rf} }
	full := []op{fill(1, false), fill(2, false), fill(3, false), fill(4, false)}
	with := func(ops ...op) []op { return append(append([]op(nil), full...), ops...) }
	cases := []struct {
		name    string
		setup   []op
		tag     uint64
		rf      bool
		way     int    // the way Fill must return
		evicted uint64 // the evicted tag, 0 for none
	}{
		{"resident behind an invalid frame", with(op{kind: "invalidate", way: 0}), 2, false, 1, 0},
		{"resident behind two invalid frames", with(op{kind: "invalidate", way: 1}, op{kind: "invalidate", way: 0}), 3, false, 2, 0},
		{"locked resident in a fully locked set", with(op{kind: "lock", way: 0}, op{kind: "lock", way: 1},
			op{kind: "lock", way: 2}, op{kind: "lock", way: 3}), 4, false, 3, 0},
		{"fully locked set", with(op{kind: "lock", way: 0}, op{kind: "lock", way: 1},
			op{kind: "lock", way: 2}, op{kind: "lock", way: 3}), 9, false, -1, 0},
		{"same tag in the other namespace, room left", []op{fill(5, false)}, 5, true, 1, 0},
		{"same tag as RF line, room left", []op{fill(5, true)}, 5, false, 1, 0},
		{"same tag in the other namespace is the LRU victim", full, 1, true, 0, 1},
		{"first invalid frame beats older valid frames", with(op{kind: "invalidate", way: 3}, op{kind: "invalidate", way: 2}), 9, false, 2, 0},
		{"LRU skips older locked frames", with(op{kind: "lock", way: 0}, op{kind: "lock", way: 1}), 9, false, 2, 3},
		{"LRU among locked frames after a touch", with(op{kind: "lock", way: 0}, op{kind: "lock", way: 1},
			op{kind: "access", tag: 3}), 9, false, 3, 4},
		{"LRU frame after the touched ones", with(op{kind: "access", tag: 1}, op{kind: "access", tag: 2},
			op{kind: "lock", way: 2}), 9, false, 3, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const ways = 4
			c, err := New(1, ways, 64)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(1, ways)
			for _, o := range tc.setup {
				switch o.kind {
				case "fill":
					c.Fill(0, o.tag, o.rf)
					ref.fill(0, o.tag, o.rf)
				case "access":
					c.Access(0, o.tag, o.rf)
					ref.access(0, o.tag, o.rf)
				case "lock":
					c.Lock(0, o.way)
					ref.sets[0][o.way].locked = true
				case "invalidate":
					c.Invalidate(0, o.way)
					ref.sets[0][o.way] = refLine{}
				}
			}
			way, ev := c.Fill(0, tc.tag, tc.rf)
			rway, rev := ref.fill(0, tc.tag, tc.rf)
			if way != tc.way || rway != tc.way {
				t.Fatalf("Fill took way %d (reference %d), want %d", way, rway, tc.way)
			}
			if ev.Valid != (tc.evicted != 0) || (ev.Valid && ev.Tag != tc.evicted) {
				t.Fatalf("Fill evicted %+v, want tag %d", ev, tc.evicted)
			}
			if !sameLine(t, 0, ev, rev) {
				t.Fatalf("Fill evicted %+v, reference %+v", ev, rev)
			}
			for w := 0; w < ways; w++ {
				if l, r := c.Line(0, w), ref.sets[0][w]; !sameLine(t, 0, l, r) {
					t.Fatalf("way %d is %+v, reference %+v", w, l, r)
				}
			}
			if tc.way >= 0 && c.Probe(0, tc.tag, tc.rf) != tc.way {
				t.Fatalf("(tag %d, rf %v) not found in way %d after the fill", tc.tag, tc.rf, tc.way)
			}
		})
	}
}
