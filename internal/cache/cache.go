// Package cache models the set-associative caches of the evaluated
// processor. The last-level cache carries the RelaxFault extensions from
// Section 3.1 of the paper: a one-bit-per-tag RelaxFault indicator that
// places remap lines in a separate tag namespace, and line locking so that
// repair lines are never evicted by normal traffic.
package cache

import "fmt"

// Line is a copy of one cache line frame's state.
type Line struct {
	Valid  bool
	Tag    uint64
	RF     bool // RelaxFault indicator bit (tag-extension bit, Figure 4)
	Locked bool // locked lines are ineligible for eviction
	Dirty  bool
	Data   []byte // optional payload; nil when the cache is used purely for timing
}

// Frame state bits.
const (
	stValid uint8 = 1 << iota
	stRF
	stLocked
	stDirty
)

// Cache is a single-level set-associative cache with LRU replacement.
// It is not safe for concurrent use.
//
// The frames are kept column-wise, row-major by set: a tag row that Probe
// scans, a state byte and an LRU stamp per frame — 17 bytes, none of them
// pointers, so the garbage collector never scans a timing cache. Payloads
// live in a side table the first SetData allocates.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	tags      []uint64
	state     []uint8
	lru       []uint64 // last-touch stamps; larger = more recent
	data      [][]byte // nil until the first SetData
	clock     uint64
	locked    int // total locked lines
}

// New creates a cache with the given organisation. sets must be a power of
// two and ways >= 1.
func New(sets, ways, lineBytes int) (*Cache, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets must be a positive power of two, got %d", sets)
	}
	if ways < 1 {
		return nil, fmt.Errorf("cache: ways must be >= 1, got %d", ways)
	}
	if lineBytes <= 0 {
		return nil, fmt.Errorf("cache: lineBytes must be positive, got %d", lineBytes)
	}
	n := sets * ways
	c := &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		tags:      make([]uint64, n),
		state:     make([]uint8, n),
		lru:       make([]uint64, n),
	}
	c.Reset()
	return c, nil
}

// Reset empties the cache in place, keeping its frame columns: every frame
// invalid, unlocked and clean with a zero tag and stamp, no payloads, and
// the LRU clock at zero. New leaves a cache in this state.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.state)
	clear(c.lru)
	c.data = nil
	c.clock, c.locked = 0, 0
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// CapacityBytes returns the total data capacity.
func (c *Cache) CapacityBytes() int { return c.sets * c.ways * c.lineBytes }

// LockedLines returns the number of currently locked lines.
func (c *Cache) LockedLines() int { return c.locked }

// frame returns the index of (set, way) in the frame columns.
func (c *Cache) frame(set, way int) int { return set*c.ways + way }

// Line returns a copy of the frame at (set, way) for inspection.
func (c *Cache) Line(set, way int) Line { return c.lineAt(c.frame(set, way)) }

// lineAt returns a copy of frame i.
func (c *Cache) lineAt(i int) Line {
	s := c.state[i]
	l := Line{Valid: s&stValid != 0, Tag: c.tags[i], RF: s&stRF != 0, Locked: s&stLocked != 0, Dirty: s&stDirty != 0}
	if c.data != nil {
		l.Data = c.data[i]
	}
	return l
}

// Probe looks for (tag, rf) in the set without updating LRU state. It
// returns the way index, or -1 on miss. The rf flag selects the tag
// namespace: a normal lookup never hits a RelaxFault line and vice versa
// (Figure 4's match behaviour).
func (c *Cache) Probe(set int, tag uint64, rf bool) int {
	want := stValid
	if rf {
		want |= stRF
	}
	base := c.frame(set, 0)
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag && c.state[base+w]&(stValid|stRF) == want {
			return w
		}
	}
	return -1
}

// Access performs a full lookup: on hit it refreshes LRU and returns the
// way; on miss it returns -1.
func (c *Cache) Access(set int, tag uint64, rf bool) int {
	w := c.Probe(set, tag, rf)
	if w >= 0 {
		c.Touch(set, w)
	}
	return w
}

// Touch marks (set, way) as most recently used.
func (c *Cache) Touch(set, way int) {
	c.clock++
	c.lru[c.frame(set, way)] = c.clock
}

// MarkDirty sets the dirty bit of (set, way).
func (c *Cache) MarkDirty(set, way int) { c.state[c.frame(set, way)] |= stDirty }

// Fill installs (tag, rf) into the set, evicting the LRU unlocked frame if
// needed. It returns the way used and a copy of the evicted line (Valid is
// false if nothing was evicted); the copy takes over the frame's payload
// buffer, so the frame's next SetData writes a fresh one. Filling an
// already-resident line refreshes it in place, so a set never holds
// duplicate (tag, rf) pairs. Fill fails (way == -1) only when every frame
// in the set is locked.
//
// One pass over the set both looks for the resident line and picks the
// victim: the first invalid frame, else the least recently used unlocked
// one.
func (c *Cache) Fill(set int, tag uint64, rf bool) (way int, evicted Line) {
	want := stValid
	if rf {
		want |= stRF
	}
	base := c.frame(set, 0)
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	victim, invalid := -1, false
	var oldest uint64
	for w, s := range c.state[base : base+c.ways] {
		switch {
		case s&stValid == 0:
			if !invalid {
				victim, invalid = w, true
			}
		case tags[w] == tag && s&(stValid|stRF) == want:
			c.Touch(set, w)
			return w, Line{}
		case invalid || s&stLocked != 0:
			// An invalid frame is already the victim, or this one is pinned.
		case victim < 0 || lru[w] < oldest:
			victim, oldest = w, lru[w]
		}
	}
	if victim < 0 {
		return -1, Line{}
	}
	i := base + victim
	if !invalid {
		s := c.state[i]
		evicted = Line{Valid: true, Tag: tags[victim], RF: s&stRF != 0, Dirty: s&stDirty != 0}
	}
	if c.data != nil {
		evicted.Data, c.data[i] = c.data[i], nil
	}
	tags[victim] = tag
	c.state[i] = want
	c.Touch(set, victim)
	return victim, evicted
}

// Lock pins the frame at (set, way) so it can never be chosen as a victim,
// adjusting the locked-line count. Locking an already-locked line is a
// no-op.
func (c *Cache) Lock(set, way int) {
	i := c.frame(set, way)
	if c.state[i]&stLocked == 0 {
		c.state[i] |= stLocked
		c.locked++
	}
}

// LockedWays returns how many frames in the set are locked.
func (c *Cache) LockedWays(set int) int {
	n := 0
	base := c.frame(set, 0)
	for _, s := range c.state[base : base+c.ways] {
		if s&stLocked != 0 {
			n++
		}
	}
	return n
}

// SetData attaches a payload to (set, way), allocating lazily.
func (c *Cache) SetData(set, way int, data []byte) {
	if c.data == nil {
		c.data = make([][]byte, len(c.tags))
	}
	i := c.frame(set, way)
	if c.data[i] == nil {
		c.data[i] = make([]byte, c.lineBytes)
	}
	copy(c.data[i], data)
}

// DataAt returns the payload of (set, way); it may be nil for timing-only
// caches. The returned slice aliases the cache's storage.
func (c *Cache) DataAt(set, way int) []byte {
	if c.data == nil {
		return nil
	}
	return c.data[c.frame(set, way)]
}

// Invalidate clears the frame at (set, way) and returns its prior contents.
func (c *Cache) Invalidate(set, way int) Line {
	i := c.frame(set, way)
	old := c.lineAt(i)
	c.tags[i], c.state[i], c.lru[i] = 0, 0, 0
	if c.data != nil {
		c.data[i] = nil
	}
	if old.Locked {
		c.locked--
	}
	return old
}

// LockRandomWays locks n distinct not-yet-locked frames in the given set
// (used by the performance experiments that dedicate whole ways to repair).
// It returns how many frames were actually locked.
func (c *Cache) LockRandomWays(set, n int) int {
	locked := 0
	for w := 0; w < c.ways && locked < n; w++ {
		i := c.frame(set, w)
		if c.state[i]&stLocked == 0 {
			// Mark the frame valid so it occupies capacity, and lock it.
			if c.state[i]&stValid == 0 {
				c.state[i] |= stValid | stRF
				c.tags[i] = ^uint64(0) - uint64(set)
			}
			c.Lock(set, w)
			locked++
		}
	}
	return locked
}
