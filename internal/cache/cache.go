// Package cache models the set-associative caches of the evaluated
// processor. The last-level cache carries the RelaxFault extensions from
// Section 3.1 of the paper: a one-bit-per-tag RelaxFault indicator that
// places remap lines in a separate tag namespace, and line locking so that
// repair lines are never evicted by normal traffic.
package cache

import "fmt"

// Line is the state of one cache line frame.
type Line struct {
	Valid  bool
	Tag    uint64
	RF     bool // RelaxFault indicator bit (tag-extension bit, Figure 4)
	Locked bool // locked lines are ineligible for eviction
	Dirty  bool
	Data   []byte // optional payload; nil when the cache is used purely for timing
	lru    uint64 // last-touch stamp; larger = more recent
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Cache is a single-level set-associative cache with LRU replacement.
// It is not safe for concurrent use.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	lines     []Line // sets*ways, row-major by set
	clock     uint64
	locked    int // total locked lines
	Stats     Stats
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
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lines:     make([]Line, sets*ways),
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// CapacityBytes returns the total data capacity.
func (c *Cache) CapacityBytes() int { return c.sets * c.ways * c.lineBytes }

// LockedLines returns the number of currently locked lines.
func (c *Cache) LockedLines() int { return c.locked }

// line returns the frame at (set, way).
func (c *Cache) line(set, way int) *Line { return &c.lines[set*c.ways+way] }

// Line returns a copy of the frame at (set, way) for inspection.
func (c *Cache) Line(set, way int) Line { return *c.line(set, way) }

// Probe looks for (tag, rf) in the set without updating LRU state or
// statistics. It returns the way index, or -1 on miss. The rf flag selects
// the tag namespace: a normal lookup never hits a RelaxFault line and vice
// versa (Figure 4's match behaviour).
func (c *Cache) Probe(set int, tag uint64, rf bool) int {
	for w := 0; w < c.ways; w++ {
		l := c.line(set, w)
		if l.Valid && l.Tag == tag && l.RF == rf {
			return w
		}
	}
	return -1
}

// Access performs a full lookup: on hit it refreshes LRU and returns the
// way; on miss it returns -1. Statistics are updated either way.
func (c *Cache) Access(set int, tag uint64, rf bool) int {
	w := c.Probe(set, tag, rf)
	if w < 0 {
		c.Stats.Misses++
		return -1
	}
	c.Stats.Hits++
	c.Touch(set, w)
	return w
}

// Touch marks (set, way) as most recently used.
func (c *Cache) Touch(set, way int) {
	c.clock++
	c.line(set, way).lru = c.clock
}

// MarkDirty sets the dirty bit of (set, way).
func (c *Cache) MarkDirty(set, way int) { c.line(set, way).Dirty = true }

// Victim selects the replacement victim in the set: an invalid frame if one
// exists, otherwise the least recently used unlocked frame. It returns -1
// when every frame is locked.
func (c *Cache) Victim(set int) int {
	victim := -1
	var oldest uint64
	for w := 0; w < c.ways; w++ {
		l := c.line(set, w)
		if !l.Valid {
			return w
		}
		if l.Locked {
			continue
		}
		if victim < 0 || l.lru < oldest {
			victim, oldest = w, l.lru
		}
	}
	return victim
}

// Fill installs (tag, rf) into the set, evicting the LRU unlocked frame if
// needed. It returns the way used and a copy of the evicted line (Valid is
// false if nothing was evicted). Filling an already-resident line refreshes
// it in place, so a set never holds duplicate (tag, rf) pairs. Fill fails
// (way == -1) only when every frame in the set is locked.
func (c *Cache) Fill(set int, tag uint64, rf bool) (way int, evicted Line) {
	if w := c.Probe(set, tag, rf); w >= 0 {
		c.Touch(set, w)
		return w, Line{}
	}
	w := c.Victim(set)
	if w < 0 {
		return -1, Line{}
	}
	l := c.line(set, w)
	evicted = *l
	if evicted.Valid {
		c.Stats.Evictions++
		if evicted.Dirty {
			c.Stats.Writebacks++
		}
	}
	*l = Line{Valid: true, Tag: tag, RF: rf}
	c.Touch(set, w)
	return w, evicted
}

// Lock pins the frame at (set, way) so it can never be chosen as a victim,
// adjusting the locked-line count. Locking an already-locked line is a
// no-op.
func (c *Cache) Lock(set, way int) {
	l := c.line(set, way)
	if !l.Locked {
		l.Locked = true
		c.locked++
	}
}

// Unlock releases the frame at (set, way).
func (c *Cache) Unlock(set, way int) {
	l := c.line(set, way)
	if l.Locked {
		l.Locked = false
		c.locked--
	}
}

// LockedWays returns how many frames in the set are locked.
func (c *Cache) LockedWays(set int) int {
	n := 0
	for w := 0; w < c.ways; w++ {
		if c.line(set, w).Locked {
			n++
		}
	}
	return n
}

// SetData attaches a payload to (set, way), allocating lazily.
func (c *Cache) SetData(set, way int, data []byte) {
	l := c.line(set, way)
	if l.Data == nil {
		l.Data = make([]byte, c.lineBytes)
	}
	copy(l.Data, data)
}

// DataAt returns the payload of (set, way); it may be nil for timing-only
// caches. The returned slice aliases the cache's storage.
func (c *Cache) DataAt(set, way int) []byte { return c.line(set, way).Data }

// Invalidate clears the frame at (set, way) and returns its prior contents.
func (c *Cache) Invalidate(set, way int) Line {
	l := c.line(set, way)
	old := *l
	if old.Locked {
		c.locked--
	}
	*l = Line{}
	return old
}

// LockRandomWays locks n distinct not-yet-locked frames in the given set
// (used by the performance experiments that dedicate whole ways to repair).
// It returns how many frames were actually locked.
func (c *Cache) LockRandomWays(set, n int) int {
	locked := 0
	for w := 0; w < c.ways && locked < n; w++ {
		l := c.line(set, w)
		if !l.Locked {
			// Mark the frame valid so it occupies capacity, and lock it.
			if !l.Valid {
				l.Valid = true
				l.RF = true
				l.Tag = ^uint64(0) - uint64(set)
			}
			c.Lock(set, w)
			locked++
		}
	}
	return locked
}
