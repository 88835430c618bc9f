package perf

import (
	"fmt"
	"math/bits"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/cache"
	"relaxfault/internal/dram"
)

// timingCache wraps cache.Cache with plain mask-and-shift indexing for the
// private levels (the LLC uses the node mapper's hashed indexing instead);
// cache.New admits only power-of-two set counts.
type timingCache struct {
	c    *cache.Cache
	mask uint64 // sets-1
	bits uint   // log2(sets)
}

func newTimingCache(sets, ways int) (*timingCache, error) {
	c, err := cache.New(sets, ways, 64)
	if err != nil {
		return nil, err
	}
	return &timingCache{c: c, mask: uint64(sets - 1), bits: uint(bits.TrailingZeros(uint(sets)))}, nil
}

func (t *timingCache) index(la addrmap.LineAddr) (int, uint64) {
	return int(uint64(la) & t.mask), uint64(la) >> t.bits
}

// access returns hit; on miss the line is NOT installed (callers install
// after resolving the lower level).
func (t *timingCache) access(la addrmap.LineAddr, write bool) bool {
	set, tag := t.index(la)
	way := t.c.Access(set, tag, false)
	if way < 0 {
		return false
	}
	if write {
		t.c.MarkDirty(set, way)
	}
	return true
}

// install fills the line and returns the evicted victim's line address and
// dirtiness when a valid line was displaced.
func (t *timingCache) install(la addrmap.LineAddr, dirty bool) (addrmap.LineAddr, bool, bool) {
	set, tag := t.index(la)
	way, evicted := t.c.Fill(set, tag, false)
	if way < 0 {
		return 0, false, false
	}
	if dirty {
		t.c.MarkDirty(set, way)
	}
	if evicted.Valid {
		return addrmap.LineAddr(evicted.Tag<<t.bits | uint64(set)), evicted.Dirty, true
	}
	return 0, false, false
}

// MemSystem is the shared memory hierarchy below the private L2s: the LLC
// and the memory channels.
type MemSystem struct {
	mapper   *addrmap.Mapper
	llc      *cache.Cache
	channels []*Channel
	cpuPerMC int64
	pool     reqPool

	LLCHits      uint64
	LLCMisses    uint64
	LLCEvictions uint64
	Prefetches   uint64
}

// MemConfig configures the shared hierarchy. The LLC always hashes its set
// index with the XOR fold, and the memory controller always interleaves
// banks by permutation (Table 3).
type MemConfig struct {
	Geometry dram.Geometry
	LLCSets  int
	LLCWays  int
	// Timing is the channel timing spec (DDR3Timing in DefaultMemConfig,
	// the technology's timing in a lowered scenario); a zero spec fails
	// Validate.
	Timing TimingSpec
}

// DefaultMemConfig matches Table 3 (2 channels, 8MiB 16-way LLC,
// DDR3-1600).
func DefaultMemConfig() MemConfig {
	return MemConfig{
		Geometry: dram.PerfNode(),
		LLCSets:  8192,
		LLCWays:  16,
		Timing:   DDR3Timing(),
	}
}

// Validate reports the first configuration error, if any.
func (cfg MemConfig) Validate() error {
	if err := cfg.Geometry.Validate(); err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	if cfg.LLCSets <= 0 || cfg.LLCSets&(cfg.LLCSets-1) != 0 {
		return fmt.Errorf("perf: LLC sets %d must be a positive power of two", cfg.LLCSets)
	}
	if cfg.LLCWays <= 0 {
		return fmt.Errorf("perf: LLC ways %d must be positive", cfg.LLCWays)
	}
	if err := cfg.Timing.Validate(); err != nil {
		return err
	}
	if cfg.Timing.Grouped() && cfg.Geometry.Banks%cfg.Timing.BankGroups != 0 {
		return fmt.Errorf("perf: %d bank groups do not divide %d banks",
			cfg.Timing.BankGroups, cfg.Geometry.Banks)
	}
	return nil
}

// NewMemSystem builds the shared hierarchy: an empty LLC, idle channels and
// zero counters.
func NewMemSystem(cfg MemConfig) (*MemSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mapper, err := addrmap.New(cfg.Geometry, cfg.LLCSets)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLCSets, cfg.LLCWays, 64)
	if err != nil {
		return nil, err
	}
	ms := &MemSystem{
		mapper:   mapper,
		llc:      llc,
		cpuPerMC: cfg.Timing.CPUPerMC,
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		ch := NewChannelSpec(cfg.Geometry.DIMMsPerChan, cfg.Geometry.Banks, cfg.Timing)
		ch.pool = &ms.pool
		ms.channels = append(ms.channels, ch)
	}
	return ms, nil
}

// reset returns the memory system to the state NewMemSystem leaves it in,
// in place: the LLC emptied, every channel reset and the counters zero.
// The address mapper and the request free list are kept; a pooled request
// is zeroed when get hands it out again.
func (m *MemSystem) reset() {
	m.llc.Reset()
	for _, ch := range m.channels {
		ch.reset()
	}
	m.LLCHits, m.LLCMisses, m.LLCEvictions, m.Prefetches = 0, 0, 0, 0
}

// LLC exposes the shared cache (for way locking).
func (m *MemSystem) LLC() *cache.Cache { return m.llc }

// Channels exposes the memory channels.
func (m *MemSystem) Channels() []*Channel { return m.channels }

// LockWays dedicates n ways of every LLC set to repair (the paper's
// pessimistic way-granularity capacity experiment).
func (m *MemSystem) LockWays(n int) {
	for set := 0; set < m.llc.Sets(); set++ {
		m.llc.LockRandomWays(set, n)
	}
}

// LockRandomLines locks individual lines totalling the given bytes, at most
// one per set until sets are exhausted (the 100KiB RelaxFault experiment:
// the repair mapping never put more than one way per set in the Monte Carlo
// trials).
func (m *MemSystem) LockRandomLines(bytes int64, seed uint64) {
	lines := int(bytes / 64)
	sets := m.llc.Sets()
	state := seed | 1
	perWave := 1
	for locked := 0; locked < lines; {
		// Pseudo-random set order, one way per wave.
		for i := 0; i < sets && locked < lines; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			set := int((state >> 33) % uint64(sets))
			if m.llc.LockedWays(set) < perWave {
				if m.llc.LockRandomWays(set, 1) == 1 {
					locked++
				}
			}
		}
		perWave++
		if perWave > m.llc.Ways() {
			return
		}
	}
}

// Access performs an LLC lookup for the line. On a hit it returns
// (true, nil); on a miss it returns (false, request) where the request has
// been enqueued on the owning channel, plus any writeback request generated
// by the eviction.
func (m *MemSystem) Access(la addrmap.LineAddr, write bool, nowCPU int64) (bool, *Request) {
	set, tag := m.mapper.CacheIndex(la, true)
	if way := m.llc.Access(set, tag, false); way >= 0 {
		m.LLCHits++
		if write {
			m.llc.MarkDirty(set, way)
		}
		return true, nil
	}
	m.LLCMisses++
	req := m.miss(la, set, tag, write, nowCPU)
	req.retained = true
	return false, req
}

// Prefetch installs a line speculatively: on an LLC hit it does nothing;
// on a miss it enqueues the DRAM fill and installs the line, charging the
// traffic to the prefetch counters instead of demand misses. The returned
// request (nil on hit) lets callers bound outstanding prefetches.
func (m *MemSystem) Prefetch(la addrmap.LineAddr, nowCPU int64) *Request {
	set, tag := m.mapper.CacheIndex(la, true)
	if m.llc.Probe(set, tag, false) >= 0 {
		return nil
	}
	m.Prefetches++
	return m.miss(la, set, tag, false, nowCPU) // not retained: callers only nil-check
}

// miss serves a line that missed the LLC at (set, tag): it enqueues the
// DRAM fill, installs the line at once (state-wise; dirty for a write),
// and enqueues the writeback of a dirty victim. It returns the fill.
func (m *MemSystem) miss(la addrmap.LineAddr, set int, tag uint64, write bool, nowCPU int64) *Request {
	req := m.enqueue(la, false, nowCPU)
	way, evicted := m.llc.Fill(set, tag, false)
	if way < 0 {
		return req
	}
	if write {
		m.llc.MarkDirty(set, way)
	}
	if evicted.Valid {
		m.LLCEvictions++
		if evicted.Dirty {
			m.enqueue(m.lineAddrFromIndex(set, evicted.Tag), true, nowCPU)
		}
	}
	return req
}

// enqueue queues a DRAM read or write of the line on its channel, at the
// location the controller's bank-hashed decode gives it.
func (m *MemSystem) enqueue(la addrmap.LineAddr, write bool, nowCPU int64) *Request {
	loc := m.mapper.BankXORHash(m.mapper.Decode(la))
	req := m.pool.get()
	req.Loc, req.Write, req.Arrival = loc, write, nowCPU
	m.channels[loc.Channel].Enqueue(req)
	return req
}

// Release hands a request obtained from Access back for recycling when the
// caller does not intend to track its completion; the owning channel frees
// it once scheduled. Safe to call with nil.
func (m *MemSystem) Release(r *Request) {
	if r != nil {
		r.retained = false
	}
}

// lineAddrFromIndex reconstructs a line address from LLC (set, tag).
func (m *MemSystem) lineAddrFromIndex(set int, tag uint64) addrmap.LineAddr {
	return addrmap.LineAddr(tag<<m.mapper.SetBits() | (uint64(set) ^ uint64(m.mapper.FoldTag(tag))))
}

// tick advances every channel by one scheduling decision at memory-clock
// cycle nowTck (CPU cycle nowTck·cpuPerMC).
func (m *MemSystem) tick(nowTck int64) {
	for _, ch := range m.channels {
		ch.Tick(nowTck)
	}
}

// Busy reports whether any channel has queued work.
func (m *MemSystem) Busy() bool {
	for _, ch := range m.channels {
		if ch.Busy() {
			return true
		}
	}
	return false
}

// TotalOps sums DRAM command counts over channels.
func (m *MemSystem) TotalOps() OpCounts {
	var o OpCounts
	for _, ch := range m.channels {
		o.Add(ch.Ops)
	}
	return o
}
