package perf

import (
	"fmt"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/cache"
	"relaxfault/internal/dram"
)

// timingCache wraps cache.Cache with simple modulo indexing for the private
// levels (the LLC uses the node mapper's hashed indexing instead). For the
// usual power-of-two set counts the modulo/divide pair reduces to mask and
// shift, which matters on a lookup made for every instruction of the trace.
type timingCache struct {
	c    *cache.Cache
	sets uint64
	mask uint64 // sets-1 when sets is a power of two
	bits uint   // log2(sets) when pow2
	pow2 bool
}

func newTimingCache(sets, ways int) (*timingCache, error) {
	c, err := cache.New(sets, ways, 64)
	if err != nil {
		return nil, err
	}
	t := &timingCache{c: c, sets: uint64(sets)}
	if sets > 0 && sets&(sets-1) == 0 {
		t.pow2 = true
		t.mask = uint64(sets - 1)
		for 1<<t.bits < sets {
			t.bits++
		}
	}
	return t, nil
}

func (t *timingCache) index(la addrmap.LineAddr) (int, uint64) {
	if t.pow2 {
		return int(uint64(la) & t.mask), uint64(la) >> t.bits
	}
	return int(uint64(la) % t.sets), uint64(la) / t.sets
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
		victimLA := addrmap.LineAddr(evicted.Tag*t.sets + uint64(set))
		return victimLA, evicted.Dirty, true
	}
	return 0, false, false
}

// MemSystem is the shared memory hierarchy below the private L2s: the LLC
// and the memory channels.
type MemSystem struct {
	mapper   *addrmap.Mapper
	llc      *cache.Cache
	hash     bool
	bankHash bool
	channels []*Channel
	cpuPerMC int64
	pool     reqPool

	LLCHits      uint64
	LLCMisses    uint64
	LLCEvictions uint64
	Prefetches   uint64
}

// MemConfig configures the shared hierarchy.
type MemConfig struct {
	Geometry dram.Geometry
	LLCSets  int
	LLCWays  int
	// HashSetIndex applies the XOR fold to LLC set selection.
	HashSetIndex bool
	// BankXORHash applies permutation-based bank interleaving in the
	// memory controller (Table 3).
	BankXORHash bool
	// Timing is the channel timing spec (DDR3Timing in DefaultMemConfig,
	// the technology's timing in a lowered scenario); a zero spec fails
	// Validate.
	Timing TimingSpec
}

// DefaultMemConfig matches Table 3 (2 channels, 8MiB 16-way LLC,
// DDR3-1600).
func DefaultMemConfig() MemConfig {
	return MemConfig{
		Geometry:     dram.PerfNode(),
		LLCSets:      8192,
		LLCWays:      16,
		HashSetIndex: true,
		BankXORHash:  true,
		Timing:       DDR3Timing(),
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

// NewMemSystem builds the shared hierarchy.
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
		hash:     cfg.HashSetIndex,
		bankHash: cfg.BankXORHash,
		cpuPerMC: cfg.Timing.CPUPerMC,
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		ch := NewChannelSpec(cfg.Geometry.DIMMsPerChan, cfg.Geometry.Banks, cfg.Timing)
		ch.pool = &ms.pool
		ms.channels = append(ms.channels, ch)
	}
	return ms, nil
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
	set, tag := m.mapper.CacheIndex(la, m.hash)
	if way := m.llc.Access(set, tag, false); way >= 0 {
		m.LLCHits++
		if write {
			m.llc.MarkDirty(set, way)
		}
		return true, nil
	}
	m.LLCMisses++
	loc := m.mapper.Decode(la)
	if m.bankHash {
		loc = m.mapper.BankXORHash(loc)
	}
	req := m.pool.get()
	req.Loc, req.Arrival, req.retained = loc, nowCPU, true
	m.channels[loc.Channel].Enqueue(req)

	// Install now (state-wise); eviction may produce a writeback.
	way, evicted := m.llc.Fill(set, tag, false)
	if way >= 0 {
		if write {
			m.llc.MarkDirty(set, way)
		}
		if evicted.Valid {
			m.LLCEvictions++
		}
		if evicted.Valid && evicted.Dirty {
			evLA := m.lineAddrFromIndex(set, evicted.Tag)
			evLoc := m.mapper.Decode(evLA)
			if m.bankHash {
				evLoc = m.mapper.BankXORHash(evLoc)
			}
			wb := m.pool.get()
			wb.Loc, wb.Write, wb.Arrival = evLoc, true, nowCPU
			m.channels[evLoc.Channel].Enqueue(wb)
		}
	}
	return false, req
}

// Prefetch installs a line speculatively: on an LLC hit it does nothing;
// on a miss it enqueues the DRAM fill and installs the line, charging the
// traffic to the prefetch counters instead of demand misses. The returned
// request (nil on hit) lets callers bound outstanding prefetches.
func (m *MemSystem) Prefetch(la addrmap.LineAddr, nowCPU int64) *Request {
	set, tag := m.mapper.CacheIndex(la, m.hash)
	if m.llc.Probe(set, tag, false) >= 0 {
		return nil
	}
	m.Prefetches++
	loc := m.mapper.Decode(la)
	if m.bankHash {
		loc = m.mapper.BankXORHash(loc)
	}
	req := m.pool.get()
	req.Loc, req.Arrival = loc, nowCPU // not retained: callers only nil-check
	m.channels[loc.Channel].Enqueue(req)
	way, evicted := m.llc.Fill(set, tag, false)
	if way >= 0 && evicted.Valid {
		m.LLCEvictions++
	}
	if way >= 0 && evicted.Valid && evicted.Dirty {
		evLA := m.lineAddrFromIndex(set, evicted.Tag)
		evLoc := m.mapper.Decode(evLA)
		if m.bankHash {
			evLoc = m.mapper.BankXORHash(evLoc)
		}
		wb := m.pool.get()
		wb.Loc, wb.Write, wb.Arrival = evLoc, true, nowCPU
		m.channels[evLoc.Channel].Enqueue(wb)
	}
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
	la := tag << m.mapper.SetBits()
	low := uint64(set)
	if m.hash {
		low ^= uint64(m.mapper.FoldTag(tag))
	}
	return addrmap.LineAddr(la | low)
}

// Tick advances every channel at memory-clock boundaries.
func (m *MemSystem) Tick(nowCPU int64) {
	if nowCPU%m.cpuPerMC != 0 {
		return
	}
	nowTck := nowCPU / m.cpuPerMC
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
