package perf

import (
	"relaxfault/internal/addrmap"
	"relaxfault/internal/trace"
)

// Core approximates a 4-wide out-of-order core driven by a synthetic trace:
// compute bursts retire at 4 instructions per cycle, cache hits are
// pipelined, and up to mlp outstanding misses overlap. The core stalls when
// a critical (dependent) load misses, or when its miss-level parallelism is
// exhausted — the two first-order mechanisms through which reduced LLC
// capacity shows up as lost IPC.
type Core struct {
	ID  int
	gen trace.Generator
	l1  *timingCache
	l2  *timingCache

	waitUntil   int64
	blocked     *Request
	outstanding []*Request

	prefetchDegree int
	lastMissLine   addrmap.LineAddr
	streamRuns     int
	Prefetched     uint64

	// Retired counts instructions; DoneCycle is when Target was reached
	// (0 while running). The core keeps executing afterwards so shared
	// resources stay contended, matching the paper's methodology.
	Retired   uint64
	Target    uint64
	DoneCycle int64

	L1Hits, L2Hits, LLCLevel, MemLevel uint64

	// Stall-cycle breakdown (published to the obs registry at run end):
	// StallMemCycles counts cycles spent blocked on an outstanding DRAM
	// request (critical miss or exhausted MLP), StallLatCycles the fixed
	// hit/ROB-pressure latencies charged to the pipeline, ComputeCycles
	// the 4-wide retire bursts.
	StallMemCycles uint64
	StallLatCycles uint64
	ComputeCycles  uint64
	blockStart     int64
	// mshrDepth tallies the MSHR window's depth at every new miss.
	mshrDepth depthTally
}

// The private hierarchy and its stall costs, from Table 3. The L1 is 32KiB
// (64 sets x 8 ways x 64B) and the L2 128KiB (256 sets x 8 ways x 64B). L1
// hits are fully pipelined; deeper hits stall only critical loads.
const (
	l1Sets, l1Ways = 64, 8
	l2Sets, l2Ways = 256, 8
	// mlp is how many DRAM misses may be outstanding before the core
	// stalls.
	mlp = 8
	// Latencies (CPU cycles) of an L2 and an LLC hit.
	latL2  = 8
	latLLC = 30
	// missPenalty is the ROB-pressure cost (cycles) of each DRAM miss even
	// when its latency overlaps other work: a miss occupies the reorder
	// buffer and issue slots, so a 4-wide window cannot stream misses for
	// free.
	missPenalty = 16
	// llcHitPenalty is the analogous, smaller cost of an LLC hit.
	llcHitPenalty = 4
)

// NewCore builds a core over its generator. prefetchDegree enables a
// next-line stream prefetcher into the LLC: after two sequential demand
// misses, the next prefetchDegree lines are fetched ahead (0 disables it,
// as in Table 3, which lists no prefetcher).
func NewCore(id, prefetchDegree int, gen trace.Generator) (*Core, error) {
	l1, err := newTimingCache(l1Sets, l1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := newTimingCache(l2Sets, l2Ways)
	if err != nil {
		return nil, err
	}
	return &Core{ID: id, gen: gen, l1: l1, l2: l2, prefetchDegree: prefetchDegree}, nil
}

// Done reports whether the core reached its instruction target.
func (c *Core) Done() bool { return c.DoneCycle != 0 }

// NextWake returns the earliest cycle the core could make progress, or -1
// when it is blocked on an unscheduled memory request.
func (c *Core) NextWake() int64 {
	if c.blocked != nil {
		if !c.blocked.Scheduled {
			return -1
		}
		if c.blocked.DoneAt > c.waitUntil {
			return c.blocked.DoneAt
		}
	}
	return c.waitUntil
}

// Tick advances the core by one CPU cycle.
func (c *Core) Tick(now int64, ms *MemSystem) {
	if c.blocked != nil {
		if !c.blocked.Done(now) {
			return
		}
		c.StallMemCycles += uint64(now - c.blockStart)
		if !c.blocked.inWindow {
			// Popped from the MSHR window at block time; nobody else
			// holds it. (In-window requests are freed by retireDone.)
			ms.pool.put(c.blocked)
		}
		c.blocked = nil
	}
	if c.waitUntil > now {
		return
	}

	op := c.gen.Next()
	c.Retired += uint64(op.NonMem) + 1
	if c.DoneCycle == 0 && c.Retired >= c.Target {
		c.DoneCycle = now
	}
	// Compute burst at 4-wide retire.
	delay := int64(op.NonMem) / 4

	la := addrmap.LineAddr(op.Addr >> 6)
	var lat int64
	switch {
	case c.l1.access(la, op.Write):
		c.L1Hits++
	case c.l2.access(la, op.Write):
		c.L2Hits++
		c.installL1(la, op.Write, ms, now)
		if op.Critical {
			lat = latL2
		}
	default:
		hit, req := ms.Access(la, op.Write, now)
		if hit {
			c.LLCLevel++
			if op.Critical {
				lat = latLLC
			} else {
				lat = llcHitPenalty
			}
		} else {
			c.MemLevel++
			c.retireDone(now, ms)
			req.inWindow = true
			c.outstanding = append(c.outstanding, req)
			c.mshrDepth.observe(len(c.outstanding))
			if op.Critical {
				c.blocked = req
				c.blockStart = now
			} else {
				lat = missPenalty
				if len(c.outstanding) > mlp {
					c.blocked = c.outstanding[0]
					c.blocked.inWindow = false
					c.outstanding = c.outstanding[1:]
					c.blockStart = now
				}
			}
			c.maybePrefetch(la, ms, now)
		}
		c.installL2(la, op.Write, ms, now)
		c.installL1(la, op.Write, ms, now)
	}
	c.ComputeCycles += uint64(delay) + 1
	c.StallLatCycles += uint64(lat)
	c.waitUntil = now + 1 + delay + lat
}

// maybePrefetch runs the next-line stream detector: two sequential demand
// misses arm the stream, after which the next prefetchDegree lines are
// pulled into the LLC ahead of use.
func (c *Core) maybePrefetch(la addrmap.LineAddr, ms *MemSystem, now int64) {
	if c.prefetchDegree <= 0 {
		return
	}
	if la == c.lastMissLine+1 {
		c.streamRuns++
	} else {
		c.streamRuns = 0
	}
	c.lastMissLine = la
	if c.streamRuns < 2 {
		return
	}
	for i := 1; i <= c.prefetchDegree; i++ {
		if ms.Prefetch(la+addrmap.LineAddr(i), now) != nil {
			c.Prefetched++
		}
	}
}

// retireDone drops completed requests from the MSHR window and recycles
// them (the window is the only remaining holder: a critically-blocked
// request stays in the window, and Tick clears c.blocked before any path
// that reaches here).
func (c *Core) retireDone(now int64, ms *MemSystem) {
	keep := c.outstanding[:0]
	for _, r := range c.outstanding {
		if !r.Done(now) {
			keep = append(keep, r)
		} else {
			ms.pool.put(r)
		}
	}
	c.outstanding = keep
}

// installL1 fills L1 and spills a dirty victim into L2.
func (c *Core) installL1(la addrmap.LineAddr, dirty bool, ms *MemSystem, now int64) {
	victim, vdirty, ok := c.l1.install(la, dirty)
	if ok && vdirty {
		// Dirty L1 victim merges into L2 (allocate on writeback).
		if !c.l2.access(victim, true) {
			c.installL2(victim, true, ms, now)
		}
	}
}

// installL2 fills L2 and spills a dirty victim into the LLC.
func (c *Core) installL2(la addrmap.LineAddr, dirty bool, ms *MemSystem, now int64) {
	victim, vdirty, ok := c.l2.install(la, dirty)
	if ok && vdirty {
		// Dirty L2 victims write into the LLC; with the inclusive sizing
		// they nearly always hit there. Nobody tracks the fill on a miss.
		_, req := ms.Access(victim, true, now)
		ms.Release(req)
	}
}
