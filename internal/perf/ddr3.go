// Package perf is the trace-driven performance model standing in for the
// paper's MacSim setup (Table 3): eight 4-wide cores with private L1/L2
// caches, a shared 8MiB 16-way LLC that can sacrifice ways or individual
// lines to RelaxFault repair, and FR-FCFS open-page memory controllers with
// bank XOR hashing. The channel timing is a TimingSpec (DDR3-1600 by
// default; internal/memtech registers DDR4/LPDDR4/HBM specs). It reports
// per-core IPC (for weighted speedup) and DRAM operation counts (for the
// dynamic-power model).
package perf

import (
	"relaxfault/internal/dram"
)

// Request is one DRAM transaction (a 64B line fill or writeback).
type Request struct {
	Loc     dram.Location
	Write   bool
	Arrival int64 // CPU cycle the request reached the controller
	// DoneAt is the CPU cycle the data transfer completes; valid once
	// Scheduled.
	DoneAt    int64
	Scheduled bool

	// retained marks requests a core still holds a pointer to (demand
	// misses); the channel recycles unretained requests (writebacks,
	// prefetches, spilled victims) as soon as they are scheduled.
	retained bool
	// inWindow is true while the request sits in its core's MSHR window;
	// a blocked request popped from the window is freed at unblock.
	inWindow bool
}

// reqPool is a free list of Requests. The simulator is single-goroutine,
// and the memory system retires tens of requests per thousand instructions,
// so recycling them removes the dominant steady-state allocation of the
// performance model. A nil pool (test-constructed Channels) never recycles.
type reqPool struct{ free []*Request }

func (p *reqPool) get() *Request {
	if p == nil || len(p.free) == 0 {
		return &Request{}
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	*r = Request{}
	return r
}

func (p *reqPool) put(r *Request) {
	if p == nil || r == nil {
		return
	}
	p.free = append(p.free, r)
}

// Done reports completion at the given CPU cycle.
func (r *Request) Done(nowCPU int64) bool { return r.Scheduled && r.DoneAt <= nowCPU }

// bank tracks one DRAM bank's open row and timing state (times in tCK).
type bank struct {
	openRow     int   // -1 when closed
	casReady    int64 // earliest next column command
	lastAct     int64 // time of the last activate (for tRAS)
	busyUntil   int64 // bank busy for row commands until this time
	lastDataEnd int64 // end of the last data burst (+tWR for writes)

	// rowHits/rowConflicts are this bank's share of the channel's
	// open-page outcomes (plain fields: a channel is single-goroutine;
	// publishRun folds them into the per-bank metric families).
	rowHits      uint64
	rowConflicts uint64
}

// OpCounts tallies DRAM commands for the power model.
type OpCounts struct {
	Activates  uint64
	Precharges uint64
	Reads      uint64
	Writes     uint64
}

// Add accumulates counts.
func (o *OpCounts) Add(b OpCounts) {
	o.Activates += b.Activates
	o.Precharges += b.Precharges
	o.Reads += b.Reads
	o.Writes += b.Writes
}

// Channel models one memory channel: per-(rank,bank) state, FR-FCFS read
// scheduling with an opportunistically drained write queue, open-page
// policy, and a shared data bus.
type Channel struct {
	t         TimingSpec
	banks     [][]bank // [rank][bank]
	readQ     []*Request
	writeQ    []*Request
	busFree   int64 // tCK when the data bus frees
	draining  bool
	Ops       OpCounts
	RowHits   uint64
	RowMisses uint64
	// readQDepth and writeQDepth tally each queue's depth at every
	// enqueue (publishRun folds them into the queue-depth histograms).
	readQDepth, writeQDepth depthTally
	// writeDrainHigh/Low are the write-queue watermarks.
	writeDrainHigh int
	writeDrainLow  int
	// Bank-group state, active only when the spec has more than one group
	// (banksPerGroup stays 0 otherwise, and DDR3 schedules are untouched):
	// the effective CAS issue time of the last column command per rank and
	// per (rank, group), constraining the next CAS by tCCD_S / tCCD_L.
	banksPerGroup int
	lastCASRank   []int64
	lastCASGroup  [][]int64
	// pool recycles scheduled requests nobody retains; set by NewMemSystem
	// (nil for standalone Channels).
	pool *reqPool
}

// NewChannelSpec builds a channel with an explicit timing spec.
func NewChannelSpec(ranks, banks int, spec TimingSpec) *Channel {
	ch := &Channel{t: spec, writeDrainHigh: 32, writeDrainLow: 8}
	ch.banks = make([][]bank, ranks)
	for r := range ch.banks {
		ch.banks[r] = make([]bank, banks)
		for b := range ch.banks[r] {
			ch.banks[r][b].openRow = -1
		}
	}
	if spec.Grouped() && banks%spec.BankGroups == 0 {
		ch.banksPerGroup = banks / spec.BankGroups
		ch.lastCASRank = make([]int64, ranks)
		ch.lastCASGroup = make([][]int64, ranks)
		for r := range ch.lastCASGroup {
			ch.lastCASRank[r] = -spec.TCCDL
			ch.lastCASGroup[r] = make([]int64, spec.BankGroups)
			for g := range ch.lastCASGroup[r] {
				ch.lastCASGroup[r][g] = -spec.TCCDL
			}
		}
	}
	return ch
}

// Enqueue adds a request to the appropriate queue and samples the queue's
// occupancy into the FR-FCFS depth tallies.
func (c *Channel) Enqueue(r *Request) {
	if r.Write {
		c.writeQ = append(c.writeQ, r)
		c.writeQDepth.observe(len(c.writeQ))
	} else {
		c.readQ = append(c.readQ, r)
		c.readQDepth.observe(len(c.readQ))
	}
}

// Busy reports whether the channel still has work queued.
func (c *Channel) Busy() bool { return len(c.readQ) > 0 || len(c.writeQ) > 0 }

// Tick makes one scheduling decision at memory-clock time nowTck. FR-FCFS:
// the oldest row-hit request wins; otherwise the oldest request. Writes are
// serviced when the read queue is empty or the write queue crosses its high
// watermark, and drain down to the low watermark.
func (c *Channel) Tick(nowTck int64) {
	if len(c.writeQ) >= c.writeDrainHigh {
		c.draining = true
	}
	if len(c.writeQ) <= c.writeDrainLow {
		c.draining = false
	}
	useWrites := len(c.readQ) == 0 || c.draining
	q := &c.readQ
	if useWrites && len(c.writeQ) > 0 {
		q = &c.writeQ
	}
	if len(*q) == 0 {
		return
	}
	// First-ready: oldest request whose bank has its row open (the CAS may
	// start slightly in the future; keeping the row stream together is
	// what preserves row-buffer locality under multi-core interleaving).
	pick := -1
	for i, r := range *q {
		b := &c.banks[r.Loc.Rank][r.Loc.Bank]
		if b.openRow == r.Loc.Row {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0 // FCFS fallback: oldest
	}
	r := (*q)[pick]
	c.schedule(r, nowTck)
	*q = append((*q)[:pick], (*q)[pick+1:]...)
	if !r.retained {
		c.pool.put(r)
	}
}

// schedule assigns the full command timeline of a request. Every request is
// accepted: a bank that is still busy pushes the request's commands later
// in time rather than deferring the decision.
func (c *Channel) schedule(r *Request, nowTck int64) {
	t := &c.t
	b := &c.banks[r.Loc.Rank][r.Loc.Bank]
	var casAt int64
	switch {
	case b.openRow == r.Loc.Row:
		casAt = maxi64(nowTck, b.casReady)
		c.RowHits++
		b.rowHits++
	case b.openRow >= 0:
		// Precharge after tRAS from the activate and after the last data
		// burst drains (+ write recovery), then activate, then CAS.
		preAt := maxi64(nowTck, maxi64(b.lastAct+t.TRAS, maxi64(b.busyUntil, b.lastDataEnd+t.TRTP)))
		actAt := preAt + t.TRP
		casAt = actAt + t.TRCD
		c.Ops.Precharges++
		c.Ops.Activates++
		b.lastAct = actAt
		b.busyUntil = actAt
		b.openRow = r.Loc.Row
		c.RowMisses++
		b.rowConflicts++
	default:
		actAt := maxi64(nowTck, b.busyUntil)
		casAt = actAt + t.TRCD
		c.Ops.Activates++
		b.lastAct = actAt
		b.busyUntil = actAt
		b.openRow = r.Loc.Row
		c.RowMisses++
		b.rowConflicts++
	}
	group := 0
	if c.banksPerGroup > 0 {
		// DDR4-style column-command separation: tCCD_L within the bank
		// group, tCCD_S across groups of the same rank.
		group = r.Loc.Bank / c.banksPerGroup
		casAt = maxi64(casAt, c.lastCASRank[r.Loc.Rank]+t.TCCDS)
		casAt = maxi64(casAt, c.lastCASGroup[r.Loc.Rank][group]+t.TCCDL)
	}
	// Serialise the data bus.
	lat := t.TCL
	if r.Write {
		lat = t.TCWL
	}
	dataStart := maxi64(casAt+lat, c.busFree)
	c.busFree = dataStart + t.TBurst
	// Same-bank commands stay within one group, so their separation is the
	// long tCCD (equal to the short one on ungrouped technologies).
	b.casReady = maxi64(dataStart-lat+t.TCCDL, casAt+t.TCCDL)
	if c.banksPerGroup > 0 {
		cas := dataStart - lat // effective CAS issue after bus slotting
		c.lastCASRank[r.Loc.Rank] = cas
		c.lastCASGroup[r.Loc.Rank][group] = cas
	}
	if r.Write {
		c.Ops.Writes++
		b.lastDataEnd = dataStart + t.TBurst + t.TWR
	} else {
		c.Ops.Reads++
		b.lastDataEnd = dataStart + t.TBurst
	}
	r.DoneAt = (dataStart + t.TBurst) * t.CPUPerMC
	r.Scheduled = true
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
