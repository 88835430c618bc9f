package perf

import (
	"reflect"

	"relaxfault/internal/trace"
)

// Outcome is one simulation's Result with the tallies Run publishes rather
// than returns, and the machine's final state.
type Outcome struct {
	Result *Result
	// Per core: memory-stall, latency-stall and compute cycles, and the
	// MSHR depth tally.
	StallMem, StallLat, Compute []uint64
	MSHRDepth                   [][]int64
	// Per channel: the read- and write-queue depth tallies.
	ReadQDepth, WriteQDepth [][]int64
	// Machine is the run's cores (caches and generators included) and the
	// memory system, for a final deep comparison.
	Machine any
	ms      *MemSystem
}

// Simulate readies m for cfg like Machine.Run and advances it with Run's
// event clock, or, with plain set, with the cycle-by-cycle reference loop.
// The Outcome's Machine is m's live state: compare it before m runs again.
func Simulate(m *Machine, cfg SystemConfig, threads []trace.ThreadParams, plain bool) (*Outcome, error) {
	s, err := m.load(cfg, threads)
	if err != nil {
		return nil, err
	}
	var cycles int64
	if plain {
		cycles = s.runPlain()
	} else if cycles, err = s.run(); err != nil {
		return nil, err
	}
	o := &Outcome{Result: s.result(cycles), Machine: s, ms: s.ms}
	for _, c := range s.cores {
		o.StallMem = append(o.StallMem, c.StallMemCycles)
		o.StallLat = append(o.StallLat, c.StallLatCycles)
		o.Compute = append(o.Compute, c.ComputeCycles)
		o.MSHRDepth = append(o.MSHRDepth, c.mshrDepth)
	}
	for _, ch := range s.ms.Channels() {
		o.ReadQDepth = append(o.ReadQDepth, ch.readQDepth)
		o.WriteQDepth = append(o.WriteQDepth, ch.writeQDepth)
	}
	return o, nil
}

// SameMachine reports whether a and b ended in deeply equal machines, the
// request free lists aside: a reused machine's list also holds the requests
// its earlier runs returned, and get zeroes each one it hands out.
func SameMachine(a, b *Outcome) bool {
	fa, fb := a.ms.pool.free, b.ms.pool.free
	a.ms.pool.free, b.ms.pool.free = nil, nil
	defer func() { a.ms.pool.free, b.ms.pool.free = fa, fb }()
	return reflect.DeepEqual(a.Machine, b.Machine)
}

// runPlain is the reference clock: it ticks every channel at every
// memory-clock edge and every core at every CPU cycle, skipping none, until
// every core has reached its target.
func (s *system) runPlain() int64 {
	for cycle := int64(1); ; cycle++ {
		if cycle%s.ms.cpuPerMC == 0 {
			s.ms.tick(cycle / s.ms.cpuPerMC)
		}
		done := true
		for _, c := range s.cores {
			c.Tick(cycle, s.ms)
			done = done && c.DoneCycle != 0
		}
		if done {
			return cycle
		}
	}
}
